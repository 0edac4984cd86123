"""Cross-checking the relational and the CTL decision methods.

Both methods answer the same question about a pair (q, r): the relational
method asks whether the pair survives the greatest-fixpoint refinement,
the CTL method checks the corresponding formula on the flat system grown
from (q, r, no-pending).  The two characterisations are expected to
coincide but are computed by unrelated code paths, so any divergence is
worth surfacing rather than hiding; see ``pair_disagreements``.

``find_discrepancy`` names the least disagreeing pair, and starts from
what the verdict has solved: the closure of the initial pair, where the
rooted relation and every CTL label are exact.  The least disagreement
there is a bound, and only the candidates that sort below it and lie
outside the closure are solved, rooted at themselves.  The saving depends
on the closure holding the least candidates.
"""

from ._record import Record
from .adapt import WEAK, _refuted, adaptable, candidate_pairs, strong_relation, weak_relation
from .ctl import adaptability_formula, check_ctl
from .flat import flatten
from .model import BehaviourMachine, SBSystem, StructureMachine


class MethodVerdicts(Record):
    """Top-level adaptability verdicts for one property by both methods."""

    __slots__ = ("kind", "relational", "ctl")  # kind: 'weak' or 'strong'


def rerooted(sys, q, r):
    """The same system re-anchored to start at behaviour state ``q`` and
    structure state ``r``.  The pair must satisfy q ⊨ L(r), otherwise the
    result fails well-formedness."""
    b, m = sys.behaviour, sys.structure
    return SBSystem(
        sys.name,
        sys.observables,
        BehaviourMachine(b.states, q, b.transitions),
        StructureMachine(m.states, r, m.labels, m.transitions),
        sys.observation,
    )


def compare_methods(sys, kind, flat=None):
    """Verdicts of both methods on the system's initial pair."""
    relational = adaptable(sys, kind)
    if flat is None:
        flat = flatten(sys)
    phi = adaptability_formula(kind)
    return MethodVerdicts(kind=kind, relational=relational, ctl=check_ctl(flat, phi).holds_at_init)


def _disagreeing(states, holds, sat):
    """The sorted ((q, r), relational, ctl) entries of the ``(id, pair)``
    ``states`` on which the methods differ: ``holds`` is the set of those
    pairs in the relation, ``sat`` the ids satisfying the formula."""
    return tuple(sorted((p, p in holds, i in sat) for i, p in states if (p in holds) != (i in sat)))


def pair_disagreements(sys, kind, roots=None):
    """Candidate pairs on which the methods answer differently.

    Each of ``roots``, distinct candidate pairs, or without them every
    pair (q, r) with q satisfying the constraint of r, is tried: relational
    membership against the CTL formula on the system re-rooted at that
    pair.  All pairs are roots of one flat system, labelled once; this is
    exact because a state's CTL label depends only on the states it can
    reach.  Given roots are solved relationally on their own closure (see
    :mod:`sbcheck.adapt`), else the whole relation is built.  Returns a
    sorted tuple of ((q, r), relational, ctl) entries; empty when the
    methods agree on every pair tried.
    """
    phi = adaptability_formula(kind)  # first, so that an unknown kind is refused
    if roots is None:
        roots = sorted(candidate_pairs(sys))
        holds = (weak_relation if kind == WEAK else strong_relation)(sys).pairs
    else:
        holds = set(roots) - _refuted(sys, kind, frozenset(roots))
    sat = check_ctl(flatten(sys, roots), phi).satisfying
    return _disagreeing(enumerate(roots), holds, sat)


def find_discrepancy(sys, kind, flat=None):
    """Smallest disagreeing candidate pair with both verdicts, or None.

    ``flat`` is ``flatten(sys)`` when the caller has it.  The verdict's own
    closure, the pairs (q, r) of its flat states (q, r, no-pending), is read
    first: there the rooted relation is exact (see :mod:`sbcheck.adapt`)
    and so is each CTL label, which depends only on reachable states.  The
    least disagreeing pair there bounds the search, and only the candidates
    that sort below it and lie outside the closure are solved, rooted at
    themselves by :func:`pair_disagreements`.  None are left when the
    closure holds the least candidates, as on the benchmark's livelock
    gadget, whose ``(gq0, gr0)`` sorts first: there the search costs one
    rooted solve and one CTL check on the verdict's flat system, not the
    whole relation and a flat system over every candidate, and reads no
    behaviour state past the bound's.
    """
    if flat is None:
        flat = flatten(sys)
    init = (sys.behaviour.init, sys.structure.init)
    closure = [(i, (q, r)) for i, (q, r, pending) in enumerate(flat.states) if pending is None]
    pairs = {p for _, p in closure}
    sat = check_ctl(flat, adaptability_formula(kind)).satisfying
    diffs = _disagreeing(closure, pairs - _refuted(sys, kind, init), sat)
    bound = diffs[0][0] if diffs else None
    below = []
    for q in sys.behaviour.states:  # sorted, as are the structure states
        if bound and q > bound[0]:
            break
        below += [(q, r) for r in sys.structure.states if q in sys.constraint_region(r)
                  and (q, r) not in pairs and (not bound or (q, r) < bound)]
    if below:
        diffs = pair_disagreements(sys, kind, below) or diffs
    return diffs[0] if diffs else None
