"""Cross-checking the relational and the CTL decision methods.

Both methods answer the same question about a pair (q, r): the relational
method asks whether the pair survives the greatest-fixpoint refinement,
the CTL method checks the corresponding formula on the flat system grown
from (q, r, no-pending).  The two characterisations are expected to
coincide but are computed by unrelated code paths, so any divergence is
worth surfacing rather than hiding; see ``pair_disagreements``.
"""

from __future__ import annotations

from ._record import Record
from .adapt import WEAK, adaptable, candidate_pairs, strong_relation, weak_relation
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


def pair_disagreements(sys, kind):
    """Candidate pairs on which the methods answer differently.

    Every pair (q, r) with q satisfying the constraint of r is tried:
    relational membership against the CTL formula on the system re-rooted
    at that pair.  All pairs are roots of one flat system, labelled once;
    this is exact because a state's CTL label depends only on the states
    it can reach.  Returns a sorted tuple of ((q, r), relational, ctl)
    entries; empty when the methods agree on every candidate.
    """
    rel = (weak_relation if kind == WEAK else strong_relation)(sys)
    phi = adaptability_formula(kind)
    roots = sorted(candidate_pairs(sys))
    sat = check_ctl(flatten(sys, roots), phi).satisfying
    out = []
    for i, (q, r) in enumerate(roots):
        ctl_holds = i in sat
        rel_holds = rel.holds_for(q, r)
        if rel_holds != ctl_holds:
            out.append(((q, r), rel_holds, ctl_holds))
    return tuple(out)


def find_discrepancy(sys, kind):
    """Smallest disagreeing candidate pair with both verdicts, or None."""
    diffs = pair_disagreements(sys, kind)
    return diffs[0] if diffs else None
