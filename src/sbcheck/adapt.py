"""Weak and strong adaptability as greatest-fixpoint relations on (q, r) pairs.

A candidate pair (q, r) has q satisfying the constraint of r.  Starting
from all candidates, pairs with an unmet requirement are dropped until
stable.  The requirements cover each move the flat semantics can take
from (q, r, no-pending):

* a steady pair, one with a behaviour successor inside the constraint of
  r, needs (q2, r) for every such successor q2;
* an adapting pair, one whose successors all lie outside it, needs
  clauses: tuples of candidate pairs of which at least one must survive
  (an empty clause never holds).  Adaptation branches ``inv => t`` are
  walked from each behaviour successor they admit, through ``inv``
  states, to the endpoints satisfying the constraint of t.  The weak
  relation needs, per successor some branch admits, one endpoint pair
  (x, t) of any such branch.  The strong relation needs every such branch
  to end on all runs, with every endpoint pair surviving.  A walk is one
  reach pass that finds the endpoints and counts each reached state's
  in-edges; only where runs join does a peel of those counts decide
  whether every run ends (see :func:`_branch`), so it is linear in the
  reached states and their moves.  A walk does not depend on the kind, so
  each is done once per system and read by both (see :func:`_runs`);
* a behaviour deadlock needs nothing.

Behaviour successors the flat semantics cannot move to (they violate the
active constraint while a steady move exists, or satisfy no enabled
invariant) impose no requirement.

Only adapting pairs get clauses.  A steady requirement stays an implicit
edge of a Boolean graph (Andersen, TCS 1994): when (s, r) drops, every
(q, r) with q -> s and q satisfying the constraint of r drops too, as such
a q is steady at r.  Behaviour predecessors are tabled once a pair drops.
The clauses are solved by a counter worklist (Liu & Smolka, ICALP 1998):
each clause counts its live members, each pair lists the clauses it is a
member of, and a dropped pair decrements those counts.  So a pair drops
once, when it has an empty clause, a count reaches 0 or a steady
successor drops, and every dropped pair is outside the global relation G.

Which pairs must adapt, their weak clauses and whether all their runs end
do not depend on the kind either.  So they are found once per system and
root, in one move table (:func:`_moves`), and each kind reads its clauses
off it.  The relation takes every candidate.  A verdict takes the closure
D of the initial pair under steady successors and, from a pair that must
adapt, the endpoints of every branch it can enter; the discrepancy search
takes the closure of several roots alike.  Every member of a weak or a
strong clause is such an endpoint, so D is closed under the requirements
of both kinds.  D may be larger than one kind needs: a strong pair whose
run need not end has only the empty clause, yet D holds its endpoints.
That keeps the verdict exact, as the argument below uses only that D is
closed.

A drop may spread to pairs outside D; each is outside G, and no pair of
D reads one.  With L the pairs of D left standing, G ∩ D ⊆ L, as only
pairs outside G drop.  Each requirement of a pair in L has all its
members in D and keeps one standing, else the pair would have dropped, so
L ∪ G meets every requirement and L ⊆ G: L = G ∩ D.  That holds at
every pair of D, not only at the roots, so the discrepancy search reads
the verdict's D whole before it solves anything more.
"""

from ._record import Record
from .errors import ModelError
from .model import require_well_formed

WEAK = "weak"
STRONG = "strong"


class AdaptRelation(Record):
    """The ``kind`` relation, 'weak' or 'strong': a frozenset of (q, r) ``pairs``."""

    __slots__ = ("kind", "pairs")

    def holds_for(self, q, r):
        return (q, r) in self.pairs


class EquivPartition(Record):
    """The ``kind`` partition: a tuple of ``blocks``, frozensets of behaviour states."""

    __slots__ = ("kind", "blocks")


def candidate_pairs(sys):
    """The refinement start: every (q, r) with q satisfying the constraint of r."""
    return frozenset(
        (q, r) for r in sys.structure.states for q in sys.constraint_region(r)
    )


def _branch(sys, start, r, k):
    """Where the adaptation branch along option ``k`` of ``r``, entered at
    ``start``, can end.

    Walks from ``start`` through the states satisfying the option's
    invariant, and stops at states satisfying the constraint of its target
    t.  Returns ``(ends, finite)``: the pairs (x, t) of the goal states x
    reached, and whether every run reaches one.
    A run does not when it meets a non-goal state with no move left
    (stuck) or a cycle of non-goal states.

    One worklist pass reaches the states and the endpoints, and counts
    each reached non-goal state's in-edges from the others.  When no state
    is reached twice, the reached states form a tree under ``start`` and
    every run ends.  Else a peel from ``start`` (Kahn, CACM 1962) takes a
    state once its count falls to 0: every run ends exactly when ``start``
    has no in-edge and every reached state peels off.  Both passes are
    linear in the reached states and their moves.
    """
    _, target, inv_region = sys.options(r)[k]
    goal = sys.constraint_region(target)
    if start in goal:
        return ((start, target),), True
    succ = sys.behaviour._succ  # the table behind successors(), read without its check
    endpoints = set()
    finite = True
    joined = False  # some state reached twice
    indeg = {start: 0}  # reached non-goal state -> its in-edges from reached states
    reached = [start]
    for x in reached:  # grows as states are reached
        stuck = True
        for y in succ[x]:
            if y in inv_region:
                stuck = False
                if y in goal:
                    endpoints.add(y)
                elif y in indeg:
                    indeg[y] += 1
                    joined = True
                else:
                    indeg[y] = 1
                    reached.append(y)
        if stuck:  # no move left
            finite = False
    if finite and joined:
        peeled = [start] if not indeg[start] else []  # an in-edge puts start on a cycle
        for x in peeled:
            for y in succ[x]:
                if y in indeg:  # reached, so not a goal
                    indeg[y] -= 1
                    if not indeg[y]:
                        peeled.append(y)
        finite = len(peeled) == len(indeg)  # the rest lie on or past a cycle
    return tuple([(x, target) for x in endpoints]), finite


def _runs(sys, q2, r):
    """The :func:`_branch` result of each option of ``r`` that admits entry
    state ``q2``.  Neither depends on the kind, so each branch is walked
    once per system, kept in ``sys._walks``."""
    walks = sys._walks
    runs = []
    for k, (_, _, region) in enumerate(sys.options(r)):
        if q2 in region:
            run = walks.get((q2, r, k))
            if run is None:
                run = walks[q2, r, k] = _branch(sys, q2, r, k)
            runs.append(run)
    return runs


def _moves(sys, root=None):
    """The move table from ``root``, one (q, r) pair or a frozenset of them,
    or of every candidate without one: each adapting pair (q, r) ->
    ``(clauses, finite)``, its weak clauses, a tuple of endpoint pairs per
    behaviour successor some option admits, and whether every run of every
    such branch ends.  Neither depends on the kind, so the table is built
    once per system and root, kept in ``sys._moves``.  It is found per
    structure state r over a set of behaviour states: all of r's constraint
    region without a root, else the roots' closure under steady successors
    and clause members.  A steady pair is read once and never stored."""
    table = sys._moves.get(root)
    if table is not None:
        return table
    table = {}
    succ = sys.behaviour._succ
    if root is None:
        found = sys._admits  # every candidate, so the sweep adds none
    else:
        found = {r: set() for r in sys._admits}  # the closure, per structure state
        for q, r in root if isinstance(root, frozenset) else (root,):
            found[r].add(q)
    todo = {r: list(qs) for r, qs in found.items() if qs}
    while todo:
        r, qs = todo.popitem()
        region = sys._admits[r]
        seen = found[r]
        for q in qs:  # grows by the steady successors found at r
            succs = succ[q]
            if not region.isdisjoint(succs):  # steady at r
                if root:
                    for q2 in succs:
                        if q2 in region and q2 not in seen:
                            seen.add(q2)
                            qs.append(q2)
                continue
            moves = [runs for q2 in succs if (runs := _runs(sys, q2, r))]
            clauses = [runs[0][0] if len(runs) == 1  # a lone walk's tuple, shared by every pair
                       else tuple([m for ends, _ in runs for m in ends]) for runs in moves]
            table[q, r] = clauses, all(finite for runs in moves for _, finite in runs)
            if root:
                for c in clauses:
                    for x, t in c:
                        if x not in found[t]:
                            found[t].add(x)
                            todo.setdefault(t, []).append(x)
    sys._moves[root] = table
    return table


def _adapting(sys, kind, root=None):
    """Map each adapting pair of :func:`_moves` to its clauses under
    ``kind`` (none for a behaviour deadlock): its weak clauses, or for
    strong the empty clause when a run need not end, else one clause per
    member of a weak one."""
    if kind not in (WEAK, STRONG):
        raise ModelError(f"unknown adaptability kind {kind!r}")
    if kind == WEAK:
        return {p: clauses for p, (clauses, _) in _moves(sys, root).items()}
    return {p: [(m,) for c in clauses for m in c] if finite else [()]
            for p, (clauses, finite) in _moves(sys, root).items()}


def _predecessors(beh):
    """Behaviour state -> the states with a transition into it."""
    pred = {q: [] for q in beh.states}
    for q, s in beh.transitions:
        pred[s].append(q)
    return pred


def _refuted(sys, kind, root=None):
    """The pairs that the clauses of ``_adapting(sys, kind, root)`` and the
    steady moves refute.  All lie outside the ``kind`` relation; they are
    every candidate outside it, or with a ``root`` (see :func:`_moves`), at
    least every pair of its closure outside it (see the module docstring)."""
    require_well_formed(sys)
    table = _adapting(sys, kind, root)
    todo = [p for p, clauses in table.items() if () in clauses]
    if not todo:
        return set()  # no count can reach 0 and no steady successor drops
    watch = {}  # member -> the counters of the clauses it is in
    count = []  # live members of each clause
    owner = []  # the pair each counter belongs to
    for p, clauses in table.items():
        for c in clauses:
            members = set(c)
            for m in members:
                watch.setdefault(m, []).append(len(count))
            count.append(len(members))
            owner.append(p)
    pred = _predecessors(sys.behaviour)
    dropped = set()
    while todo:
        s, r = p = todo.pop()
        if p in dropped:
            continue
        dropped.add(p)
        for w in watch.get(p, ()):
            count[w] -= 1
            if not count[w]:
                todo.append(owner[w])
        region = sys.constraint_region(r)
        todo.extend((q, r) for q in pred[s] if q in region)  # steady at r, as s is in region
    return dropped


def _relation(sys, kind):
    return AdaptRelation(kind, candidate_pairs(sys) - _refuted(sys, kind))


def weak_relation(sys):
    """Greatest relation for the existential (some adaptation run) reading."""
    return _relation(sys, WEAK)


def strong_relation(sys):
    """Greatest relation for the universal (all adaptation runs) reading."""
    return _relation(sys, STRONG)


def adaptable(sys, kind):
    """Whether the initial pair is in the ``kind`` relation, solving only what it needs."""
    init = (sys.behaviour.init, sys.structure.init)
    return init not in _refuted(sys, kind, init)


def is_weak_adaptable(sys):
    return adaptable(sys, WEAK)


def equiv_partition(sys, kind):
    """Group behaviour states with identical rows of the chosen relation.

    Two states land in one block exactly when they are adaptable to the
    same set of structure states.
    """
    dropped = {r: set() for r in sys.structure.states}
    for q, r in _refuted(sys, kind):
        dropped[r].add(q)
    row_of = {q: [] for q in sys.behaviour.states}
    for r, qs in dropped.items():
        for q in sys.constraint_region(r) - qs:
            row_of[q].append(r)
    rows = {}
    for q, row in row_of.items():
        rows.setdefault(tuple(row), []).append(q)
    # states are sorted, so each block lists its least state first
    return EquivPartition(kind, tuple(map(frozenset, sorted(rows.values()))))
