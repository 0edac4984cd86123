"""Weak and strong adaptability as greatest-fixpoint relations on (q, r) pairs.

Each candidate pair (q, r), with q satisfying the constraint of r, is
mapped once to the clauses it needs: tuples of candidate pairs of which
at least one must survive (an empty clause never holds).  Starting from
all candidates, pairs with an unmet clause are dropped until stable.  The
clauses cover each move the flat semantics can take from (q, r, no-pending):

* every steady successor q2 needs the pair (q2, r);
* when no steady move exists, adaptation branches ``inv => t`` are walked
  from each behaviour successor they admit, through ``inv`` states, to
  the endpoints satisfying the constraint of t.  The weak relation needs,
  per successor some branch admits, one endpoint pair (x, t) of any such
  branch.  The strong relation needs every such branch to end on all
  runs, with every endpoint pair surviving.

Behaviour successors the flat semantics cannot move to (they violate the
active constraint while a steady move exists, or satisfy no enabled
invariant) impose no requirement.

Clauses are built on demand from a set of roots, giving a table closed
under clause members, and solved by a counter worklist (Liu & Smolka,
ICALP 1998): each clause counts its live members, each pair lists the
clauses it is a member of, and a dropped pair decrements those counts, so
a pair drops once, when it has an empty clause or a count reaches 0.  The
relation roots the table at every candidate pair; a verdict roots it at
the initial pair alone.  On a closed table D the two agree, because with G
the global relation and L the one on D, G ∩ D satisfies every clause in D
(so G ∩ D ⊆ L) and L ∪ G satisfies every clause (so L ⊆ G): L = G ∩ D.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ModelError
from .model import require_well_formed

WEAK = "weak"
STRONG = "strong"


@dataclass(frozen=True)
class AdaptRelation:
    kind: str  # 'weak' or 'strong'
    pairs: frozenset  # of (q, r)

    def holds_for(self, q, r):
        return (q, r) in self.pairs


@dataclass(frozen=True)
class EquivPartition:
    kind: str
    blocks: tuple  # of frozensets of behaviour states


def candidate_pairs(sys):
    """The refinement start: every (q, r) with q satisfying the constraint of r."""
    return frozenset(
        (q, r) for r in sys.structure.states for q in sys.constraint_region(r)
    )


def _branch(sys, start, inv_region, target):
    """Where an adaptation branch into ``target`` entered at ``start`` can end.

    Walks from ``start`` through ``inv_region``, the states satisfying the
    branch's invariant, and stops at states satisfying the target
    constraint.  Returns ``(endpoints, finite)``: the goal states reached,
    and whether every run reaches one.
    A run does not when it meets a non-goal state with no move left
    (stuck) or a cycle of non-goal states.
    """
    goal = sys.constraint_region(target)
    succ = sys.behaviour.successors
    endpoints = set()
    finite = True
    seen = set()
    on_path = set()
    stack = [(None, iter((start,)))]
    while stack:
        x, moves = stack[-1]
        for y in moves:
            if y in goal:
                endpoints.add(y)
            elif y in on_path:
                finite = False  # a cycle of non-goal states
            elif y not in seen:
                seen.add(y)
                on_path.add(y)
                ys = [z for z in succ(y) if z in inv_region]
                finite = finite and bool(ys)  # no move left: stuck
                stack.append((y, iter(ys)))
                break
        else:
            stack.pop()
            on_path.discard(x)
    return endpoints, finite


def _clauses(sys, kind, roots):
    """Map ``roots``, and every pair their clauses reach, to its clauses under ``kind``."""
    if kind not in (WEAK, STRONG):
        raise ModelError(f"unknown adaptability kind {kind!r}")
    needs = {}  # (q2, r) -> clauses that adapting from r into q2 adds

    def adapting_into(q2, r):
        if (q2, r) not in needs:
            runs = [
                (t, *_branch(sys, q2, region, t)) for _, t, region in sys.options(r) if q2 in region
            ]
            if kind == WEAK:
                needs[q2, r] = [tuple((x, t) for t, ends, _ in runs for x in ends)] if runs else []
            elif all(finite for _, _, finite in runs):
                needs[q2, r] = [((x, t),) for t, ends, _ in runs for x in ends]
            else:
                needs[q2, r] = [()]
        return needs[q2, r]

    table = {}
    todo = list(roots)
    seen = set(todo)
    while todo:
        q, r = p = todo.pop()
        succs = sys.behaviour.successors(q)
        region = sys.constraint_region(r)
        # adaptation cannot start while a steady move exists; successors
        # outside the constraint are never entered from here, and a
        # behaviour deadlock needs nothing
        steady = [((q2, r),) for q2 in succs if q2 in region]
        table[p] = clauses = steady or [c for q2 in succs for c in adapting_into(q2, r)]
        for c in clauses:
            for m in c:
                if m not in seen:
                    seen.add(m)
                    todo.append(m)
    return table


def _solve(table):
    """The greatest set of pairs of a closed table whose every clause keeps a member."""
    dropped = [p for p, clauses in table.items() if () in clauses]
    if not dropped:
        return frozenset(table)  # no count can reach 0
    watch = {p: [] for p in table}  # member -> its dependent pairs or counters
    count = []  # live members of each clause with more than one
    owner = []  # the pair each counter belongs to
    for p, clauses in table.items():
        for c in clauses:
            if len(c) == 1:
                watch[c[0]].append(p)
            elif c:
                members = dict.fromkeys(c)
                for m in members:
                    watch[m].append(len(count))
                count.append(len(members))
                owner.append(p)
    live = set(table)
    while dropped:
        p = dropped.pop()
        if p in live:
            live.remove(p)
            for w in watch[p]:
                if w.__class__ is int:
                    count[w] -= 1
                    if count[w]:
                        continue
                    w = owner[w]
                dropped.append(w)
    return frozenset(live)


def _relation(sys, kind):
    require_well_formed(sys)
    return AdaptRelation(kind, _solve(_clauses(sys, kind, candidate_pairs(sys))))


def weak_relation(sys):
    """Greatest relation for the existential (some adaptation run) reading."""
    return _relation(sys, WEAK)


def strong_relation(sys):
    """Greatest relation for the universal (all adaptation runs) reading."""
    return _relation(sys, STRONG)


def adaptable(sys, kind):
    """Whether the initial pair is in the ``kind`` relation, solving only what it needs."""
    require_well_formed(sys)
    init = (sys.behaviour.init, sys.structure.init)
    return init in _solve(_clauses(sys, kind, [init]))


def is_weak_adaptable(sys):
    return adaptable(sys, WEAK)


def is_strong_adaptable(sys):
    return adaptable(sys, STRONG)


def equiv_partition(sys, kind):
    """Group behaviour states with identical rows of the chosen relation.

    Two states land in one block exactly when they are adaptable to the
    same set of structure states.
    """
    rel = _relation(sys, kind)
    row_of = {q: set() for q in sys.behaviour.states}
    for q, r in rel.pairs:
        row_of[q].add(r)
    rows = {}
    for q, row in row_of.items():
        rows.setdefault(frozenset(row), []).append(q)
    blocks = sorted((frozenset(qs) for qs in rows.values()), key=lambda b: min(b))
    return EquivPartition(kind, tuple(blocks))
