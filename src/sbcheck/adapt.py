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


def _clauses(sys, kind):
    """Map each candidate pair to the clauses it needs under ``kind``."""
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
    for q, r in candidate_pairs(sys):
        succs = sys.behaviour.successors(q)
        region = sys.constraint_region(r)
        # adaptation cannot start while a steady move exists; successors
        # outside the constraint are never entered from here, and a
        # behaviour deadlock needs nothing
        steady = [((q2, r),) for q2 in succs if q2 in region]
        table[q, r] = steady or [c for q2 in succs for c in adapting_into(q2, r)]
    return table


def _relation(sys, kind):
    require_well_formed(sys)
    table = _clauses(sys, kind)
    pairs = frozenset(table)
    while True:
        refined = frozenset(p for p in pairs if all(not pairs.isdisjoint(c) for c in table[p]))
        if len(refined) == len(pairs):
            return AdaptRelation(kind, pairs)
        pairs = refined


def weak_relation(sys):
    """Greatest relation for the existential (some adaptation run) reading."""
    return _relation(sys, WEAK)


def strong_relation(sys):
    """Greatest relation for the universal (all adaptation runs) reading."""
    return _relation(sys, STRONG)


def is_weak_adaptable(sys):
    rel = weak_relation(sys)
    return rel.holds_for(sys.behaviour.init, sys.structure.init)


def is_strong_adaptable(sys):
    rel = strong_relation(sys)
    return rel.holds_for(sys.behaviour.init, sys.structure.init)


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
