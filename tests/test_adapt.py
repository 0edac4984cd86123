"""Weak and strong adaptability relations and the derived equivalences."""

from collections import Counter

import pytest

import gen
import oracles
import sbcheck.adapt as A
import sbcheck.compare as C
import sbcheck.ctl as CTL
import sbcheck.formula as F
import sbcheck.model as M
from sbcheck._record import set_field
from sbcheck.errors import ModelError
from sbcheck.ingest import loads

R0_REGION = frozenset({"q000t", "q001t", "q010f", "q011f", "q011t"})
R1_REGION = frozenset({"q100t", "q101f", "q110t", "q111f"})


def pairs_of(region, r):
    return {(q, r) for q in region}


ALL_CANDIDATES = (
    pairs_of(R0_REGION, "r0") | pairs_of(R1_REGION, "r1") | {("moved", "r2")}
)


# ---------------------------------------------------------------------------
# frozen relations on the bundled models


def test_candidate_pairs(s0, s1):
    assert A.candidate_pairs(s0) == ALL_CANDIDATES
    assert A.candidate_pairs(s1) == ALL_CANDIDATES


def test_weak_relation_of_first_scenario(s0):
    rel = A.weak_relation(s0)
    assert rel.kind == "weak"
    assert rel.pairs == ALL_CANDIDATES


def test_strong_relation_of_first_scenario(s0):
    rel = A.strong_relation(s0)
    assert rel.pairs == {("moved", "r2")}


def test_relations_of_second_scenario(s1):
    expected = ALL_CANDIDATES - {("q000t", "r0"), ("q010f", "r0")}
    assert A.weak_relation(s1).pairs == expected
    assert A.strong_relation(s1).pairs == expected


def test_adaptability_verdicts(s0, s1):
    assert A.is_weak_adaptable(s0) is True
    assert A.adaptable(s0, A.STRONG) is False
    assert A.is_weak_adaptable(s1) is True
    assert A.adaptable(s1, A.STRONG) is True


# ---------------------------------------------------------------------------
# agreement with run enumeration


def test_matches_oracle_on_bundled_models(s0, s1):
    for sys in (s0, s1):
        assert A.weak_relation(sys).pairs == oracles.relation_oracle(sys, strong=False)
        assert A.strong_relation(sys).pairs == oracles.relation_oracle(sys, strong=True)


def test_matches_oracle_on_random_systems():
    for seed in range(150):
        sys = gen.random_system(seed)
        assert A.weak_relation(sys).pairs == oracles.relation_oracle(sys, strong=False), f"seed {seed} weak"
        assert A.strong_relation(sys).pairs == oracles.relation_oracle(sys, strong=True), f"seed {seed} strong"


# ---------------------------------------------------------------------------
# structural properties


def test_strong_is_contained_in_weak():
    for seed in range(60):
        sys = gen.random_system(seed)
        assert A.strong_relation(sys).pairs <= A.weak_relation(sys).pairs


def test_relations_live_inside_candidates():
    for seed in range(60):
        sys = gen.random_system(seed)
        cand = A.candidate_pairs(sys)
        assert A.weak_relation(sys).pairs <= cand


def steady_successors(sys, q, r):
    region = sys.constraint_region(r)
    return [(q2, r) for q2 in sys.behaviour.successors(q) if q2 in region]


def test_result_is_a_fixpoint():
    for seed in range(40):
        sys = gen.random_system(seed)
        cand = A.candidate_pairs(sys)
        for kind in (A.WEAK, A.STRONG):
            pairs = A._relation(sys, kind).pairs
            table = A._adapting(sys, kind)
            # clauses exist for exactly the pairs without a steady move
            assert set(table) == {(q, r) for q, r in cand if not steady_successors(sys, q, r)}
            assert all(not table[q, r] for q, r in table if not sys.behaviour.successors(q))
            for q, r in pairs:
                assert all(m in pairs for m in steady_successors(sys, q, r)), (seed, kind)
                assert all(not pairs.isdisjoint(c) for c in table.get((q, r), ())), (seed, kind)


def test_relation_rejects_unknown_kind(s0):
    with pytest.raises(ModelError):
        A._relation(s0, "loose")
    with pytest.raises(ModelError):
        A.equiv_partition(s0, "loose")


def test_ctl_side_rejects_unknown_kind(s0):
    # as the relation does, not as if asked for strong
    for call in (lambda: CTL.adaptability_formula("loose"),
                 lambda: C.pair_disagreements(s0, "loose")):
        with pytest.raises(ModelError, match="^unknown adaptability kind 'loose'$"):
            call()


def test_verdict_rejects_unknown_kind_without_an_adapting_pair():
    # the initial pair only moves steadily, so no adaptation clause is built
    obs = F.Observables([F.ObservableDecl("x", F.BoolDomain())])
    beh = M.BehaviourMachine(("a",), "a", frozenset({("a", "a")}))
    st = M.StructureMachine(("r",), "r", {"r": F.typecheck(F.parse_raw("x"), obs)}, frozenset())
    sys = M.SBSystem("steady", obs, beh, st, M.ObservationMap({"a": {"x": True}}))
    assert A.adaptable(sys, A.WEAK) and A.adaptable(sys, A.STRONG)
    with pytest.raises(ModelError):
        A.adaptable(sys, "loose")


def test_relation_requires_well_formed():
    obs = F.Observables([F.ObservableDecl("x", F.BoolDomain())])
    beh = M.BehaviourMachine(("a",), "a", frozenset())
    st = M.StructureMachine(("r",), "r", {"r": F.typecheck(F.parse_raw("!x"), obs)}, frozenset())
    sys = M.SBSystem("bad", obs, beh, st, M.ObservationMap({"a": {"x": True}}))
    with pytest.raises(ModelError):
        A.weak_relation(sys)


def test_single_state_system():
    obs = F.Observables([F.ObservableDecl("x", F.BoolDomain())])
    beh = M.BehaviourMachine(("a",), "a", frozenset())
    st = M.StructureMachine(("r",), "r", {"r": F.typecheck(F.parse_raw("x"), obs)}, frozenset())
    sys = M.SBSystem("one", obs, beh, st, M.ObservationMap({"a": {"x": True}}))
    assert A.weak_relation(sys).pairs == {("a", "r")}
    assert A.strong_relation(sys).pairs == {("a", "r")}
    assert A.is_weak_adaptable(sys) and A.adaptable(sys, A.STRONG)


def drop_cascade(n):
    """q0 -> .. -> q{n-1} -> z in r0 ("s"); only z fails "s", and adapting
    into it cycles at z, so (q{n-1}, r0) drops, then (q{n-2}, r0), .. in turn."""
    states = [f"  state q{i} {{s = true, d = false}}{' init' if i == 0 else ''};" for i in range(n)]
    steps = [f"  q{i} -> q{i + 1};" for i in range(n - 1)] + [f"  q{n - 1} -> z;", "  z -> z;"]
    return loads("\n".join([
        'system "cascade"', "observables {", "  s: bool;", "  d: bool;", "}", "behaviour {",
        *states, "  state z {s = false, d = false};", *steps, "}", "structure {",
        '  state r0: "s" init;', '  state r1: "d || s";', '  r0 -["!s"]-> r1;', "}",
    ]))


def test_drop_cascade_reads_each_clause_member_a_bounded_number_of_times(monkeypatch):
    # a sweep over the whole table drops one pair per round: quadratic.
    # Steady moves are read back through predecessor lists, so those
    # reads count as well as the members of adaptation clauses.
    visits = 0

    class Counted(tuple):
        """A clause or predecessor list that counts how often its members are read."""

        def __iter__(self):
            nonlocal visits
            for m in tuple.__iter__(self):
                visits += 1
                yield m

        def __getitem__(self, i):
            nonlocal visits
            visits += 1
            return tuple.__getitem__(self, i)

    adapting, predecessors = A._adapting, A._predecessors

    def counted_clauses(*args):
        return {p: [Counted(c) for c in cs] for p, cs in adapting(*args).items()}

    def counted_predecessors(beh):
        return {s: Counted(qs) for s, qs in predecessors(beh).items()}

    monkeypatch.setattr(A, "_adapting", counted_clauses)
    monkeypatch.setattr(A, "_predecessors", counted_predecessors)
    for n in (500, 1000, 2000):
        sys = drop_cascade(n)
        for kind in (A.WEAK, A.STRONG):
            visits = 0
            pairs = A._relation(sys, kind).pairs
            assert 0 < visits <= 3 * n, (n, kind)
            if n == 2000:
                assert pairs == {(f"q{i}", "r1") for i in range(n)}, kind
                assert not A.adaptable(sys, kind)


def closure(sys, root):
    """The pairs ``root`` reaches through steady successors and, from a pair
    without one, the endpoints of every branch entered at any successor,
    whatever the kind."""
    seen = {root}
    todo = [root]
    while todo:
        q, r = todo.pop()
        for m in steady_successors(sys, q, r) or [
            m for q2 in sys.behaviour.successors(q)
            for k, (_, _, region) in enumerate(sys.options(r)) if q2 in region
            for m in A._branch(sys, q2, r, k)[0]
        ]:
            if m not in seen:
                seen.add(m)
                todo.append(m)
    return seen


def test_local_solve_agrees_with_the_global_relation():
    for seed in range(1000):
        sys = gen.random_system(seed)
        cand = A.candidate_pairs(sys)
        for kind in (A.WEAK, A.STRONG):
            pairs = A._relation(sys, kind).pairs
            full = A._adapting(sys, kind)
            for p in sorted(cand):
                table = A._adapting(sys, kind, p)
                # the adapting pairs of p's kind-independent closure, with the same clauses
                assert table.keys() == closure(sys, p) & full.keys(), (seed, kind, p)
                assert all(full[a] == cs for a, cs in table.items()), (seed, kind, p)
                assert (p not in A._refuted(sys, kind, p)) == (p in pairs), (seed, kind, p)


def test_initial_pair_verdicts_match_the_oracle():
    for seed in range(1000):
        sys = gen.random_system(seed)
        init = (sys.behaviour.init, sys.structure.init)
        assert A.is_weak_adaptable(sys) == (init in oracles.relation_oracle(sys, strong=False)), seed
        assert A.adaptable(sys, A.STRONG) == (init in oracles.relation_oracle(sys, strong=True)), seed


def with_copies(sys):
    """``sys`` plus a copy ``q'`` of every behaviour state q, with q's
    valuation and successors and no predecessor."""
    beh = sys.behaviour
    copy = {q: q + "'" for q in beh.states}
    table = dict(sys.observation.table)
    table.update({copy[q]: sys.observe(q) for q in beh.states})
    moves = beh.transitions | {(copy[q], s) for q, s in beh.transitions}
    return M.SBSystem(
        sys.name, sys.observables,
        M.BehaviourMachine(beh.states + tuple(copy.values()), beh.init, moves),
        sys.structure, M.ObservationMap(table),
    ), copy


def test_a_copied_state_shares_the_relation_and_the_block_of_its_original():
    # a copy has its original's clauses and nothing depends on it, so the
    # relation on the original pairs stays and each copy follows its original
    systems = [gen.random_system(seed) for seed in range(200)]
    systems.append(gen.random_system(25, max_q=4000))
    assert len(systems[-1].behaviour.states) >= 2000
    for sys in systems:
        copied, copy = with_copies(sys)
        for kind in (A.WEAK, A.STRONG):
            pairs = A._relation(sys, kind).pairs
            assert A._relation(copied, kind).pairs == pairs | {(copy[q], r) for q, r in pairs}
            assert A.adaptable(copied, kind) == A.adaptable(sys, kind)
            blocks = A.equiv_partition(sys, kind).blocks
            assert set(A.equiv_partition(copied, kind).blocks) == {
                b | {copy[q] for q in b} for b in blocks
            }


def test_long_adaptation_chain_needs_no_recursion():
    sys = gen.adaptation_chain(3000)
    assert A.weak_relation(sys).holds_for("h", "r0")
    assert A.strong_relation(sys).holds_for("h", "r0")


# ---------------------------------------------------------------------------
# adaptation branches


def branch_system(edges, goals=()):
    """h must adapt at once into the run from ``e`` along ``edges``: r0 ("x")
    adapts along "!x" to r1 ("y"), x holds only at h and y only at ``goals``."""
    obs = F.Observables([F.ObservableDecl("x", F.BoolDomain()), F.ObservableDecl("y", F.BoolDomain())])
    states = {"h", "e"} | {q for edge in edges for q in edge}
    beh = M.BehaviourMachine(states, "h", frozenset({("h", "e"), *edges}))
    labels = {"r0": F.parse_raw("x"), "r1": F.parse_raw("y")}  # SBSystem typechecks them
    st = M.StructureMachine(("r0", "r1"), "r0", labels, frozenset({("r0", F.parse_raw("!x"), "r1")}))
    table = {q: {"x": q == "h", "y": q in goals} for q in states}
    return M.SBSystem("branch", obs, beh, st, M.ObservationMap(table))


def counted_walk(sys, start):
    """The branch from ``start`` along r0's option, and how often it read
    each behaviour state's successor list."""
    reads = Counter()

    class CountedSucc(dict):
        def __getitem__(self, q):
            reads[q] += 1
            return dict.__getitem__(self, q)

    set_field(sys.behaviour, "_succ", CountedSucc(sys.behaviour._succ))
    return A._branch(sys, start, "r0", 0), reads


def assert_branch_matches_the_oracle(sys, start, r, k):
    inv, target, _ = sys.options(r)[k]
    ends, finite = A._branch(sys, start, r, k)
    endpoints, oracle_finite = oracles.branch_oracle(sys, start, inv, target)
    assert len(ends) == len(set(ends)), (start, r, k)
    assert set(ends) == {(x, target) for x in endpoints}, (start, r, k)
    assert finite == oracle_finite, (start, r, k)


def test_branch_walks_match_the_oracle_on_random_systems():
    for max_q, seeds in ((8, 4000), (24, 1500), (64, 300)):
        for seed in range(seeds):
            sys = gen.random_system(seed, max_q=max_q)
            for r in sys.structure.states:
                for k, (_, _, region) in enumerate(sys.options(r)):
                    for q in sorted(region):
                        assert_branch_matches_the_oracle(sys, q, r, k)


@pytest.mark.parametrize("edges, goals, ends, finite, most_reads", [
    # most_reads: 1 when only the reach pass reads, 2 when a peel follows it
    # a tree: no state is reached twice, so no peel runs, though two runs end at g
    ([("e", "a"), ("e", "b"), ("a", "g"), ("b", "c"), ("b", "g"), ("c", "f")], "gf", "gf", True, 1),
    # a diamond: runs join at c without a cycle
    ([("e", "a"), ("e", "b"), ("a", "c"), ("b", "c"), ("c", "g")], "g", "g", True, 2),
    # a cycle through the entry state
    ([("e", "a"), ("a", "e"), ("a", "g")], "g", "g", False, 1),  # e has an in-edge: no peel
    # a self-loop
    ([("e", "a"), ("a", "a"), ("a", "g")], "g", "g", False, 2),
    # a cycle away from the entry, behind a join-free prefix
    ([("e", "a"), ("e", "g"), ("a", "b"), ("b", "c"), ("c", "a"), ("c", "f")], "gf", "gf", False, 2),
    # a cycle away from the entry that every run can leave is still a cycle
    ([("e", "a"), ("a", "b"), ("b", "a"), ("b", "g"), ("a", "g")], "g", "g", False, 2),
    # a stuck state: b has no move, and c's only move leaves the invariant
    ([("e", "b"), ("e", "g")], "g", "g", False, 1),
    ([("e", "c"), ("e", "g"), ("c", "h")], "g", "g", False, 1),
    # the entry state already meets the target's constraint
    ([("e", "a")], "e", "e", True, 0),  # nothing is read
])
def test_branch_on_hand_built_runs(edges, goals, ends, finite, most_reads):
    sys = branch_system(edges, goals)
    assert_branch_matches_the_oracle(sys, "e", "r0", 0)
    (found, found_finite), reads = counted_walk(sys, "e")
    assert sorted(found) == [(x, "r1") for x in sorted(ends)]
    assert found_finite == finite
    assert max(reads.values(), default=0) == most_reads
    assert "g" not in reads and "h" not in reads


def ladder(n):
    """Runs from ``e`` that join at every rung: e, c{i} and d{i} each move
    to both c{i+1} and d{i+1}, and the last rung, i = n - 1, to the goal g."""
    edges = [("e", "c1"), ("e", "d1")]
    for i in range(1, n):
        for a in (f"c{i}", f"d{i}"):
            edges += [(a, f"c{i + 1}"), (a, f"d{i + 1}")] if i < n - 1 else [(a, "g")]
    return branch_system(edges, "g")


def test_branch_reads_each_successor_list_a_bounded_number_of_times():
    # the reach pass reads each reached non-goal state's moves once, and a
    # peel, which runs only where runs join, once more
    for n in (1000, 2000, 4000):
        sys = gen.adaptation_chain(n)
        (ends, finite), reads = counted_walk(sys, "a0")
        assert (ends, finite) == (((f"a{n - 1}", "r1"),), True)
        # no state is reached twice on a chain: one read per non-goal state
        assert reads == {f"a{i}": 1 for i in range(n - 1)}, n

        sys = ladder(n)
        (ends, finite), reads = counted_walk(sys, "e")
        assert (ends, finite) == ((("g", "r1"),), True)
        # runs join at every rung, so the peel reads each list once more
        assert len(reads) == 2 * n - 1 and max(reads.values()) == 2, n
        assert sum(reads.values()) == 2 * len(reads), n


# ---------------------------------------------------------------------------
# equivalence partitions


def blocks_as_sets(partition):
    return [set(b) for b in partition.blocks]


def test_partition_shape_invariants():
    for seed in range(40):
        sys = gen.random_system(seed)
        for kind in (A.WEAK, A.STRONG):
            part = A.equiv_partition(sys, kind)
            seen = set()
            for b in part.blocks:
                assert b, "empty block"
                assert not (b & seen), "blocks overlap"
                seen |= b
            assert seen == set(sys.behaviour.states)


def test_weak_partition_of_first_scenario(s0):
    part = A.equiv_partition(s0, A.WEAK)
    assert blocks_as_sets(part) == [
        {"moved"},
        {"q000f", "q001f", "q100f", "q110f"},
        {"q000t", "q001t", "q010f", "q011f", "q011t"},
        {"q100t", "q101f", "q110t", "q111f"},
    ]


def test_strong_partition_of_first_scenario(s0):
    part = A.equiv_partition(s0, A.STRONG)
    assert blocks_as_sets(part) == [
        {"moved"},
        {
            "q000f", "q000t", "q001f", "q001t", "q010f", "q011f", "q011t",
            "q100f", "q100t", "q101f", "q110f", "q110t", "q111f",
        },
    ]


def test_partitions_of_second_scenario(s1):
    expected = [
        {"moved"},
        {"q000f", "q000t", "q001f", "q010f", "q100f", "q110f"},
        {"q001t", "q011f", "q011t"},
        {"q100t", "q101f", "q110t", "q111f"},
    ]
    assert blocks_as_sets(A.equiv_partition(s1, A.WEAK)) == expected
    assert blocks_as_sets(A.equiv_partition(s1, A.STRONG)) == expected


def test_partition_refines_relation_rows():
    # states in one block are adaptable to exactly the same structure states
    for seed in range(30):
        sys = gen.random_system(seed)
        rel = A.weak_relation(sys)
        part = A.equiv_partition(sys, A.WEAK)
        for block in part.blocks:
            rows = {
                frozenset(r for (q2, r) in rel.pairs if q2 == q) for q in block
            }
            assert len(rows) == 1
