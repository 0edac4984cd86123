"""Weak and strong adaptability relations and the derived equivalences."""

import pytest

import gen
import oracles
import sbcheck.adapt as A
import sbcheck.formula as F
import sbcheck.model as M
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
    assert A.is_strong_adaptable(s0) is False
    assert A.is_weak_adaptable(s1) is True
    assert A.is_strong_adaptable(s1) is True


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


def test_result_is_a_fixpoint():
    for seed in range(40):
        sys = gen.random_system(seed)
        for kind in (A.WEAK, A.STRONG):
            pairs = A._relation(sys, kind).pairs
            table = A._clauses(sys, kind, A.candidate_pairs(sys))
            for p in pairs:
                assert all(not pairs.isdisjoint(c) for c in table[p])


def test_relation_rejects_unknown_kind(s0):
    with pytest.raises(ModelError):
        A._relation(s0, "loose")


def test_relation_requires_well_formed():
    obs = F.Observables([F.ObservableDecl("x", F.BoolDomain())])
    beh = M.BehaviourMachine(("a",), "a", frozenset())
    st = M.StructureMachine(("r",), "r", {"r": F.parse_formula("!x", obs)}, frozenset())
    sys = M.SBSystem("bad", obs, beh, st, M.ObservationMap({"a": {"x": True}}))
    with pytest.raises(ModelError):
        A.weak_relation(sys)


def test_single_state_system():
    obs = F.Observables([F.ObservableDecl("x", F.BoolDomain())])
    beh = M.BehaviourMachine(("a",), "a", frozenset())
    st = M.StructureMachine(("r",), "r", {"r": F.parse_formula("x", obs)}, frozenset())
    sys = M.SBSystem("one", obs, beh, st, M.ObservationMap({"a": {"x": True}}))
    assert A.weak_relation(sys).pairs == {("a", "r")}
    assert A.strong_relation(sys).pairs == {("a", "r")}
    assert A.is_weak_adaptable(sys) and A.is_strong_adaptable(sys)


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
    # a sweep over the whole table drops one pair per round: quadratic
    visits = 0

    class Counted(tuple):
        """A clause that counts how often its members are read."""

        def __iter__(self):
            nonlocal visits
            for m in tuple.__iter__(self):
                visits += 1
                yield m

        def __getitem__(self, i):
            nonlocal visits
            visits += 1
            return tuple.__getitem__(self, i)

    clauses = A._clauses

    def counted(sys, kind, roots):
        return {p: [Counted(c) for c in cs] for p, cs in clauses(sys, kind, roots).items()}

    monkeypatch.setattr(A, "_clauses", counted)
    for n in (500, 1000, 2000):
        sys = drop_cascade(n)
        for kind in (A.WEAK, A.STRONG):
            visits = 0
            pairs = A._relation(sys, kind).pairs
            assert visits <= 3 * n, (n, kind)
            if n == 2000:
                assert pairs == {(f"q{i}", "r1") for i in range(n)}, kind
                assert not A.adaptable(sys, kind)


def test_local_solve_agrees_with_the_global_relation():
    for seed in range(1000):
        sys = gen.random_system(seed)
        cand = A.candidate_pairs(sys)
        for kind in (A.WEAK, A.STRONG):
            pairs = A._relation(sys, kind).pairs
            for p in sorted(cand):
                table = A._clauses(sys, kind, [p])
                assert all(m in table for cs in table.values() for c in cs for m in c), (seed, p)
                assert (p in A._solve(table)) == (p in pairs), (seed, kind, p)
            table = A._clauses(sys, kind, cand)
            assert all(m in table for cs in table.values() for c in cs for m in c), seed


def test_initial_pair_verdicts_match_the_oracle():
    for seed in range(1000):
        sys = gen.random_system(seed)
        init = (sys.behaviour.init, sys.structure.init)
        assert A.is_weak_adaptable(sys) == (init in oracles.relation_oracle(sys, strong=False)), seed
        assert A.is_strong_adaptable(sys) == (init in oracles.relation_oracle(sys, strong=True)), seed


def test_long_adaptation_chain_needs_no_recursion():
    sys = gen.adaptation_chain(3000)
    assert A.weak_relation(sys).holds_for("h", "r0")
    assert A.strong_relation(sys).holds_for("h", "r0")


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
