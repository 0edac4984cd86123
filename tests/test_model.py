"""System assembly, constraint regions and well-formedness checks."""

import collections
import random

import pytest

import gen
import oracles
import sbcheck.adapt as A
import sbcheck.compare as K
import sbcheck.formula as F
import sbcheck.model as M
from sbcheck.errors import ModelError
from sbcheck.ingest import loads, save


# ---------------------------------------------------------------------------
# construction validation


def tiny_parts():
    obs = F.Observables([F.ObservableDecl("x", F.BoolDomain())])
    beh = M.BehaviourMachine(("a", "b"), "a", frozenset({("a", "b")}))
    st = M.StructureMachine(
        ("r",), "r", {"r": F.typecheck(F.parse_raw("x"), obs)}, frozenset()
    )
    om = M.ObservationMap({"a": {"x": True}, "b": {"x": False}})
    return obs, beh, st, om


def test_assembly():
    obs, beh, st, om = tiny_parts()
    sys = M.SBSystem("tiny", obs, beh, st, om)
    assert sys.observe("a") == {"x": True}
    assert M.check_well_formed(sys).ok


def test_behaviour_machine_validation():
    with pytest.raises(ModelError):
        M.BehaviourMachine(("a", "a"), "a", frozenset())
    with pytest.raises(ModelError):
        M.BehaviourMachine(("a",), "b", frozenset())
    with pytest.raises(ModelError):
        M.BehaviourMachine(("a",), "a", frozenset({("a", "c")}))


def test_behaviour_successors_sorted_and_total():
    beh = M.BehaviourMachine(
        ("a", "b", "c"), "a", frozenset({("a", "c"), ("a", "b"), ("b", "a")})
    )
    assert beh.successors("a") == ("b", "c")
    assert beh.successors("c") == ()
    with pytest.raises(ModelError):
        beh.successors("zzz")


def test_structure_machine_validation():
    obs = F.Observables([F.ObservableDecl("x", F.BoolDomain())])
    phi = F.typecheck(F.parse_raw("x"), obs)
    with pytest.raises(ModelError):
        M.StructureMachine(("r", "r"), "r", {"r": phi}, frozenset())
    with pytest.raises(ModelError):
        M.StructureMachine(("r",), "s", {"r": phi}, frozenset())
    with pytest.raises(ModelError):  # missing label
        M.StructureMachine(("r", "s"), "r", {"r": phi}, frozenset())
    with pytest.raises(ModelError):  # label for undeclared state
        M.StructureMachine(("r",), "r", {"r": phi, "s": phi}, frozenset())
    with pytest.raises(ModelError):  # dangling transition endpoint
        M.StructureMachine(("r",), "r", {"r": phi}, frozenset({("r", phi, "s")}))


def test_structure_out_transitions_ordered_by_invariant_text():
    obs = F.Observables([F.ObservableDecl("x", F.BoolDomain())])
    a = F.typecheck(F.parse_raw("!x"), obs)
    b = F.typecheck(F.parse_raw("x"), obs)
    st = M.StructureMachine(
        ("r", "s"),
        "r",
        {"r": b, "s": a},
        frozenset({("r", b, "s"), ("r", a, "s")}),
    )
    assert st.out_transitions("r") == ((a, "s"), (b, "s"))
    assert st.out_transitions("s") == ()


def test_observation_map_copies_each_valuation_once():
    shared = {"x": True}
    om = M.ObservationMap({"a": shared, "b": shared, "c": {"x": True}})
    assert om.table["a"] is om.table["b"]
    assert om.table["a"] is not shared and om.table["c"] is not om.table["a"]
    assert om.table == {"a": {"x": True}, "b": {"x": True}, "c": {"x": True}}


def test_system_rejects_missing_or_extra_observations():
    obs, beh, st, om = tiny_parts()
    with pytest.raises(ModelError):
        M.SBSystem("t", obs, beh, st, M.ObservationMap({"a": {"x": True}}))
    with pytest.raises(ModelError):
        M.SBSystem(
            "t",
            obs,
            beh,
            st,
            M.ObservationMap(
                {"a": {"x": True}, "b": {"x": False}, "zz": {"x": False}}
            ),
        )


def test_system_rejects_bad_valuations():
    obs, beh, st, om = tiny_parts()
    with pytest.raises(Exception):
        M.SBSystem("t", obs, beh, st, M.ObservationMap({"a": {"x": 1}, "b": {"x": False}}))
    with pytest.raises(Exception):
        M.SBSystem("t", obs, beh, st, M.ObservationMap({"a": {}, "b": {"x": False}}))
    with pytest.raises(ModelError, match="outside domain"):
        M.SBSystem("t", obs, beh, st, M.ObservationMap({"a": {"x": [True]}, "b": {"x": False}}))
    with pytest.raises(ModelError, match="value 0 of 'x' outside domain"):  # 0 == False
        M.SBSystem("t", obs, beh, st, M.ObservationMap({"a": {"x": False}, "b": {"x": 0}}))


def test_system_typechecks_structure_formulas():
    obs, beh, st, om = tiny_parts()
    bad = M.StructureMachine(("r",), "r", {"r": F.Name("nosuch")}, frozenset())
    with pytest.raises(Exception):
        M.SBSystem("t", obs, beh, bad, om)


def test_construction_is_idempotent_under_replace():
    sys = oracles.predator_system("predator_s0")
    again = M.SBSystem(sys.name, sys.observables, sys.behaviour, sys.structure, sys.observation)
    assert again.structure.labels == sys.structure.labels
    assert again.structure.transitions == sys.structure.transitions


def test_enum_values_in_raw_formulas_are_resolved_by_a_rebuilt_structure():
    obs = F.Observables([F.ObservableDecl("mode", F.EnumDomain(("idle", "busy"))),
                         F.ObservableDecl("x", F.BoolDomain())])
    table = {"a": {"mode": "idle", "x": True}, "b": {"mode": "busy", "x": True},
             "c": {"mode": "busy", "x": False}, "d": {"mode": "idle", "x": False}}
    beh = M.BehaviourMachine(("a", "b", "c", "d"), "a",
                             {("a", "b"), ("b", "c"), ("c", "a"), ("d", "d")})
    raw = F.parse_raw
    labels = {"r0": raw("mode == idle"), "r1": raw("mode != idle && x"),
              "r2": raw("idle == mode && !x")}
    # from a, adaptation starts along both branches out of r0: the one to r1
    # ends at b at once, the one to r2 gets stuck at c, whose successor
    # leaves the invariant
    st = M.StructureMachine(("r0", "r1", "r2"), "r0", labels,
                            [("r0", raw("mode == busy"), "r1"), ("r0", raw("busy == mode"), "r2")])
    sys = M.SBSystem("enums", obs, beh, st, M.ObservationMap(table))

    assert sys.structure is not st and st.labels == labels  # rebuilt, the given one untouched
    idle, busy, mode = F.EnumLit("idle"), F.EnumLit("busy"), F.Name("mode")
    assert labels["r0"] == F.Compare("==", mode, F.Name("idle"))
    assert sys.structure.label("r0") == F.Compare("==", mode, idle)
    assert sys.structure.label("r1") == F.And(F.Compare("!=", mode, idle), F.Name("x"))
    assert sys.structure.label("r2") == F.And(F.Compare("==", idle, mode), F.Not(F.Name("x")))
    assert [inv for _, inv, _ in sys.structure.transitions] == [
        F.Compare("==", busy, mode), F.Compare("==", mode, busy)]
    assert [sys.constraint_region(r) for r in ("r0", "r1", "r2")] == [{"a", "d"}, {"b"}, {"d"}]
    assert [(t, region) for _, t, region in sys.options("r0")] == [("r2", {"b", "c"}),
                                                                 ("r1", {"b", "c"})]
    assert sys.structure.out_texts("r0") == (("busy == mode", "r2"), ("mode == busy", "r1"))

    init = ("a", "r0")
    for kind, strong, holds in ((A.WEAK, False, True), (A.STRONG, True, False)):
        assert A.adaptable(sys, kind) is holds
        assert (init in oracles.relation_oracle(sys, strong)) is holds
        assert K.compare_methods(sys, kind) == K.MethodVerdicts(kind, holds, holds)
    assert loads(save(sys)) == sys


# ---------------------------------------------------------------------------
# regions


def test_constraint_regions_of_bundled_models():
    sys = oracles.predator_system("predator_s0")
    assert sys.constraint_region("r0") == frozenset(
        {"q000t", "q001t", "q010f", "q011f", "q011t"}
    )
    assert sys.constraint_region("r1") == frozenset(
        {"q100t", "q101f", "q110t", "q111f"}
    )
    assert sys.constraint_region("r2") == frozenset({"moved"})


def test_regions_partition_is_not_total():
    # hungry-with-no-prey states satisfy no constraint at all
    sys = oracles.predator_system("predator_s0")
    covered = set()
    for r in sys.structure.states:
        covered |= sys.constraint_region(r)
    uncovered = set(sys.behaviour.states) - covered
    assert uncovered == {"q000f", "q001f", "q100f", "q110f"}


def _region_formula(rng):
    """A random typed formula, now and then under a run of ``!`` or ending a ``->`` chain."""
    phi = gen.random_typed_formula(rng, 3)
    c = rng.randrange(3)
    if c == 0:
        for _ in range(rng.randint(2, 5)):
            phi = F.Not(phi)
    elif c == 1:
        phi = F.Implies(*[gen.random_typed_formula(rng, 1) for _ in range(rng.randint(2, 4))], phi)
    return phi


def test_region_matches_satisfies_pointwise():
    systems = [oracles.predator_system("predator_s1")] + [gen.random_system(s) for s in range(50)]
    rng = random.Random(5)
    for sys in systems:
        for r in sys.structure.states:
            phi = sys.structure.label(r)
            for q in sys.behaviour.states:
                assert (q in sys.constraint_region(r)) == oracles.evaluate(phi, sys.observe(q))
            options = sys.options(r)
            assert [(inv, t) for inv, t, _ in options] == list(sys.structure.out_transitions(r))
            for inv, _, region in options:
                want = {q for q in sys.behaviour.states if oracles.evaluate(inv, sys.observe(q))}
                assert region == want
        bools = [d.name for d in sys.observables.decls if isinstance(d.domain, F.BoolDomain)]
        for _ in range(10):
            phi = gen.random_bool_formula(rng, bools, 3)
            want = {q for q in sys.behaviour.states if oracles.evaluate(phi, sys.observe(q))}
            assert sys.region(phi) == want
    obs = gen.typed_observables()
    pool = [gen.random_valuation(rng) for _ in range(8)]
    table = {f"q{i}": rng.choice(pool) for i in range(40)}  # some states share a dict
    table.update({f"q{i}": dict(rng.choice(pool)) for i in range(40, 60)})
    beh = M.BehaviourMachine(tuple(table), "q0", frozenset())
    st = M.StructureMachine(("r",), "r", {"r": F.BoolLit(True)}, frozenset())
    sys = M.SBSystem("typed", obs, beh, st, M.ObservationMap(table))
    for case in range(300):
        phi = F.typecheck(_region_formula(rng), obs)
        assert sys.region(phi) == {q for q, v in table.items() if oracles.evaluate(phi, v)}, case


def test_region_evaluates_each_atom_once_per_class(monkeypatch):
    obs = F.Observables(
        [
            F.ObservableDecl("x", F.BoolDomain()),
            F.ObservableDecl("y", F.BoolDomain()),
            F.ObservableDecl("n", F.IntRange(0, 3)),
        ]
    )
    qs = [f"q{i}" for i in range(100)]
    table = {q: {"x": i % 2 == 0, "y": i % 3 == 0, "n": i % 4} for i, q in enumerate(qs)}
    phi = F.typecheck(F.parse_raw("!!!x && !y || n > 1 && (y -> x -> n == 3)"), obs)
    want = {q for q in qs if F.evaluate(phi, table[q])}
    evaluate = F.evaluate
    calls = collections.Counter()

    def counted(phi, v):
        calls[F.unparse(phi), id(v)] += 1
        return evaluate(phi, v)

    monkeypatch.setattr(F, "evaluate", counted)
    st = M.StructureMachine(("r",), "r", {"r": F.typecheck(F.parse_raw("x || !y"), obs)}, frozenset())
    beh = M.BehaviourMachine(tuple(qs), "q0", frozenset())
    sys = M.SBSystem("t", obs, beh, st, M.ObservationMap(table))
    for _ in range(3):
        assert sys.region(phi) == want
    assert len({v for _, v in calls}) == 8  # one valuation per class: n fixes x
    atoms = collections.defaultdict(list)
    for (text, _), n in calls.items():
        atoms[text].append(n)
    # boolean atoms are read off the valuations; a comparison is evaluated
    # once per class in each of the three calls
    assert atoms == {"n > 1": [3] * 8, "n == 3": [3] * 8}


def test_options_of_an_unknown_structure_state_are_an_error():
    sys = oracles.predator_system("predator_s0")
    for lookup in (sys.constraint_region, sys.options):
        with pytest.raises(ModelError, match="unknown structure state"):
            lookup("nosuch")


# ---------------------------------------------------------------------------
# well-formedness


def test_bundled_models_are_well_formed():
    for which in ("predator_s0", "predator_s1"):
        report = M.check_well_formed(oracles.predator_system(which))
        assert report.ok
        assert report.violations == ()


def test_unsatisfiable_label_is_reported():
    obs, beh, st, om = tiny_parts()
    contradiction = F.typecheck(F.parse_raw("x && !x"), obs)
    st2 = M.StructureMachine(
        ("r", "s"),
        "r",
        {"r": st.labels["r"], "s": contradiction},
        frozenset(),
    )
    sys = M.SBSystem("t", obs, beh, st2, om)
    report = M.check_well_formed(sys)
    assert not report.ok
    kinds = [(v.kind, v.subject) for v in report.violations]
    assert kinds == [("unsatisfiable-label", "s")]
    with pytest.raises(ModelError):
        M.require_well_formed(sys)


def test_initial_violation_is_reported():
    obs, beh, st, om = tiny_parts()
    st2 = M.StructureMachine(
        ("r",), "r", {"r": F.typecheck(F.parse_raw("!x"), obs)}, frozenset()
    )
    sys = M.SBSystem("t", obs, beh, st2, om)
    report = M.check_well_formed(sys)
    assert not report.ok
    assert [v.kind for v in report.violations] == ["initial-violation"]
    assert report.violations[0].subject == "r"


def test_both_violation_kinds_together():
    obs = F.Observables([F.ObservableDecl("x", F.BoolDomain())])
    beh = M.BehaviourMachine(("a",), "a", frozenset())
    st = M.StructureMachine(
        ("r",), "r", {"r": F.typecheck(F.parse_raw("x && !x"), obs)}, frozenset()
    )
    sys = M.SBSystem("t", obs, beh, st, M.ObservationMap({"a": {"x": True}}))
    report = M.check_well_formed(sys)
    kinds = sorted(v.kind for v in report.violations)
    assert kinds == ["initial-violation", "unsatisfiable-label"]


def test_violation_messages_name_the_constraint():
    obs, beh, st, om = tiny_parts()
    st2 = M.StructureMachine(
        ("r",), "r", {"r": F.typecheck(F.parse_raw("x && !x"), obs)}, frozenset()
    )
    sys = M.SBSystem("t", obs, beh, st2, om)
    report = M.check_well_formed(sys)
    assert "x && !x" in report.violations[0].message
