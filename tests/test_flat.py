"""Flattened operational semantics: rules, classification and exports."""

import gc
import json
import pathlib
import random
import sys
from collections import Counter

import pytest

import gen
import oracles
import sbcheck.adapt as A
import sbcheck.flat as FL
import sbcheck.formula as F
import sbcheck.model as M
from sbcheck.compare import rerooted
from sbcheck.errors import ModelError
from sbcheck.ingest import bundled_model, loads

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402


def as_triple_set(flat):
    return {oracles.flat_state_triple(s) for s in flat.states}


def as_edge_set(flat):
    return {
        (
            oracles.flat_state_triple(t.source),
            oracles.flat_state_triple(t.target),
            oracles.flat_label_tuple(t.label),
        )
        for t in flat.transitions
    }


# ---------------------------------------------------------------------------
# frozen shape of the two bundled models


def test_flat_size_of_first_scenario(s0):
    flat = FL.flatten(s0)
    assert len(flat.states) == 16
    assert len(flat.transitions) == 19
    assert Counter(flat.classes) == {"steady": 4, "adapting": 9, "stuck": 3}


def test_flat_size_of_second_scenario(s1):
    flat = FL.flatten(s1)
    assert len(flat.states) == 10
    assert len(flat.transitions) == 11
    assert Counter(flat.classes) == {"steady": 4, "adapting": 6}


def test_initial_flat_state(s0):
    flat = FL.flatten(s0)
    assert flat.init_index == 0
    assert flat.states[0] == ("q011t", "r0", None)
    assert flat.classes[0] == FL.STEADY


def test_migrated_state_is_a_steady_deadend(s0):
    flat = FL.flatten(s0)
    i = flat.states.index(("moved", "r2", None))
    assert flat.classes[i] == FL.STEADY
    assert flat.succ[i] == ()


# ---------------------------------------------------------------------------
# agreement with the brute-force construction


def assert_matches_oracle(sys):
    flat = FL.flatten(sys)
    want = oracles.flat_oracle(sys)
    assert as_triple_set(flat) == want["states"]
    assert oracles.flat_state_triple(flat.states[flat.init_index]) == want["init"]
    assert as_edge_set(flat) == want["transitions"]
    got_classes = {
        oracles.flat_state_triple(s): c for s, c in zip(flat.states, flat.classes)
    }
    assert got_classes == want["classes"]


def test_matches_oracle_on_bundled_models(s0, s1):
    assert_matches_oracle(s0)
    assert_matches_oracle(s1)


def test_matches_oracle_on_random_systems():
    for seed in range(150):
        assert_matches_oracle(gen.random_system(seed))


# ---------------------------------------------------------------------------
# rule-level soundness on bundled and random systems


def systems_under_test():
    yield oracles.predator_system("predator_s0")
    yield oracles.predator_system("predator_s1")
    for seed in range(40):
        yield gen.random_system(seed)


def is_steady_move(t):
    return t.source[2] is None and t.target[2] is None


def test_steady_and_adapt_moves_never_mix():
    # a state offering a steady move never offers an adaptation move too
    for sys in systems_under_test():
        flat = FL.flatten(sys)
        for i, (_, _, pending) in enumerate(flat.states):
            steady = {pending is None and flat.states[j][2] is None for j in flat.succ[i]}
            assert len(steady) <= 1


def test_flatten_steps_by_the_successor_rule():
    # flatten and successors() (which simulate walks) share one step rule:
    # the edges out of every state, multi-root, are its successors in order
    for seed in range(200):
        sys = gen.random_system(seed)
        flat = FL.flatten(sys, sorted(A.candidate_pairs(sys)))
        for i, state in enumerate(flat.states):
            assert [flat.states[j] for j in flat.succ[i]] == FL.successors(sys, state), (seed, state)


def test_flat_states_are_left_to_reference_counting():
    # a flat state is a tuple of atoms, which a collection untracks, so the
    # cyclic collector does not traverse the states of a live flat system
    system = loads(workloads.model_text("chain", 1))
    flat = FL.flatten(system)
    read = FL.import_json(FL.export_json(flat), system)
    stepped = [t for s in flat.states for t in FL.successors(system, s)]
    gc.collect()
    for states in (flat.states, read.states, stepped):
        assert states and not any(map(gc.is_tracked, states))


def test_steady_rule_soundness():
    for sys in systems_under_test():
        flat = FL.flatten(sys)
        for t in flat.transitions:
            if not is_steady_move(t):
                continue
            (q, r, _), (q2, r2, _) = t.source, t.target
            assert t.label == ("steady", r)
            assert r == r2
            assert (q, q2) in sys.behaviour.transitions
            assert q2 in sys.constraint_region(r)


def test_adaptation_rule_soundness():
    for sys in systems_under_test():
        flat = FL.flatten(sys)
        for t in flat.transitions:
            if is_steady_move(t):
                continue
            (q, r, pending), (q2, r2, pending2) = t.source, t.target
            inv, target, _ = sys.options(r)[pending if pending2 is None else pending2]
            assert t.label == ("adapt", r, F.unparse(inv), target)
            if pending is None:
                # start: declared structure transition, all steady moves blocked
                assert (r, inv, target) in sys.structure.transitions
                assert r2 == r
                assert q2 in sys.region(inv)
                region = sys.constraint_region(r)
                assert not any(q3 in region for q3 in sys.behaviour.successors(q))
            elif pending2 is not None:
                # continue: stay inside the invariant, target not yet reached
                assert pending2 == pending
                assert r2 == r
                assert (q, q2) in sys.behaviour.transitions
                assert q2 in sys.region(inv)
                assert q not in sys.constraint_region(target)
            else:
                # end: structure switches underneath an unmoved behaviour state
                assert q2 == q
                assert r2 == target
                assert q in sys.constraint_region(target)


def test_stuck_states_have_pending_and_no_way_out():
    for sys in systems_under_test():
        flat = FL.flatten(sys)
        for i, (_, _, pending) in enumerate(flat.states):
            if flat.classes[i] == FL.STUCK:
                assert pending is not None
                assert flat.succ[i] == ()
            if flat.classes[i] == FL.STEADY:
                assert pending is None


def test_flatten_requires_well_formed():
    obs = F.Observables([F.ObservableDecl("x", F.BoolDomain())])
    beh = M.BehaviourMachine(("a",), "a", frozenset())
    st = M.StructureMachine(("r",), "r", {"r": F.typecheck(F.parse_raw("!x"), obs)}, frozenset())
    sys = M.SBSystem("bad", obs, beh, st, M.ObservationMap({"a": {"x": True}}))
    with pytest.raises(ModelError):
        FL.flatten(sys)


# ---------------------------------------------------------------------------
# JSON interchange


def test_json_roundtrip(s0, s1):
    for sys in (s0, s1):
        flat = FL.flatten(sys)
        text = FL.export_json(flat)
        assert FL.import_json(text, sys) == flat


def test_json_is_byte_stable(s0):
    a = FL.export_json(FL.flatten(s0))
    b = FL.export_json(FL.flatten(oracles.predator_system("predator_s0")))
    assert a == b


def test_json_reexport_is_identity(s1):
    text = FL.export_json(FL.flatten(s1))
    assert FL.export_json(FL.import_json(text, s1)) == text


def test_json_schema_shape(s0):
    doc = json.loads(FL.export_json(FL.flatten(s0)))
    assert set(doc) == {"states", "init", "transitions"}
    for row in doc["states"]:
        assert set(row) == {"id", "q", "r", "pending", "class"}
        assert row["class"] in ("steady", "adapting", "stuck")
        if row["pending"] is not None:
            assert set(row["pending"]) == {"inv", "target"}
    for row in doc["transitions"]:
        assert set(row) == {"from", "to", "kind", "r", "inv", "target"}
        if row["kind"] == "steady":
            assert row["inv"] is None and row["target"] is None
        else:
            assert row["kind"] == "adapt" and row["inv"] is not None
    assert doc["states"][doc["init"]]["q"] == "q011t"


def test_import_rejects_tampered_class(s0):
    doc = json.loads(FL.export_json(FL.flatten(s0)))
    doc["states"][0]["class"] = "stuck"
    with pytest.raises(ModelError):
        FL.import_json(json.dumps(doc), s0)


def test_import_rejects_bad_init(s0):
    doc = json.loads(FL.export_json(FL.flatten(s0)))
    doc["init"] = 99
    with pytest.raises(ModelError):
        FL.import_json(json.dumps(doc), s0)


def test_import_rejects_renumbered_states(s0):
    doc = json.loads(FL.export_json(FL.flatten(s0)))
    doc["states"][0]["id"] = 5
    with pytest.raises(ModelError):
        FL.import_json(json.dumps(doc), s0)


def test_import_rejects_duplicate_states(s0):
    doc = json.loads(FL.export_json(FL.flatten(s0)))
    doc["states"][1] = dict(doc["states"][0], id=1)
    with pytest.raises(ModelError, match="duplicate state"):
        FL.import_json(json.dumps(doc), s0)


@pytest.mark.parametrize("where, field, value", [
    ("transitions", "from", -1),
    ("transitions", "to", -2),
    ("transitions", "to", True),
    ("transitions", "kind", "bogus"),
    ("steady", "inv", "true"),
    ("steady", "target", "r0"),
    ("states", "id", False),
    ("doc", "init", True),
])
def test_import_rejects_what_it_cannot_write_back(s0, where, field, value):
    doc = json.loads(FL.export_json(FL.flatten(s0)))
    if where == "doc":
        row = doc
    elif where == "states":
        row = doc["states"][0]
    elif where == "steady":
        row = next(t for t in doc["transitions"] if t["kind"] == "steady")
    else:
        row = next(t for t in doc["transitions"] if t["kind"] == "adapt")
    row[field] = value
    with pytest.raises(ModelError, match="invalid flat JSON"):
        FL.import_json(json.dumps(doc), s0)


def test_import_with_system_checks_state_names(s0):
    doc = json.loads(FL.export_json(FL.flatten(s0)))
    doc["states"][3]["q"] = None
    doc["states"][4]["r"] = 7
    with pytest.raises(ModelError, match="JSON: state 3: unknown behaviour state None"):
        FL.import_json(json.dumps(doc), s0)
    doc["states"][3]["q"] = "q011t"
    with pytest.raises(ModelError, match="JSON: state 4: unknown structure state 7"):
        FL.import_json(json.dumps(doc), s0)


@pytest.mark.parametrize("where, field", [
    ("pending", "target"),
    ("steady", "r"),
    ("adapt", "r"),
    ("adapt", "target"),
])
def test_import_with_system_checks_structure_names(s0, where, field):
    doc = json.loads(FL.export_json(FL.flatten(s0)))
    if where == "pending":
        i = next(i for i, s in enumerate(doc["states"]) if s["pending"] is not None)
        doc["states"][i]["pending"][field] = "q011t"
        message = f"JSON: state {i}: pending .* is no structure transition out of"
    else:
        # a transition row names only what its endpoint states already give
        i = next(i for i, t in enumerate(doc["transitions"]) if t["kind"] == where)
        doc["transitions"][i][field] = "q011t"
        message = f"JSON: transition {i} disagrees with its endpoint states"
    with pytest.raises(ModelError, match=message):
        FL.import_json(json.dumps(doc), s0)


@pytest.mark.parametrize("field, new", [("target", "r0"), ("inv", "!(eat)")])
def test_import_rejects_a_pending_pair_that_is_no_structure_transition(s0, field, new):
    # change the pair (!eat, r2) everywhere: in the pending states and the rows that carry it
    doc = json.loads(FL.export_json(FL.flatten(s0)))
    for row in [s["pending"] for s in doc["states"]] + doc["transitions"]:
        if row and (row["inv"], row["target"]) == ("!eat", "r2"):
            row[field] = new
    i, state = next((i, s) for i, s in enumerate(doc["states"]) if s["pending"]
                    and s["pending"][field] == new)
    message = (f"invalid flat JSON: state {i}: pending {json.dumps(state['pending'])} "
               f"is no structure transition out of {state['r']!r}")
    with pytest.raises(ModelError) as e:
        FL.import_json(json.dumps(doc), s0)
    assert str(e.value) == message


# a flat system is read against a model equal to the one it was flattened
# from: that model itself, or the same model loaded from its .sbs file
@pytest.mark.parametrize("from_file", [False, True])
@pytest.mark.parametrize("kind, field, value", [
    ("steady", "r", "r2"),
    ("adapt", "inv", "true"),
    ("adapt", "target", "r0"),
])
def test_import_rejects_a_row_its_endpoints_do_not_give(s0, kind, field, value, from_file):
    doc = json.loads(FL.export_json(FL.flatten(s0)))
    i, row = next((i, t) for i, t in enumerate(doc["transitions"]) if t["kind"] == kind)
    assert row[field] != value
    row[field] = value
    message = (f"invalid flat JSON: transition {i} disagrees with its endpoint states "
               f"{row['from']} -> {row['to']}")
    with pytest.raises(ModelError) as e:
        FL.import_json(json.dumps(doc), bundled_model("predator_s0") if from_file else s0)
    assert str(e.value) == message


@pytest.mark.parametrize("from_file", [False, True])
def test_import_reports_a_bad_invariant_at_its_json_location(s0, from_file):
    system = bundled_model("predator_s0") if from_file else s0
    doc = json.loads(FL.export_json(FL.flatten(s0)))
    i = next(i for i, t in enumerate(doc["transitions"]) if t["kind"] == "adapt")
    doc["transitions"][i]["inv"] = "&&"
    t = doc["transitions"][i]
    message = (f"invalid flat JSON: transition {i} disagrees with its endpoint states "
               f"{t['from']} -> {t['to']}")
    with pytest.raises(ModelError) as e:
        FL.import_json(json.dumps(doc), system)
    assert str(e.value) == message
    doc = json.loads(FL.export_json(FL.flatten(s0)))
    i = next(i for i, s in enumerate(doc["states"]) if s["pending"] is not None)
    doc["states"][i]["pending"]["inv"] = "(eat"
    with pytest.raises(ModelError, match=f"invalid flat JSON: state {i}: pending .* is no "):
        FL.import_json(json.dumps(doc), system)


def test_import_with_system_typechecks_invariants(s0):
    doc = json.loads(FL.export_json(FL.flatten(s0)))
    # rename one invariant everywhere: in the pending states and the rows that carry it
    old = next(s["pending"]["inv"] for s in doc["states"] if s["pending"] is not None)
    text = json.dumps(doc).replace(json.dumps(old), json.dumps("bogus"))
    i = next(i for i, s in enumerate(doc["states"]) if s["pending"] and s["pending"]["inv"] == old)
    with pytest.raises(ModelError, match=f"invalid flat JSON: state {i}: pending .*bogus.* is no "):
        FL.import_json(text, s0)


def test_import_rejects_tables_that_are_not_lists(s0):
    doc = {"states": [{"id": 0, "q": "a", "r": "r", "pending": None, "class": "steady"}],
           "init": 0, "transitions": {}}
    with pytest.raises(ModelError, match="must be lists"):
        FL.import_json(json.dumps(doc), s0)


def test_import_rejects_non_json(s0):
    with pytest.raises(ModelError):
        FL.import_json("not json at all", s0)


def test_rooted_flatten_matches_rerooted_system():
    for seed in range(60):
        sys = gen.random_system(seed)
        for q, r in sorted(A.candidate_pairs(sys)):
            assert FL.flatten(sys, [(q, r)]) == FL.flatten(rerooted(sys, q, r)), (seed, q, r)


def test_roots_are_numbered_in_order(s0):
    roots = [("moved", "r2"), ("q011t", "r0")]
    flat = FL.flatten(s0, roots)
    assert flat.states[:2] == tuple((q, r, None) for q, r in roots)
    assert flat.init_index == 0
    assert set(flat.states) == set(FL.flatten(s0).states) | {("moved", "r2", None)}


def test_flatten_rejects_bad_roots(s0):
    with pytest.raises(ModelError, match="distinct roots"):
        FL.flatten(s0, [("q000f", "r0")])
    with pytest.raises(ModelError, match="distinct roots"):
        FL.flatten(s0, [("moved", "r2"), ("moved", "r2")])


def test_json_roundtrip_on_random_systems():
    for seed in range(30):
        flat = FL.flatten(gen.random_system(seed))
        assert FL.import_json(FL.export_json(flat), flat.system) == flat


def assert_written_as_json_dumps(flat):
    """``export_json`` is ``json.dumps(indent=2)`` of the state_json/edge_json
    rows; returns the text."""
    out = FL.export_json(flat)
    doc = json.loads(out)
    assert json.dumps(doc, indent=2) + "\n" == out
    sys = flat.system
    states = [{"id": i, **FL.state_json(sys, s), "class": flat.classes[i]}
              for i, s in enumerate(flat.states)]
    edges = [FL.edge_json(sys, flat.states, i, j) for i, j in flat.edges]
    assert [list(row.items()) for row in doc["states"]] == [list(row.items()) for row in states]
    assert [list(row.items()) for row in doc["transitions"]] == [list(row.items()) for row in edges]
    assert doc["init"] == flat.init_index
    return out


def test_json_is_laid_out_as_json_dumps():
    for seed in range(1000):
        assert_written_as_json_dumps(FL.flatten(gen.random_system(seed)))
    for which in ("predator_s0", "predator_s1"):
        assert_written_as_json_dumps(FL.flatten(bundled_model(which)))


def escaped_system(qs, transitions):
    """Behaviour states ``qs`` (name, x) and two structure states whose ids
    need JSON escapes: ``r "x"`` (constraint x) and ``r\\any`` (constraint
    true), with a transition each way."""
    obs = F.Observables([F.ObservableDecl("x", F.BoolDomain())])
    beh = M.BehaviourMachine(tuple(q for q, _ in qs), qs[0][0], frozenset(transitions))
    up, down = 'r "x"', "r\\any"
    labels = {up: F.parse_raw("x"), down: F.parse_raw("true")}  # SBSystem typechecks them
    strans = {(up, F.parse_raw("true"), down), (down, F.parse_raw("x"), up)}
    st = M.StructureMachine((up, down), up, labels, frozenset(strans))
    return M.SBSystem("escapes", obs, beh, st, M.ObservationMap({q: {"x": x} for q, x in qs}))


def test_json_escapes_names_and_writes_an_empty_move_list():
    quote, slash, tab, accent = 'say "hi"', "back\\slash", "tab\there", "caf\u00e9"
    cycle = escaped_system(
        [(quote, True), (slash, False), (tab, False), (accent, True)],
        [(quote, slash), (slash, tab), (tab, accent), (accent, quote)],
    )
    alone = escaped_system([(accent + tab, True)], [])
    for sys in (cycle, alone):
        flat = FL.flatten(sys)
        out = assert_written_as_json_dumps(flat)
        assert out.isascii()
        assert FL.import_json(out, sys) == flat
        assert FL.export_json(FL.import_json(out, sys)) == out
    flat = FL.flatten(cycle)
    assert {q for q, _, _ in flat.states} == {quote, slash, tab, accent}
    assert {r for _, r, _ in flat.states} == {'r "x"', "r\\any"}
    assert any(pending is not None for _, _, pending in flat.states)
    assert len(FL.flatten(alone).states) == 1
    assert FL.export_json(FL.flatten(alone)).endswith('"transitions": []\n}\n')


# ---------------------------------------------------------------------------
# DOT rendering


def test_dot_output_shape(s0):
    flat = FL.flatten(s0)
    dot = FL.export_dot(flat)
    assert dot.startswith("digraph flat {")
    assert dot.rstrip().endswith("}")
    import re

    body = [l.strip() for l in dot.splitlines()]
    node_lines = [l for l in body if re.match(r"n\d+ \[", l)]
    edge_lines = [l for l in body if "->" in l and "__init" not in l]
    assert len(node_lines) == len(flat.states)
    assert len(edge_lines) == len(flat.transitions)
    assert dot.count("peripheries=2") == 3  # stuck states double-bordered
    assert dot.count("style=filled") == sum(1 for _, _, pending in flat.states if pending is not None)
    assert f"__init -> n{flat.init_index};" in dot


def test_dot_is_deterministic(s1):
    a = FL.export_dot(FL.flatten(s1))
    b = FL.export_dot(FL.flatten(oracles.predator_system("predator_s1")))
    assert a == b


# quote, backslash, slash, control and non-ASCII characters
_JSON_CHARS = 'ab "\\/\n\t\x00\x1f\x7f\xe9\u20ac\U0001f600'


def _json_text(rng):
    return "".join(rng.choice(_JSON_CHARS) for _ in range(rng.randrange(5)))


def _json_doc(rng, depth=0):
    roll = rng.randrange(7 if depth < 4 else 4)
    if roll == 0:
        return _json_text(rng)
    if roll == 1:
        return rng.randint(-10**6, 10**6)
    if roll == 2:
        return rng.choice((True, False, None))
    if roll == 3:
        return []
    if roll < 6:
        return [_json_doc(rng, depth + 1) for _ in range(rng.randrange(5))]
    return {_json_text(rng): _json_doc(rng, depth + 1) for _ in range(rng.randrange(5))}


def test_json_writer_equals_the_indenting_json_dumps():
    rng = random.Random(31)
    docs = [_json_doc(rng) for _ in range(2000)] + [{}, [], {"": {}}, [[], [{}]]]
    assert sum(isinstance(d, dict) and len(d) > 1 for d in docs) > 100
    for doc in docs:
        assert FL._json(doc) == json.dumps(doc, indent=2)
