"""Temporal logic over the flat semantics: parser, checker and reference evaluator."""

import json
import random

import pytest

import gen
import oracles
import sbcheck.ctl as C
import sbcheck.flat as FL
from sbcheck import ingest
from sbcheck.errors import CtlError


def flat_of(sys):
    return FL.flatten(sys)


# ---------------------------------------------------------------------------
# parsing and printing


def test_named_formulas_print_canonically():
    assert C.unparse_ctl(C.weak_formula()) == "EG(adapting -> EF steady)"
    assert C.unparse_ctl(C.strong_formula()) == "AG(adapting -> AF steady)"


def test_parse_of_named_formulas():
    assert C.parse_ctl("EG(adapting -> EF steady)") == C.weak_formula()
    assert C.parse_ctl("AG(adapting -> AF steady)") == C.strong_formula()


def test_modalities_bind_like_negation():
    f = C.parse_ctl("AG adapting -> steady")
    assert isinstance(f, C.Implies)
    assert isinstance(f.args[0], C.Modal) and f.args[0].op == "AG"

    g = C.parse_ctl("!AG steady")
    assert isinstance(g, C.Not) and isinstance(g.arg, C.Modal)


def test_connective_precedence():
    f = C.parse_ctl("!adapting && steady || in(r0) -> EX true")
    assert isinstance(f, C.Implies)
    assert isinstance(f.args[0], C.Or)
    assert isinstance(f.args[0].args[0], C.And)
    assert isinstance(f.args[0].args[0].args[0], C.Not)
    assert isinstance(f.args[1], C.Modal) and f.args[1].op == "EX"


def test_implication_is_right_associative():
    f = C.parse_ctl("steady -> steady -> steady")
    steady = C.Atom("steady")
    assert f == C.Implies(steady, C.Implies(steady, steady))  # the right operand is itself a chain


def test_a_chain_splices_only_its_associative_side():
    a, b, c = C.Atom("steady"), C.Atom("adapting"), C.InState("r0")
    assert C.parse_ctl("(steady && adapting) && in(r0)") == C.And(a, b, c)
    assert C.parse_ctl("steady && adapting && in(r0)") == C.And(a, b, c)
    assert C.parse_ctl("(steady || adapting) || in(r0)") == C.Or(a, b, c)
    assert C.parse_ctl("steady -> (adapting -> in(r0))") == C.Implies(a, b, c)
    assert C.parse_ctl("steady -> adapting -> in(r0)") == C.Implies(a, b, c)
    for text, args, flat in [
        ("steady && (adapting && in(r0))", (a, C.And(b, c)), C.And(a, b, c)),
        ("steady || (adapting || in(r0))", (a, C.Or(b, c)), C.Or(a, b, c)),
        ("(steady -> adapting) -> in(r0)", (C.Implies(a, b), c), C.Implies(a, b, c)),
    ]:
        f = C.parse_ctl(text)
        assert f.args == args and f != flat
        assert C.unparse_ctl(f) == text


def test_until_forms():
    f = C.parse_ctl("A[adapting U E[steady U true]]")
    assert isinstance(f, C.Until) and f.quant == "A"
    assert isinstance(f.right, C.Until) and f.right.quant == "E"


def test_until_children_may_be_implications():
    f = C.parse_ctl("E[adapting -> steady U in(r1)]")
    assert isinstance(f.left, C.Implies)
    assert isinstance(f.right, C.InState) and f.right.r == "r1"


def test_observation_atom_embeds_constraint_syntax():
    f = C.parse_ctl("@(p == 0 && !eat)")
    assert isinstance(f, C.ObsHolds)
    assert C.unparse_ctl(f) == "@(p == 0 && !eat)"


def test_roundtrip_random_ctl_formulas():
    rng = random.Random(4)
    for _ in range(300):
        f = gen.random_ctl_formula(rng, ("r0", "r1", "r2"), ("p", "eat"), 4)
        text = C.unparse_ctl(f)
        assert C.parse_ctl(text) == f, text


@pytest.mark.parametrize(
    "text",
    [
        "AG",
        "in(",
        "in()",
        "in(r0",
        "A[adapting U]",
        "A[adapting steady]",
        "E[U steady]",
        "@(p ==)",
        "@(nosuch ||)",
        "steady &&",
        "(steady",
        "steady steady",
        "G steady",
    ],
)
def test_parse_errors_have_positions(text):
    with pytest.raises(CtlError) as e:
        C.parse_ctl(text)
    assert e.value.line == 1 and e.value.col is not None


def test_embedded_formula_errors_are_labelled():
    with pytest.raises(CtlError) as e:
        C.parse_ctl("AG @(p ==)")
    assert "in @(...)" in e.value.message


# ---------------------------------------------------------------------------
# atoms


def test_atom_sets_follow_classification(s0):
    flat = flat_of(s0)
    adapting = C.check_ctl(flat, C.parse_ctl("adapting")).satisfying
    steady = C.check_ctl(flat, C.parse_ctl("steady")).satisfying
    assert adapting == {i for i, c in enumerate(flat.classes) if c == FL.ADAPTING}
    assert steady == {i for i, c in enumerate(flat.classes) if c == FL.STEADY}
    assert len(adapting) == 9 and len(steady) == 4
    assert not (adapting & steady)
    # the three stuck states satisfy neither atom
    assert len(flat.states) - len(adapting | steady) == 3


def test_in_atom_partitions_by_structure_state(s0):
    flat = flat_of(s0)
    union = set()
    for r in ("r0", "r1", "r2"):
        S = C.check_ctl(flat, C.parse_ctl(f"in({r})")).satisfying
        assert S == {i for i, (_, r2, _) in enumerate(flat.states) if r2 == r}
        assert not (S & union)
        union |= S
    assert union == set(range(len(flat.states)))


def test_in_atom_rejects_unknown_state(s0):
    flat = flat_of(s0)
    with pytest.raises(CtlError):
        C.check_ctl(flat, C.parse_ctl("in(zz)"))


def test_observation_atom(s0):
    flat = flat_of(s0)
    S = C.check_ctl(flat, C.parse_ctl("@(moved)")).satisfying
    assert S == {i for i, (q, _, _) in enumerate(flat.states) if q == "moved"}
    with pytest.raises(CtlError):
        C.check_ctl(flat, C.parse_ctl("@(nosuch)"))


# ---------------------------------------------------------------------------
# frozen verdicts on the bundled models


def test_adaptability_verdicts_by_model_checking(s0, s1):
    f0, f1 = flat_of(s0), flat_of(s1)
    assert C.check_ctl(f0, C.weak_formula()).holds_at_init is True
    assert C.strong_adaptable_ctl(f0) is False
    assert C.check_ctl(f1, C.weak_formula()).holds_at_init is True
    assert C.strong_adaptable_ctl(f1) is True


def test_verdicts_match_reference_evaluator(s0, s1):
    for sys in (s0, s1):
        flat = flat_of(sys)
        for f in (C.weak_formula(), C.strong_formula()):
            got = C.check_ctl(flat, f)
            want = C.ctl_oracle(flat, f)
            assert got.satisfying == want
            assert got.holds_at_init == (flat.init_index in want)


# ---------------------------------------------------------------------------
# differential testing against the naive evaluator


def test_checker_matches_reference_on_random_inputs():
    rng = random.Random(11)
    for seed in range(100):
        sys = gen.random_system(seed)
        flat = flat_of(sys)
        rs = sys.structure.states
        names = sys.observables.names()
        for _ in range(3):
            f = gen.random_ctl_formula(rng, rs, names, 4)
            got = C.check_ctl(flat, f).satisfying
            want = C.ctl_oracle(flat, f)
            assert got == want, f"seed {seed}: {C.unparse_ctl(f)}"


def _state(i, q, r, cls, pending=None):
    return {"id": i, "q": q, "r": r, "pending": pending, "class": cls}


def _move(src, dst, kind="adapt", r="r0"):
    inv, target = ("!x", "r1") if kind == "adapt" else (None, None)
    return {"from": src, "to": dst, "kind": kind, "r": r, "inv": inv, "target": target}


# the model the corner cases below are read against
CORNERS_MODEL = ingest.loads('''system "corners"
observables { x: bool; }
behaviour {
  state a {x = true} init;
  state b {x = false};
  state c {x = false};
  state d {x = true};
  state e {x = true};
}
structure {
  state r0: "true" init;
  state r1: "x";
  r0 -["!x"]-> r1;
}
''')

# 0 adapts into 1 twice over and into the deadlock 2 once; 1 adapts into 3
# twice over; 3 moves on to the deadlock 4.  A universal count that ignored
# duplicate edges would let 0 into AF steady.
COUNTER_CORNERS = {
    "states": [
        _state(0, "a", "r0", "adapting"),
        _state(1, "b", "r0", "adapting", {"inv": "!x", "target": "r1"}),
        _state(2, "c", "r0", "stuck", {"inv": "!x", "target": "r1"}),
        _state(3, "d", "r1", "steady"),
        _state(4, "e", "r1", "steady"),
    ],
    "init": 0,
    "transitions": [
        _move(0, 1), _move(0, 1), _move(0, 2), _move(1, 3), _move(1, 3),
        _move(3, 4, "steady", "r1"),
    ],
}


def test_fixpoints_count_duplicate_edges_and_deadlocks():
    flat = FL.import_json(json.dumps(COUNTER_CORNERS), CORNERS_MODEL)
    assert flat.succ[0] == (1, 1, 2)
    args = [C.parse_ctl(t) for t in ("steady", "adapting", "!steady", "in(r1)", "steady || in(r0)")]
    formulas = [C.Modal(op, a) for op in ("EF", "AF", "EG", "AG") for a in args]
    formulas += [C.Until(quant, a, b) for quant in "EA" for a in args for b in args]
    for f in formulas:
        assert C.check_ctl(flat, f).satisfying == C.ctl_oracle(flat, f), C.unparse_ctl(f)
    assert C.check_ctl(flat, C.parse_ctl("AF steady")).satisfying == {1, 3, 4}


def test_long_adaptation_chain_checks_by_ctl():
    flat = flat_of(gen.adaptation_chain(3000))
    assert len(flat.states) > 3000
    assert C.check_ctl(flat, C.weak_formula()).holds_at_init
    assert C.strong_adaptable_ctl(flat)


# ---------------------------------------------------------------------------
# semantic laws, established through the reference evaluator alone
# (the checker derives EG and AG by duality, so the laws must be
# confirmed by the evaluator that computes each operator directly)


def law_flats():
    yield flat_of(oracles.predator_system("predator_s0"))
    yield flat_of(oracles.predator_system("predator_s1"))
    for seed in (5, 23, 57):
        yield flat_of(gen.random_system(seed))


def test_quantifier_dualities():
    rng = random.Random(31)
    for flat in law_flats():
        full = frozenset(range(len(flat.states)))
        for _ in range(20):
            f = gen.random_ctl_formula(rng, ("r0",), (), 2)
            nf = C.Not(f)
            assert C.ctl_oracle(flat, C.Modal("AX", f)) == full - C.ctl_oracle(
                flat, C.Modal("EX", nf)
            )
            assert C.ctl_oracle(flat, C.Modal("AF", f)) == full - C.ctl_oracle(
                flat, C.Modal("EG", nf)
            )
            assert C.ctl_oracle(flat, C.Modal("AG", f)) == full - C.ctl_oracle(
                flat, C.Modal("EF", nf)
            )


def test_finally_is_until_with_true():
    rng = random.Random(32)
    for flat in law_flats():
        for _ in range(10):
            f = gen.random_ctl_formula(rng, ("r0",), (), 2)
            top = C.BoolLit(True)
            assert C.ctl_oracle(flat, C.Modal("EF", f)) == C.ctl_oracle(
                flat, C.Until("E", top, f)
            )
            assert C.ctl_oracle(flat, C.Modal("AF", f)) == C.ctl_oracle(
                flat, C.Until("A", top, f)
            )


def test_expansion_laws():
    rng = random.Random(33)
    for flat in law_flats():
        for _ in range(10):
            f = gen.random_ctl_formula(rng, ("r0",), (), 2)
            eg = C.Modal("EG", f)
            assert C.ctl_oracle(flat, eg) == C.ctl_oracle(
                flat, C.And(f, C.Modal("EX", eg))
            )
            af = C.Modal("AF", f)
            assert C.ctl_oracle(flat, af) == C.ctl_oracle(
                flat, C.Or(f, C.Modal("AX", af))
            )


# ---------------------------------------------------------------------------
# witnesses and counterexamples


def is_real_path(flat, path):
    return all(b in flat.succ[a] for a, b in zip(path, path[1:]))


def test_failed_universal_check_yields_a_counterexample_path(s0):
    flat = flat_of(s0)
    res = C.check_ctl(flat, C.strong_formula())
    assert res.holds_at_init is False
    assert res.witness is not None
    assert res.witness[0] == flat.init_index
    assert is_real_path(flat, res.witness)
    # the endpoint genuinely violates the guarded reachability obligation
    arg = C.parse_ctl("adapting -> AF steady")
    assert res.witness[-1] not in C.ctl_oracle(flat, arg)


def test_reachability_witness(s0):
    flat = flat_of(s0)
    res = C.check_ctl(flat, C.parse_ctl("EF in(r2)"))
    assert res.holds_at_init is True
    assert res.witness is not None
    assert res.witness[0] == flat.init_index
    assert is_real_path(flat, res.witness)
    assert flat.states[res.witness[-1]][1] == "r2"


def test_trivial_reachability_witness(s0):
    flat = flat_of(s0)
    res = C.check_ctl(flat, C.parse_ctl("EF steady"))
    assert res.witness == (flat.init_index,)  # the initial state is already steady


def test_strong_counterexample_lasso(s0):
    flat = flat_of(s0)
    lasso = C.strong_counterexample(flat)
    assert lasso is not None
    assert lasso[0] == flat.init_index
    assert lasso[-1] in lasso[:-1]
    # consecutive steps use real transitions, except that a deadend may
    # idle in place (path semantics totalize deadends with self-loops)
    for a, b in zip(lasso, lasso[1:]):
        succs = flat.succ[a]
        assert b in succs or (succs == () and b == a)
    # once the loop closes, steady states never appear again
    loop = lasso[lasso.index(lasso[-1]):]
    for i in loop:
        assert flat.classes[i] != FL.STEADY


def test_no_counterexample_when_strong_holds(s1):
    assert C.strong_counterexample(flat_of(s1)) is None


def test_counterexample_agrees_with_verdict_on_random_systems():
    for seed in range(60):
        flat = flat_of(gen.random_system(seed))
        holds = C.strong_adaptable_ctl(flat)
        lasso = C.strong_counterexample(flat)
        if holds:
            assert lasso is None
        else:
            assert lasso is not None and lasso[-1] in lasso[:-1]
