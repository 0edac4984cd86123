"""Constraint formula parsing, typing, evaluation and printing."""

import ast
import inspect
import json
import random
import subprocess
import sys

import pytest

import gen
import sbcheck.ctl as C
import sbcheck.formula as F
import sbcheck.model as M
from sbcheck import _lex, _record, cli
from sbcheck.errors import FormulaError, ModelError, SourceError
from sbcheck.ingest import bundled_model_path


def obs():
    return gen.typed_observables()


# ---------------------------------------------------------------------------
# parsing and precedence


def test_implication_is_right_associative():
    f = F.typecheck(F.parse_raw("eat -> eat -> eat"), obs())
    eat = F.Name("eat")
    assert isinstance(f, F.Implies)
    assert f == F.Implies(eat, F.Implies(eat, eat))  # the right operand is itself a chain
    assert isinstance(f.args[0], F.Name)


def test_precedence_not_and_or_implies():
    f = F.typecheck(F.parse_raw("!eat && eat || eat -> eat"), obs())
    # ((!eat && eat) || eat) -> eat
    assert isinstance(f, F.Implies)
    assert isinstance(f.args[0], F.Or)
    assert isinstance(f.args[0].args[0], F.And)
    assert isinstance(f.args[0].args[0].args[0], F.Not)
    # comparisons bind tighter than "!"
    assert F.parse_raw("!p == 0") == F.Not(F.parse_raw("p == 0"))


def test_comparison_binds_tighter_than_bool_ops():
    f = F.typecheck(F.parse_raw("p < 1 && count >= 0"), obs())
    assert isinstance(f, F.And)
    assert isinstance(f.args[0], F.Compare) and f.args[0].op == "<"
    assert isinstance(f.args[1], F.Compare) and f.args[1].op == ">="


def test_a_chain_splices_only_its_associative_side():
    a, b, c = (F.Name(x) for x in "abc")
    assert F.parse_raw("(a && b) && c") == F.parse_raw("a && b && c") == F.And(a, b, c)
    assert F.parse_raw("(a || b) || c") == F.parse_raw("a || b || c") == F.Or(a, b, c)
    assert F.parse_raw("a -> (b -> c)") == F.parse_raw("a -> b -> c") == F.Implies(a, b, c)
    for text, args, flat in [
        ("a && (b && c)", (a, F.And(b, c)), F.And(a, b, c)),
        ("a || (b || c)", (a, F.Or(b, c)), F.Or(a, b, c)),
        ("(a -> b) -> c", (F.Implies(a, b), c), F.Implies(a, b, c)),
    ]:
        f = F.parse_raw(text)
        assert f.args == args and f != flat
        assert F.unparse(f) == text


def test_terms_are_left_associative():
    f = F.typecheck(F.parse_raw("1 + 2 - 3 < p"), obs())
    assert isinstance(f.left, F.Arith) and f.left.op == "-"
    assert isinstance(f.left.left, F.Arith) and f.left.left.op == "+"


def test_parenthesised_formula_and_term():
    f = F.typecheck(F.parse_raw("(eat -> eat) && p - (1 + 1) == 0"), obs())
    assert isinstance(f, F.And)
    assert isinstance(f.args[0], F.Implies)
    assert isinstance(f.args[1].left, F.Arith)
    assert isinstance(f.args[1].left.right, F.Arith)


def test_nested_groups_read_terms_linearly(monkeypatch):
    calls = 0
    operand = F.LANGUAGE.operand

    def counted(p, term):
        nonlocal calls
        calls += 1
        return operand(p, term)

    monkeypatch.setattr(F.LANGUAGE, "operand", counted)
    n = 150
    for text, expected in [
        ("(" * n + "x" + ")" * n, F.Name("x")),
        ("(" * n + "x" + ")" * n + " == 1", F.Compare("==", F.Name("x"), F.IntLit(1))),
    ]:
        calls = 0
        assert F.parse_raw(text) == expected
        assert calls <= n + 2, text[-12:]


def test_nested_groups_and_negations_parse_to_their_limits():
    # from the top of a fresh interpreter's stack; 198 nested groups overflowed
    # when each group took five frames (a run of "!" is read in a loop now)
    code = "import sbcheck.formula as F; F.parse_raw('(' * 200 + 'x' + ')' * 200); F.parse_raw('!' * 987 + 'x')"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


# Run in a fresh interpreter whose recursion limit sits 100 frames above the
# depth it parses at, so a parse that recursed per nesting level would fail.
_SHALLOW = """
import sys
import sbcheck.ctl as C
import sbcheck.formula as F
from sbcheck.errors import SourceError

frame, depth = sys._getframe(), 0
while frame:
    frame, depth = frame.f_back, depth + 1
sys.setrecursionlimit(depth + 100)
n = 10_000
"""


def _shallow(code):
    res = subprocess.run([sys.executable, "-c", _SHALLOW + code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr[-3000:]


def test_nested_groups_parse_without_recursion():
    _shallow("""
x = F.Name("x")
assert F.parse_raw("(" * n + "x" + ")" * n) == x
assert F.parse_raw("(" * n + "x" + ")" * n + " == 1") == F.parse_raw("x == 1")
assert F.parse_raw("(" * n + "-1" + ")" * n + " < x") == F.parse_raw("-1 < x")
assert F.parse_raw("x != " + "(" * n + "1" + ")" * n) == F.parse_raw("x != 1")
assert F.parse_raw("(" * n + "x" + ")" * n + " + " + "(" * n + "1" + ")" * n + " > 0") == F.parse_raw("x + 1 > 0")
f = F.parse_raw("!" * n + "x")
for _ in range(n):
    f = f.arg
assert f == x
assert C.parse_ctl("@(" + "(" * n + "x" + ")" * n + ")") == C.ObsHolds(x)
assert C.parse_ctl("(" * n + "steady" + ")" * n) == C.Atom("steady")
f = C.parse_ctl("A[" * n + "steady" + " U adapting]" * n)
for _ in range(n):
    assert f.quant == "A" and f.right == C.Atom("adapting")
    f = f.left
assert f == C.Atom("steady")
""")


def test_malformed_nested_groups_fail_without_recursion():
    _shallow("""
term = "expected a comparison operator after an arithmetic term"
for parse, text, col, message in [
    (F.parse_raw, "(" * n + "x", n + 2, "expected ')', found end of input"),
    (F.parse_raw, "(" * n + "1" + ")" * n, n + 2, term + ", found ')'"),
    (F.parse_raw, "(" * n + "x" + ") + 1" * n, 6 * n + 2, term + ", found end of input"),
    (F.parse_raw, "x == " + "(" * n + "x && y" + ")" * n, n + 8, "expected ')', found '&&'"),
    (C.parse_ctl, "@(" + "(" * n + "1" + ")" * n + ")", n + 4, "in @(...): " + term + ", found ')'"),
    (C.parse_ctl, "A[" * n + "steady", 2 * n + 7, "expected 'U', found end of input"),
]:
    try:
        parse(text)
    except SourceError as e:
        assert (e.line, e.col, e.message) == (1, col, message), (text[:12], e)
    else:
        raise AssertionError(text[:12])
""")


def _alternating(atom, n, ops=("||", "&&")):
    """``atom || (atom && (atom || (...)))``, ``n`` groups deep."""
    return "".join(f"{atom} {ops[i % 2]} (" for i in range(n)) + atom + ")" * n


_DEEP_MODEL = """system "deep"

observables {
  x: bool;
  k: int[0..1];
}

behaviour {
  state q0 {x = true, k = 1} init;
  state q1 {x = false, k = 0};
  q0 -> q1;
  q1 -> q1;
}

structure {
  state r0: "LABEL" init;
  state r1: "!x";
  r0 -["INVARIANT"]-> r1;
}
"""


def test_deep_formulas_check_without_recursion(tmp_path):
    # Walks over these labels, invariants and CTL formulas took a frame per
    # level and overflowed at a few hundred: every command gives a verdict,
    # and save round-trips.  Each label is equivalent to x, and each
    # invariant, which the initial state adapts through, to !x.
    terms = " + ".join(["k"] + ["0"] * 2999)
    models = {
        "groups": (_alternating("x", 1500), _alternating("!x", 1500, ("&&", "||"))),
        "terms": (f"{terms} == 1", f"{terms} == 0"),
    }
    modal = ["EF " * 3000 + "steady", "A[" * 3000 + "steady" + " U adapting]" * 3000]
    s0 = str(bundled_model_path("predator_s0"))
    runs = [["ctl", "--formula", f, s0] for f in [*modal, f"@({_alternating('eat', 1500)})"]]
    paths = []
    for name, (label, invariant) in models.items():
        path = tmp_path / f"{name}.sbs"
        path.write_text(_DEEP_MODEL.replace("LABEL", label).replace("INVARIANT", invariant))
        paths.append(str(path))
        runs += [[*argv, str(path)] for argv in (
            ["validate"], ["adapt", "--json", "--witness"], ["flatten", "--json"],
            ["flatten", "--dot"], ["equiv"], ["simulate"],
            *(["ctl", "--formula", f] for f in [*modal, f"@({label})"]),
        )]
    (tmp_path / "runs.json").write_text(json.dumps({"runs": runs, "paths": paths}))
    _shallow(f"""
import json
from sbcheck import cli, ingest
with open({str(tmp_path / "runs.json")!r}) as f:
    todo = json.load(f)
for argv in todo["runs"]:
    assert cli.main(argv) in (0, 1), (argv[0], argv[-1])
for path in todo["paths"]:
    saved = ingest.save(ingest.load(path))
    assert ingest.save(ingest.loads(saved)) == saved, path
""")


def test_deep_records_compare_and_hash_without_recursion(tmp_path):
    # == and hash took a frame per formula level: comparing a save round
    # trip overflowed at a few hundred nested groups
    label = _alternating("x", 3000)
    head, _, tail = label.rpartition("x")  # the innermost atom
    for name, innermost in (("deep", "x"), ("other", "!x")):
        text = _DEEP_MODEL.replace("LABEL", head + innermost + tail)
        (tmp_path / f"{name}.sbs").write_text(text.replace("INVARIANT", "!x"))
    _shallow(f"""
from sbcheck import ingest
deep, other = (ingest.load({str(tmp_path)!r} + f"/{{name}}.sbs") for name in ("deep", "other"))
again = ingest.loads(ingest.save(deep))
assert again == deep and not again != deep
assert again != other and not again == other
label = again.structure.label("r0")
assert hash(label) == hash(deep.structure.label("r0"))
assert len({{label, deep.structure.label("r0"), other.structure.label("r0")}}) == 2
""")


def test_deep_records_print_and_copy_without_recursion():
    # repr, copy.copy and copy.deepcopy took a frame per level and overflowed
    # on a chain of 2000 negations; so did the error naming a node that is
    # no CTL node
    s0 = str(bundled_model_path("predator_s0"))
    _shallow(f"""
import copy
from sbcheck import ingest
from sbcheck._lex import Not
from sbcheck.flat import flatten
f = C.Atom("steady")
for _ in range(3000):
    f = Not(f)
text = repr(f)
assert text == "Not(arg=" * 3000 + "Atom(name='steady')" + ")" * 3000
assert copy.copy(f) is f and copy.deepcopy(f) is f
assert repr(copy.deepcopy((f, [f]))) == f"({{text}}, [{{text}}])"
bad = F.Compare("==", f, f)
flat = flatten(ingest.load({s0!r}))
for walk in (C.unparse_ctl, lambda g: C.check_ctl(flat, g)):
    try:
        walk(bad)
    except SourceError as e:
        assert e.message == f"not a CTL node: Compare(op='==', left={{text}}, right={{text}})"
    else:
        raise AssertionError("no error")
""")


def test_deep_records_pickle_without_recursion():
    # pickle took a frame per level and overflowed on a chain of 2000
    # negations; the positions and the derived tables come back too
    s0 = str(bundled_model_path("predator_s0"))
    _shallow(f"""
import pickle
from sbcheck import ingest
from sbcheck._lex import And, Not
f = C.Atom("steady", pos=(1, 1))
for i in range(3000):
    f = Not(f, pos=(1, i + 2))
for value in (f, And(f, Not(f)), [f, (f, ())]):
    assert pickle.loads(pickle.dumps(value)) == value
twin = pickle.loads(pickle.dumps(f))
for i in range(3001, 0, -1):
    assert type(twin) is type(f) and twin.pos == (1, i)
    twin, f = getattr(twin, "arg", None), getattr(f, "arg", None)
assert twin is None and f is None
model = ingest.load({s0!r})
again = pickle.loads(pickle.dumps(model))
assert again == model and ingest.save(again) == ingest.save(model)
assert again.behaviour.successors("q011t") == model.behaviour.successors("q011t")
""")


def test_no_formula_or_ctl_walk_calls_itself():
    # every walk over a formula or CTL tree is a _lex.fold, and the record
    # methods walk from stacks of their own; ctl_oracle keeps its recursion
    # as the reference the fold is checked against
    for module in (_record, _lex, F, M, C):
        tree = ast.parse(inspect.getsource(module))
        oracle = {id(n) for f in tree.body if getattr(f, "name", "") == "ctl_oracle" for n in ast.walk(f)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or id(fn) in oracle:
                continue
            for call in ast.walk(fn):
                if isinstance(call, ast.Call):
                    f = call.func
                    method = isinstance(f, ast.Attribute) and getattr(f.value, "id", "") == "self"
                    callee = f.attr if method else getattr(f, "id", None)
                    assert callee != fn.name, f"{module.__name__}.{fn.name} calls itself"


def test_comments_and_whitespace():
    text = "p == 0 // favourite prey kind\n  && !eat"
    f = F.typecheck(F.parse_raw(text), obs())
    assert isinstance(f, F.And)


@pytest.mark.parametrize("decl", [
    F.ObservableDecl("m", F.EnumDomain(("true", "off"))),
    F.ObservableDecl("false", F.BoolDomain()),
])
def test_boolean_literals_name_no_observable_or_enum_value(decl):
    # "m == true" would read the literal, so a value "true" could not be saved and loaded back
    with pytest.raises(ModelError, match="reserved name"):
        F.Observables([F.ObservableDecl("x", F.BoolDomain()), decl])


def test_enum_literals_resolve():
    f = F.typecheck(F.parse_raw("mode == hunting"), obs())
    assert isinstance(f.right, F.EnumLit)
    assert f.right.value == "hunting"


def test_bool_constants():
    assert F.evaluate(F.typecheck(F.parse_raw("true"), obs()), gen.random_valuation(random.Random(0)))
    assert not F.evaluate(F.typecheck(F.parse_raw("false"), obs()), gen.random_valuation(random.Random(0)))


# ---------------------------------------------------------------------------
# parse errors carry positions


@pytest.mark.parametrize(
    "text",
    [
        "p ==",
        "&& eat",
        "p = 1",
        "(eat",
        "mode == ",
        "p + < 1",
        "eat ?",
    ],
)
def test_syntax_errors_have_positions(text):
    with pytest.raises(FormulaError) as e:
        F.typecheck(F.parse_raw(text), obs())
    assert e.value.line == 1
    assert e.value.col is not None and e.value.col >= 1


@pytest.mark.parametrize("text, message", [
    ("x == true", "1:6: 'true' is not an arithmetic term, found 'true'"),
    ("x == -y", "1:7: expected an integer after '-', found 'y'"),
])
def test_term_errors_have_positions(text, message):
    with pytest.raises(FormulaError) as e:
        F.parse_raw(text)
    assert str(e.value) == message


def test_error_position_points_at_offender():
    with pytest.raises(FormulaError) as e:
        F.typecheck(F.parse_raw("eat &&\n  ??"), obs())
    assert e.value.line == 2


# A term that leaves its group after ")" with "+", "-" or a comparison
# operator, and never reaches a comparison, is reported where it ends.
_MODEL = """system "moved"

observables {
  p: int[0..1];
  eat: bool;
}

behaviour {
  state q0 {p = 0, eat = true} init;
}

structure {
  state r0: "eat && (p + 1) - 2" init;
}
"""
_TERM = "expected a comparison operator after an arithmetic term, found"


@pytest.mark.parametrize("language, text, line, col, message", [
    ("formula", "(p + 1) - 2", 1, 12, f"{_TERM} end of input"),
    ("formula", "(x) + 1", 1, 8, f"{_TERM} end of input"),
    ("formula", "((p + (q - 1))) + q && y", 1, 21, f"{_TERM} '&&'"),
    ("ctl", "@((p + 1) - 2)", 1, 14, f"in @(...): {_TERM} ')'"),
    ("sbs", _MODEL, 13, 32, f"in constraint of r0: {_TERM} end of input"),
], ids=["group-minus", "name-plus", "nested", "ctl", "sbs"])
def test_a_term_leaving_its_group_is_reported_where_it_ends(
    language, text, line, col, message, tmp_path, capsys
):
    if language == "sbs":
        model = tmp_path / "moved.sbs"
        model.write_text(text, encoding="utf-8")
        assert cli.main(["validate", str(model)]) == 2
        assert capsys.readouterr().err == f"error: {model}: {line}:{col}: {message}\n"
        return
    with pytest.raises(SourceError) as e:
        (F.parse_raw if language == "formula" else C.parse_ctl)(text)
    assert (e.value.line, e.value.col, e.value.message) == (line, col, message)


# ---------------------------------------------------------------------------
# type errors


@pytest.mark.parametrize(
    "text",
    [
        "p && eat",  # int used as boolean
        "eat < 1",  # bool in ordered comparison
        "mode < hunting",  # enums are unordered
        "mode == 3",  # enum against int
        "p == eat",  # int against bool
        "mode == unknown_value",  # undeclared identifier
        "nosuch == 1",  # undeclared observable in a term
        "mode + 1 < 2",  # enum in arithmetic
        "hunting && eat",  # enum value used as a boolean atom
    ],
)
def test_type_errors(text):
    with pytest.raises(FormulaError):
        F.typecheck(F.parse_raw(text), obs())


def test_same_enum_literals_compare():
    f = F.typecheck(F.parse_raw("hunting != gone"), obs())
    assert F.evaluate(f, gen.random_valuation(random.Random(1)))


def test_int_comparisons_are_unbounded():
    # literals outside every declared range still typecheck and evaluate
    f = F.typecheck(F.parse_raw("count + 100 > 50"), obs())
    assert F.evaluate(f, {"p": 0, "count": -3, "eat": False, "mode": "gone"})


# ---------------------------------------------------------------------------
# evaluation


def test_case_study_constraint_evaluation():
    decls = [
        F.ObservableDecl("p", F.IntRange(0, 1)),
        F.ObservableDecl("a0", F.IntRange(0, 1)),
        F.ObservableDecl("a1", F.IntRange(0, 1)),
        F.ObservableDecl("eat", F.BoolDomain()),
        F.ObservableDecl("moved", F.BoolDomain()),
    ]
    o = F.Observables(decls)
    phi = F.typecheck(F.parse_raw("p == 0 && (!eat -> a0 > 0) && !moved"), o)
    v = lambda p, a0, a1, eat, moved: {"p": p, "a0": a0, "a1": a1, "eat": eat, "moved": moved}
    assert F.evaluate(phi, v(0, 1, 1, True, False))  # initial configuration
    assert F.evaluate(phi, v(0, 0, 1, True, False))  # just ate: vacuous implication
    assert not F.evaluate(phi, v(0, 0, 1, False, False))  # hungry with no prey left
    assert not F.evaluate(phi, v(1, 1, 1, False, False))  # wrong favourite
    assert not F.evaluate(phi, v(0, 1, 1, True, True))  # migrated


def test_implication_truth_table():
    o = obs()
    f = F.typecheck(F.parse_raw("eat -> count > 0"), o)
    base = {"p": 0, "mode": "gone"}
    assert F.evaluate(f, dict(base, eat=False, count=-1))
    assert F.evaluate(f, dict(base, eat=True, count=2))
    assert not F.evaluate(f, dict(base, eat=True, count=0))


def test_connective_semantics_match_python(subtests=None):
    rng = random.Random(20)
    o = obs()
    for _ in range(200):
        a = gen.random_typed_formula(rng, 2)
        b = gen.random_typed_formula(rng, 2)
        a, b = F.typecheck(a, o), F.typecheck(b, o)
        val = gen.random_valuation(rng)
        ea, eb = F.evaluate(a, val), F.evaluate(b, val)
        assert F.evaluate(F.And(a, b), val) == (ea and eb)
        assert F.evaluate(F.Or(a, b), val) == (ea or eb)
        assert F.evaluate(F.Implies(a, b), val) == ((not ea) or eb)
        assert F.evaluate(F.Not(a), val) == (not ea)


def test_sat_set_matches_pointwise_evaluation():
    # the satisfying set of any formula over the observables, as a CTL @(...)
    # atom asks for it, is SBSystem.region
    rng = random.Random(7)
    o = obs()
    states = tuple(f"s{i}" for i in range(6))
    table = {s: gen.random_valuation(rng) for s in states}
    st = M.StructureMachine(("r",), "r", {"r": F.BoolLit(True)}, frozenset())
    beh = M.BehaviourMachine(states, "s0", frozenset())
    sys = M.SBSystem("typed", o, beh, st, M.ObservationMap(table))
    for _ in range(50):
        phi = F.typecheck(gen.random_typed_formula(rng, 2), o)
        got = sys.region(phi)
        want = {s for s in states if F.evaluate(phi, table[s])}
        assert got == want


# ---------------------------------------------------------------------------
# printing round trip


def test_unparse_of_case_study_constraint_is_stable():
    text = "p == 0 && (!eat -> a0 > 0) && !moved"
    decls = [
        F.ObservableDecl("p", F.IntRange(0, 1)),
        F.ObservableDecl("a0", F.IntRange(0, 1)),
        F.ObservableDecl("eat", F.BoolDomain()),
        F.ObservableDecl("moved", F.BoolDomain()),
    ]
    o = F.Observables(decls)
    assert F.unparse(F.typecheck(F.parse_raw(text), o)) == text


def test_roundtrip_random_formulas():
    rng = random.Random(99)
    o = obs()
    for _ in range(300):
        raw = gen.random_typed_formula(rng, 3)
        checked = F.typecheck(raw, o)
        text = F.unparse(checked)
        again = F.typecheck(F.parse_raw(text), o)
        assert again == checked, text
        assert F.unparse(again) == text


def test_typecheck_returns_a_checked_formula_itself():
    rng = random.Random(98)
    o = obs()
    for _ in range(200):
        # parsed text names enum values with a Name, which typecheck rewrites
        raw = F.parse_raw(F.unparse(gen.random_typed_formula(rng, 3)))
        checked = F.typecheck(raw, o)
        assert F.typecheck(checked, o) is checked
        if "mode" not in F.unparse(raw):
            assert checked is raw


def test_roundtrip_right_nested_terms():
    # programmatically built right-nested subtraction needs parentheses
    o = obs()
    t = F.Compare("==", F.Arith("-", F.Name("p"), F.Arith("-", F.IntLit(1), F.IntLit(2))), F.IntLit(2))
    checked = F.typecheck(t, o)
    text = F.unparse(checked)
    assert F.typecheck(F.parse_raw(text), o) == checked


# ---------------------------------------------------------------------------
# domains and valuations


def test_domain_validation():
    with pytest.raises(Exception):
        F.IntRange(3, 1)
    with pytest.raises(Exception):
        F.EnumDomain(("a", "a"))


def test_observables_reject_name_collisions():
    with pytest.raises(Exception):
        F.Observables([F.ObservableDecl("x", F.BoolDomain()), F.ObservableDecl("x", F.BoolDomain())])
    with pytest.raises(Exception):
        F.Observables(
            [
                F.ObservableDecl("x", F.BoolDomain()),
                F.ObservableDecl("m", F.EnumDomain(("x", "y"))),
            ]
        )


def test_check_valuation():
    o = obs()
    good = {"p": 1, "count": 0, "eat": True, "mode": "resting"}
    F.check_valuation(o, good)
    with pytest.raises(Exception):
        F.check_valuation(o, dict(good, p=3))  # out of range
    with pytest.raises(Exception):
        F.check_valuation(o, dict(good, eat=1))  # int is not bool
    with pytest.raises(Exception):
        F.check_valuation(o, {k: v for k, v in good.items() if k != "p"})  # missing
    with pytest.raises(Exception):
        F.check_valuation(o, dict(good, extra=1))  # undeclared
