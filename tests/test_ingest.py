"""Model file parsing, canonical saving and bundled models."""

import pathlib
import random
import re
import sys
import tracemalloc
from collections import Counter

import pytest

import gen
import oracles
import sbcheck.formula as F
import sbcheck.ingest as I
import sbcheck.model as M
from sbcheck import _lex
from sbcheck.errors import ModelError, ModelFileError

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

BASE = '''system "t"

observables {
  x: bool;
}

behaviour {
  state a {x = true} init;
  state b {x = false};
  a -> b;
}

structure {
  state r: "x" init;
}
'''


def test_base_text_loads():
    sys = I.loads(BASE)
    assert sys.name == "t"
    assert sys.behaviour.states == ("a", "b")
    assert sys.behaviour.init == "a"
    assert sys.structure.init == "r"
    assert sys.observe("b") == {"x": False}


def test_base_text_is_canonical():
    assert I.save(I.loads(BASE)) == BASE


def test_equal_systems_save_to_the_same_text():
    # the order of the observable declarations is part of the system, as
    # save prints it
    reordered = 0
    for seed in range(30):
        s = gen.random_system(seed)
        twin = M.SBSystem(s.name, F.Observables(s.observables.decls[::-1]), s.behaviour,
                          s.structure, s.observation)
        group = [s, I.loads(I.save(s)), twin, I.loads(I.save(twin))]
        for a in group:
            for b in group:
                if a == b:
                    assert I.save(a) == I.save(b)
        if len(s.observables.decls) > 1:
            reordered += 1
            assert twin != s and twin.observables != s.observables
    assert reordered >= 10


# ---------------------------------------------------------------------------
# bundled models


def test_bundled_models_match_construction():
    for which in ("predator_s0", "predator_s1"):
        assert I.bundled_model(which) == oracles.predator_system(which)


def test_bundled_files_are_canonical_fixed_points():
    artifacts = pathlib.Path(__file__).resolve().parent.parent / "acceptance_artifacts"
    paths = [I.bundled_model_path(w) for w in ("predator_s0", "predator_s1")]
    paths += sorted(artifacts.glob("*.sbs"))
    assert len(paths) == 5
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert I.save(I.loads(text)) == text, path.name


def test_unknown_bundled_model():
    with pytest.raises(ModelError) as e:
        I.bundled_model_path("nonexistent")
    assert "predator_s0" in str(e.value)


# ---------------------------------------------------------------------------
# round trips


def test_roundtrip_random_systems():
    for seed in range(120):
        sys = gen.random_system(seed)
        again = I.loads(I.save(sys))
        assert again == sys, f"seed {seed}"
        assert I.save(again) == I.save(sys)


def test_roundtrip_quotes_and_backslashes_in_name():
    sys = I.loads(BASE)
    odd = M.SBSystem('a "quoted" \\ name', *_parts(sys))
    again = I.loads(I.save(odd))
    assert again.name == 'a "quoted" \\ name'


def _parts(sys):
    """The constructor arguments of ``sys`` after its name."""
    return sys.observables, sys.behaviour, sys.structure, sys.observation


def test_save_refuses_a_newline_in_the_name():
    odd = M.SBSystem("two\nlines", *_parts(I.loads(BASE)))
    with pytest.raises(ModelError, match="newline"):
        I.save(odd)


def test_save_refuses_a_carriage_return_in_the_name():
    # load reads a lone "\r" as a line end, so the saved file would not load
    odd = M.SBSystem("a\rb", *_parts(I.load(I.bundled_model_path("predator_s0"))))
    with pytest.raises(ModelError, match="newline"):
        I.save(odd)


def _named(q="a", r="r", x="x", value="v"):
    """A one-state system whose names are the arguments."""
    obs = F.Observables([F.ObservableDecl(x, F.BoolDomain()),
                         F.ObservableDecl("e", F.EnumDomain((value,)))])
    beh = M.BehaviourMachine((q,), q, frozenset())
    st = M.StructureMachine((r,), r, {r: F.parse_raw("true")}, frozenset())
    return M.SBSystem("named", obs, beh, st, M.ObservationMap({q: {x: True, "e": value}}))


def test_save_refuses_only_names_it_cannot_read_back():
    for name in ("state", "init", "system", "bool"):  # keywords, yet read as names where they stand
        for sys in (_named(q=name, r=name, x=name), _named(value=name)):
            assert I.loads(I.save(sys)) == sys, name
    for field, name in (("q", "a b"), ("r", "r-1"), ("x", "1x"), ("value", "\u00e9")):
        with pytest.raises(ModelError, match=f"^cannot save {name!r}: "):
            I.save(_named(**{field: name}))


def test_roundtrip_every_domain_kind():
    text = '''system "domains"

observables {
  b: bool;
  n: int[-3..5];
  m: enum {red, green, blue};
}

behaviour {
  state s0 {b = true, n = -3, m = red} init;
}

structure {
  state r: "n < 0 && m == red" init;
}
'''
    sys = I.loads(text)
    assert I.save(sys) == text
    assert sys.observe("s0") == {"b": True, "n": -3, "m": "red"}
    dom = sys.observables.domain("n")
    assert (dom.lo, dom.hi) == (-3, 5)


def test_negative_literal_in_formula_roundtrips():
    text = BASE.replace('state r: "x" init;', 'state r: "x || -1 < 0" init;')
    sys = I.loads(text)
    assert I.save(I.loads(I.save(sys))) == I.save(sys)


def test_state_named_state():
    text = BASE.replace("state a ", "state state ").replace("a -> b", "state -> b")
    sys = I.loads(text)
    assert sys.behaviour.init == "state"
    assert ("state", "b") in sys.behaviour.transitions


def test_save_orders_transitions_deterministically():
    sys = gen.random_system(3)
    text = I.save(sys)
    shuffled = I.loads(text)
    assert I.save(shuffled) == text


def test_save_prints_a_long_conjunction_without_recursion():
    label = " && ".join(["x"] * 500)
    text = BASE.replace('state r: "x" init;', f'state r: "{label}" init;')
    assert I.save(I.loads(text)) == text


def _behaviour_runs(tokens):
    """The tokens between ``behaviour {`` and its ``}``."""
    start = next(i for i, t in enumerate(tokens) if t.text == "behaviour") + 2
    end = next(i for i in range(start, len(tokens)) if tokens[i].kind == "rbrace")
    return tokens[start:end]


def test_saved_behaviour_blocks_are_read_in_runs():
    artifacts = pathlib.Path(__file__).resolve().parent.parent / "acceptance_artifacts"
    systems = [gen.random_system(seed) for seed in range(60)]
    systems += [I.bundled_model(w) for w in ("predator_s0", "predator_s1")]
    systems += [I.load(path) for path in sorted(artifacts.glob("*.sbs"))]
    systems += [I.loads(DOMAINS), gen.adaptation_chain(1000)]
    long_blocks = 0
    for sys in systems:
        text = I.save(sys)
        block = _behaviour_runs(I.STATEMENTS.tokenize(text))
        assert {t.kind for t in block} == {"run"}, text
        assert all(len(t.text) <= I.RUN_LENGTH for t in block), text
        for run, after in zip(block, block[1:]):  # each run but the last is as long as it can be
            first = after.text[: after.text.index(";") + 1]
            assert after.offset + len(first) - run.offset > I.RUN_LENGTH, text
        long_blocks += len(block) > 2
        runs = [I._PARTS(t.text) for t in block]
        parts = [part for run in runs for part in run]
        statements = len(sys.behaviour.states) + len(sys.behaviour.transitions)
        assert len(parts) == statements, text
        assert tuple(q for q, *_ in parts if q) == sys.behaviour.states
        assert {(src, dst) for *_, src, dst in parts if src} == sys.behaviour.transitions
        assert I._read(I.STATEMENTS.parser(text)) == sys  # read without falling back
        assert I.loads(text) == sys
    assert long_blocks


def _structure_runs(tokens):
    """The tokens between ``structure {`` and its ``}``."""
    start = next(i for i, t in enumerate(tokens) if t.text == "structure") + 2
    end = next(i for i in range(start, len(tokens)) if tokens[i].kind == "rbrace")
    return tokens[start:end]


def test_saved_and_bench_structure_blocks_are_read_in_runs(monkeypatch):
    artifacts = pathlib.Path(__file__).resolve().parent.parent / "acceptance_artifacts"
    systems = [gen.random_system(seed) for seed in range(60)]
    systems += [I.bundled_model(w) for w in ("predator_s0", "predator_s1")]
    systems += [I.load(path) for path in sorted(artifacts.glob("*.sbs"))]
    systems += [I.loads(DOMAINS), gen.adaptation_chain(1000)]
    texts = [I.save(system) for system in systems]
    texts += [
        workloads.model_text(workload, seed, size)
        for workload, seeds in workloads.POOL.items()
        for seed in seeds
        for size in workloads.SIZES
    ]
    parses = Counter()  # formula text -> parse_raw calls
    parse_raw = F.parse_raw

    def counted(text):
        parses[text] += 1
        return parse_raw(text)

    monkeypatch.setattr(F, "parse_raw", counted)
    for text in texts:
        block = _structure_runs(I.STATEMENTS.tokenize(text))
        assert {t.kind for t in block} == {"structure_run"}, text
        system = I._read(I.STATEMENTS.parser(text))  # read without falling back
        assert system == I._read(I.LEXER.parser(text))
        formulas = sum(t.kind == "string" for t in I.LEXER.tokenize(text)) - 1  # and the name
        assert formulas == len(system.structure.states) + len(system.structure.transitions)
        parses.clear()
        assert I.loads(text) == system
        assert sum(parses.values()) == formulas, text  # a fallback would parse each twice


def test_equal_valuation_texts_share_one_valuation():
    sys = I.loads(I.save(gen.adaptation_chain(5)))
    assert all(sys.observe(f"a{i}") is sys.observe("a0") for i in range(4))
    assert sys.observe("a4") is not sys.observe("a0")  # y holds at the end of the run


def test_tokenizing_a_long_behaviour_block_keeps_memory_bounded():
    # A run is one repeat of single characters, which keeps no backtracking
    # state per character, and its length is bounded, so splitting one run
    # holds the parts of a few hundred statements, not of the whole block
    # (about 10 MB here).
    states = "".join(f"state q{i} {{b = true}}; " for i in range(25_000))
    text = f"behaviour {{ {states}{'q0 -> q1; ' * 25_000}}}"
    tracemalloc.start()
    try:
        tokens = I.STATEMENTS.tokenize(text)
        counts = [sum(1 for q, _, _, src, _ in I._PARTS(t.text) if q or src)
                  for t in tokens if t.kind == "run"]
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept < 1_000_000
    assert [t.kind for t in tokens[2:-2]] == ["run"] * len(counts)
    assert sum(counts) == 50_000  # every statement, and nothing else, in a run


def test_tokenizing_a_long_structure_block_keeps_memory_bounded():
    # As for the behaviour block: a structure run is one repeat of single
    # characters, quotes included, and splitting one run holds the parts of
    # a few hundred statements, not of the whole block.
    edges = 'r -["x || !y"]-> r; ' * 25_000
    text = f'structure {{ state r: "x" init; {edges}}}'
    tracemalloc.start()
    try:
        tokens = I.STATEMENTS.tokenize(text)
        counts = [sum(1 for r, _, _, src, _, _ in I._STRUCTURE_PARTS(t.text) if r or src)
                  for t in tokens if t.kind == "structure_run"]
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept < 1_000_000
    assert [t.kind for t in tokens[2:-2]] == ["structure_run"] * len(counts)
    assert sum(counts) == 25_001  # every statement, and nothing else, in a run


def test_a_load_builds_one_structure_machine(monkeypatch):
    built = []
    init = M.StructureMachine.__init__

    def counted(machine, *args):
        built.append(machine)
        init(machine, *args)

    monkeypatch.setattr(M.StructureMachine, "__init__", counted)
    text = DOMAINS.replace('init;\n}\n', 'init;\n  r -["m != blue && n + 1 > 0"]-> r;\n}\n')
    sys = I.loads(text)
    assert built == [sys.structure]
    assert len(sys.structure.transitions) == 1


def test_a_load_typechecks_each_formula_once(monkeypatch):
    walks = []
    fold = F._lex.fold

    def counted(root, combine):
        if combine.__qualname__.startswith("typecheck."):
            walks.append(F.unparse(root))
        return fold(root, combine)

    monkeypatch.setattr(F._lex, "fold", counted)
    text = DOMAINS.replace('init;\n}\n', 'init;\n  r -["m != blue && n + 1 > 0"]-> r;\n}\n')
    sys = I.loads(text)
    formulas = [sys.structure.label(r) for r in sys.structure.states]
    formulas += [inv for _, inv, _ in sys.structure.transitions]
    assert sorted(walks) == sorted(F.unparse(phi) for phi in formulas)
    assert len(walks) == 2


# tokenize calls, typecheck folds, unparse folds and region folds of one load
# of a pool model: one tokenize per quoted formula and one for the file, one
# typecheck per formula, one unparse per structure transition, one region
# per label, and no other walk
LOAD_WORK = {"wide": (25, 24, 16, 8), "chain": (5, 4, 2, 2), "discrepancy": (31, 30, 19, 11)}


@pytest.mark.parametrize("workload", sorted(LOAD_WORK))
def test_a_load_reads_and_walks_each_formula_once_per_use(monkeypatch, workload):
    work = Counter()
    tokenize, fold = _lex.Lexer.tokenize, _lex.fold

    def counted_tokenize(lexer, text):
        work["tokenize"] += 1
        return tokenize(lexer, text)

    def counted_fold(root, combine):
        if combine.__qualname__.startswith("typecheck."):
            work["typecheck"] += 1
        elif combine is F._text:
            work["unparse"] += 1
        elif getattr(combine, "__func__", None) is M.SBSystem._bits:
            work["region"] += 1
        else:
            work[combine.__qualname__] += 1
        return fold(root, combine)

    texts = [workloads.model_text(workload, seed) for seed in workloads.POOL[workload]]
    monkeypatch.setattr(_lex.Lexer, "tokenize", counted_tokenize)
    monkeypatch.setattr(_lex, "fold", counted_fold)
    for text in texts:
        work.clear()
        I.loads(text)
        want = dict(zip(("tokenize", "typecheck", "unparse", "region"), LOAD_WORK[workload]))
        assert work == want


# distinct assignment texts, the items between the commas of the distinct
# state bodies, in every pool model of each workload
ASSIGNMENT_TEXTS = {"wide": 12, "chain": 6, "discrepancy": 18}


@pytest.mark.parametrize("workload", sorted(ASSIGNMENT_TEXTS))
def test_a_load_reads_each_assignment_text_and_checks_each_typed_assignment_once(
        monkeypatch, workload):
    matched, checks = Counter(), []
    item, contains = I._ITEM, F.domain_contains

    def counted_item(text):
        matched[text] += 1
        return item(text)

    def counted_contains(domain, value):
        checks.append((domain, type(value), value))
        return contains(domain, value)

    monkeypatch.setattr(I, "_ITEM", counted_item)
    monkeypatch.setattr(F, "domain_contains", counted_contains)
    for seed in workloads.POOL[workload]:
        text = workloads.model_text(workload, seed)
        bodies = set(re.findall(r"state\s+\w+\s*\{([^}]*)\}", text))
        texts = Counter(t for body in bodies for t in set(body.split(",")))
        assert len(texts) == ASSIGNMENT_TEXTS[workload]
        for _ in range(2):  # no memo outlives its load
            matched.clear()
            checks.clear()
            system = I.loads(text)
            assert matched == {t: 1 for t in texts}, seed
            typed = {(n, type(x), x) for v in system.observation.table.values() for n, x in v.items()}
            assert len(checks) == len(typed), seed


def _int_model(domain, *bodies):
    states = "".join(f"  state q{i} {{{body}}}{' init' * (i == 0)};\n" for i, body in enumerate(bodies))
    return (f'system "t"\nobservables {{\n  p: {domain};\n}}\nbehaviour {{\n{states}}}\n'
            'structure {\n  state r: "true" init;\n}\n')


def test_each_load_and_system_checks_its_own_assignments():
    # an assignment found in its domain in one model, or with one type, is
    # checked again in the next model and with another type
    assert I.loads(_int_model("int[0..3]", "p = 3")).observe("q0") == {"p": 3}
    for text, message, line in (
        (_int_model("int[0..1]", "p = 3"), "value 3 of 'p' outside domain int[0..1]", 6),
        (_int_model("int[0..1]", "p = 1", "p = true"), "value true of 'p' outside domain int[0..1]", 7),
    ):
        with pytest.raises(ModelFileError) as e:
            I.loads(text)
        assert (e.value.message, e.value.line, e.value.col) == (message, line, 17)
    with pytest.raises(ModelError, match="value True of 'p' outside domain int"):
        M.SBSystem("t", F.Observables([F.ObservableDecl("p", F.IntRange(0, 1))]),
                   M.BehaviourMachine(("a", "b"), "a", ()),
                   M.StructureMachine(("r",), "r", {"r": F.BoolLit(True)}, ()),
                   M.ObservationMap({"a": {"p": 1}, "b": {"p": True}}))


# ---------------------------------------------------------------------------
# files


def test_load_missing_file(tmp_path):
    with pytest.raises(ModelFileError) as e:
        I.load(tmp_path / "absent.sbs")
    assert "cannot read" in str(e.value)


def test_load_write_load(tmp_path):
    sys = oracles.predator_system("predator_s0")
    target = tmp_path / "copy.sbs"
    target.write_text(I.save(sys), encoding="utf-8")
    assert I.load(target) == sys


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize(
    "data, line, col, message",
    [
        (BOM + BASE.encode(), None, None, None),
        (BOM + BASE.replace("\n", "\r\n").encode(), None, None, None),
        (BOM + BASE.replace("} init;", "} init2;").encode(), 8, 22,
         "expected ';' after the state declaration, found 'init2'"),
        (BOM + b"// d\xe9j\xe0\n" + BASE.encode(), 1, 5, "byte 0xe9 is not UTF-8"),
        (BOM + BOM + BASE.encode(), 1, 1, "unexpected character '\\ufeff'"),
        (BASE.encode() + BOM, 16, 1, "unexpected character '\\ufeff'"),
    ],
    ids=["bom", "bom-crlf", "bom-then-error", "bom-then-latin1", "second-bom", "bom-at-end"],
)
def test_load_skips_one_leading_byte_order_mark(tmp_path, data, line, col, message):
    # positions after the mark are those of the same file without it
    target = tmp_path / "model.sbs"
    target.write_bytes(data)
    if message is None:
        assert I.load(target) == I.loads(BASE)
        return
    with pytest.raises(ModelFileError) as e:
        I.load(target)
    assert (e.value.line, e.value.col, e.value.message) == (line, col, message)


# ---------------------------------------------------------------------------
# error reporting: every diagnostic carries a useful position


def check_error(text, line, col, fragment):
    with pytest.raises(ModelFileError) as e:
        I.loads(text)
    assert (e.value.line, e.value.col) == (line, col), str(e.value)
    assert fragment in e.value.message


def test_missing_system_keyword():
    check_error(BASE.replace('system "t"', '"t"'), 1, 1, "expected 'system'")


def test_unterminated_string():
    check_error(BASE.replace('"t"', '"t'), 1, 8, "unexpected character")


def test_unexpected_character_position():
    # '#' does not start a comment; tabs count one column each
    check_error("// c\n# note\n" + BASE, 2, 1, "unexpected character '#'")
    check_error(BASE.replace("x: bool;", "x: bool;\t\t$"), 4, 13, "unexpected character '$'")


def test_empty_integer_range():
    check_error(BASE.replace("x: bool;", "x: int[5..1];"), 4, 6, "empty integer range")


def test_duplicate_observable():
    check_error(
        BASE.replace("x: bool;", "x: bool;\n  x: bool;"),
        5,
        3,
        "duplicate name 'x'",
    )
    # named at the first declaration that repeats a name, not at the last one
    check_error(BASE.replace("x: bool;", "x: bool;\n  x: bool;\n  y: bool;\n  y: bool;"), 5, 3,
                "duplicate name 'x'")


def test_enum_value_colliding_with_observable():
    check_error(
        BASE.replace("x: bool;", "x: bool;\n  m: enum {x, y};"),
        5,
        3,
        "duplicate name 'x'",
    )


@pytest.mark.parametrize("decl, name", [
    ("m: enum {true, off};", "true"),
    ("true: bool;", "true"),
    ("false: int[0..1];", "false"),
])
def test_boolean_literal_names_no_observable_or_enum_value(decl, name):
    check_error(BASE.replace("x: bool;", "x: bool;\n  " + decl), 5, 3, f"reserved name '{name}'")


def test_duplicate_enum_value_is_named_at_its_domain():
    check_error(BASE.replace("x: bool;", "x: bool;\n  m: enum {a, b, a};"), 5, 6,
                "duplicate enum value 'a'")


def test_missing_semicolon():
    check_error(BASE.replace("x: bool;", "x: bool"), 5, 1, "expected ';'")


def test_value_outside_domain():
    check_error(BASE.replace("{x = true}", "{x = 3}"), 8, 16, "outside domain bool")


def test_duplicate_behaviour_state():
    check_error(
        BASE.replace("state b {x = false};", "state b {x = false};\n  state b {x = false};"),
        10,
        9,
        "duplicate behaviour state 'b'",
    )


def test_second_initial_state():
    check_error(
        BASE.replace("state b {x = false};", "state b {x = false} init;"),
        9,
        9,
        "second initial state",
    )


def test_unassigned_observable():
    check_error(BASE.replace("{x = false}", "{}"), 9, 9, "leaves 'x' unassigned")


def test_undeclared_observable_in_state():
    check_error(
        BASE.replace("{x = false}", "{x = false, y = 1}"),
        9,
        23,
        "undeclared observable 'y'",
    )


def test_behaviour_transition_to_undeclared_state():
    check_error(BASE.replace("a -> b;", "a -> zz;"), 10, 8, "undeclared behaviour state 'zz'")


def test_behaviour_without_initial_state():
    check_error(
        BASE.replace("state a {x = true} init;", "state a {x = true};"),
        7,
        1,
        "no initial state",
    )


def test_behaviour_without_states():
    text = BASE.replace(
        "  state a {x = true} init;\n  state b {x = false};\n  a -> b;\n", ""
    )
    check_error(text, 7, 1, "behaviour declares no states")


def test_constraint_syntax_error_points_inside_string():
    text = BASE.replace('state r: "x" init;', 'state r: "x &&" init;')
    check_error(text, 14, 17, "in constraint of r: expected a formula")


def test_constraint_type_error_points_inside_string():
    text = BASE.replace('state r: "x" init;', 'state r: "y" init;')
    check_error(text, 14, 13, "in constraint of r: undeclared observable 'y'")


def test_invariant_error_names_source_state():
    text = BASE.replace('state r: "x" init;', 'state r: "x" init;\n  r -["y"]-> r;')
    check_error(text, 15, 8, "in invariant on r: undeclared observable 'y'")


def test_structure_transition_to_undeclared_state():
    text = BASE.replace('state r: "x" init;', 'state r: "x" init;\n  r -["x"]-> s;')
    check_error(text, 15, 14, "undeclared structure state 's'")


def test_structure_without_initial_state():
    check_error(BASE.replace('state r: "x" init;', 'state r: "x";'), 13, 1, "no initial state")


def test_duplicate_structure_state():
    text = BASE.replace('state r: "x" init;', 'state r: "x" init;\n  state r: "x";')
    check_error(text, 15, 9, "duplicate structure state 'r'")


def test_trailing_input():
    check_error(BASE + "zzz\n", 16, 1, "unexpected trailing input")


def test_comments_are_ignored():
    text = BASE.replace("a -> b;", "a -> b; // one feeding step")
    assert I.loads(text) == I.loads(BASE)


# ---------------------------------------------------------------------------
# edge cases of the behaviour statements, pinned to the token grammar's results

DOMAINS = '''system "d"

observables {
  b: bool;
  n: int[-3..5];
  m: enum {red, green, blue};
}

behaviour {
  state s0 {b = true, n = -3, m = red} init;
  state s1 {b = false, n = 5, m = blue};
  s0 -> s1;
}

structure {
  state r: "n < 0 && m == red" init;
}
'''

STATE_NAMED_STATE = BASE.replace(
    "state a {x = true} init;\n  state b {x = false};\n  a -> b;",
    "state b {x = false};\n  state state {x = true} init;\n  state -> b;",
)


@pytest.mark.parametrize(
    "text, canonical",
    [
        (BASE.replace("{x = true} init;", "{x = true // c\n  } init;"), BASE),
        (BASE.replace("state a {", "state // c\n  a {"), BASE),
        (BASE.replace("a -> b;", "a -> // c\n  b;"), BASE),
        (DOMAINS.replace("n = -3", "n = - 3"), DOMAINS),
        (DOMAINS.replace("n = -3", "n = -\n 3"), DOMAINS),
        (BASE.replace("} init;", "}init;"), BASE),
        (BASE.replace("a {x = true} init;", "a{x=true}init;").replace("a -> b;", "a->b;"), BASE),
        (BASE.replace("\n", "\r\n").replace("  ", "\t"), BASE),
        (BASE.replace("state a ", "state state").replace("a -> b", "state->b"), STATE_NAMED_STATE),
        (
            DOMAINS.replace("{b = false, n = 5, m = blue}", "{m = red, b = true, n = -3}"),
            DOMAINS.replace("{b = false, n = 5, m = blue}", "{b = true, n = -3, m = red}"),
        ),
    ],
    ids=[
        "comment-in-valuation", "comment-after-state", "comment-in-transition", "minus-blank",
        "minus-newline", "init-without-blank", "no-blanks", "crlf-and-tabs", "state-named-state",
        "equal-valuations-in-another-order",
    ],
)
def test_behaviour_statement_spellings_load_as_their_canonical_form(text, canonical):
    sys = I.loads(text)
    assert sys == I.loads(canonical)
    assert I.save(sys) == canonical


@pytest.mark.parametrize(
    "text, line, col, message",
    [
        (BASE.replace("} init;", "} init2;"), 8, 22,
         "expected ';' after the state declaration, found 'init2'"),
        (BASE.replace("state b {", "stateb {"), 9, 3,
         "transition uses undeclared behaviour state 'stateb'"),
        (DOMAINS.replace("n = -3", "n = 3red"), 10, 28,
         "expected '}' closing the valuation, found 'red'"),
        (DOMAINS.replace("n = 5", "n = 6"), 11, 28, "value 6 of 'n' outside domain int[-3..5]"),
        (DOMAINS.replace("n = -3", "n = - 4"), 10, 27, "value -4 of 'n' outside domain int[-3..5]"),
        (DOMAINS.replace("m = blue", "m = purple"), 11, 35,
         "value purple of 'm' outside domain enum {red, green, blue}"),
        (DOMAINS.replace("b = false", "b = 1"), 11, 17, "value 1 of 'b' outside domain bool"),
        (DOMAINS.replace("m = blue", "b = true"), 11, 31, "observable 'b' assigned twice"),
        (DOMAINS.replace("m = blue", "m = blue, z = 1"), 11, 41, "undeclared observable 'z'"),
        (DOMAINS.replace(", m = blue", ""), 11, 9, "state 's1' leaves 'm' unassigned"),
        (BASE.replace("a -> b;", "a -> b;\n  state c {x = true};"), 11, 3,
         "behaviour states must be declared before transitions"),
        (BASE.replace('state r: "x" init;', 'state r: "x" init;\n  a -> b;'), 15, 3,
         "transition uses undeclared structure state 'a'"),
        (BASE.replace('state r: "x" init;', 'state r: "x" init;\n  state c {x = true};'), 15, 11,
         "expected ':' before the constraint string, found '{'"),
        (BASE.replace("a -> b;", "zz -> b;"), 10, 3,
         "transition uses undeclared behaviour state 'zz'"),
        (BASE.replace("b {x = false};", "b {x = false};\n  state a {x = false};"), 10, 9,
         "duplicate behaviour state 'a'"),
        (BASE.replace("state b {x = false};", "state b {x = false}init;"), 9, 9,
         "behaviour declares a second initial state"),
        (STATE_NAMED_STATE.replace("state b ", "state state "), 9, 9,
         "duplicate behaviour state 'state'"),
        (DOMAINS.replace("n = -3", "n = 1").replace("b = false, n = 5, m = blue",
                                                     "b = true, n = true, m = red"), 11, 27,
         "value true of 'n' outside domain int[-3..5]"),
        (DOMAINS.replace("b = false, n = 5, m = blue", "b = 1, n = -3, m = red"), 11, 17,
         "value 1 of 'b' outside domain bool"),
    ],
    ids=[
        "glued-init", "glued-state", "glued-value", "int-outside-domain", "negative-outside-domain",
        "enum-outside-domain", "int-for-bool", "assigned-twice", "undeclared-observable",
        "missing-assignment", "state-after-transition", "transition-in-structure",
        "valuation-in-structure", "transition-from-undeclared", "duplicate-id",
        "second-init-without-blank", "duplicate-state-named-state",
        "true-for-int-after-equal-int", "int-for-bool-after-equal-bool",
    ],
)
def test_behaviour_statement_errors_keep_their_text_and_position(text, line, col, message):
    with pytest.raises(ModelFileError) as e:
        I.loads(text)
    assert (e.value.message, e.value.line, e.value.col) == (message, line, col)
