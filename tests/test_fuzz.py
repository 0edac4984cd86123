"""Seeded fuzzing of the front ends: tokens, `.sbs` models, CTL text, flat JSON, connective chains.

Each family mutates valid inputs, or builds them, with a fixed seed, so a
failure names the case that reproduces it.  Bad input must give a
documented exit code or error class, never an internal failure, and a
valid formula must print back to the tree it parses to.
"""

import collections
import json
import pathlib
import random
import sys

import gen
import oracles
import pytest
import sbcheck.ctl as C
import sbcheck.flat as FL
import sbcheck.formula as F
import sbcheck.ingest as I
from sbcheck import _lex, cli
from sbcheck.errors import ModelError, ModelFileError
from sbcheck.ingest import bundled_model, bundled_model_path

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402


def _sources():
    texts = [bundled_model_path(w).read_text(encoding="utf-8") for w in ("predator_s0", "predator_s1")]
    texts += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "acceptance_artifacts").glob("*.sbs"))]
    texts += [workloads.model_text(w, 1, "smoke") for w in ("wide", "chain", "discrepancy")]
    return texts


FRAGMENTS = [
    "state", "init", ";", "{", "}", "->", "-[", "]->", ":", ",", "=", '"x"', '""', '"p == 0 &&"',
    "q0", "r0", "true", "-1", "..", "int[0..1]", "behaviour {", "structure {",
    'state r9: "true" init;', "state q9 {} init;", '-["true"]->', '"((((x"',
]


def _mutant(rng, text):
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        op = rng.randrange(4)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        else:
            words = lines[i].split(" ")
            if op == 2:
                del words[rng.randrange(len(words))]
            else:
                words.insert(rng.randrange(len(words) + 1), rng.choice(FRAGMENTS))
            lines[i] = " ".join(words)
        lines = lines or [""]
    return "\n".join(lines)


SOUP = [
    "->", "!=", "<=", ">=", "==", "&&", "||", "!", "<", ">", "+", "-", "(", ")", "[", "]", "@",
    "..", "-[", "]->", "{", "}", ":", ";", ",", "=", "0", "42", "x", "q0", "AG", "_a1", '"x"',
    '"a // b"', '"\\""', '"', " ", " ", "\t", "\r", "\n", "\n", "//", "// c", "/", "$", "#",
    "?", "\\", ".", "|", "&", "\u00e9", "state", "init", "true", "= ",
]


@pytest.mark.parametrize(
    "lexer", [I.LEXER, F.LEXER, C.LEXER, I.STATEMENTS], ids=["sbs", "formula", "ctl", "statements"]
)
def test_lexer_agrees_with_the_token_oracle(lexer):
    rng = random.Random(12)
    sources = _sources()
    texts = [_mutant(rng, rng.choice(sources)) for _ in range(150)]
    texts += ["".join(rng.choices(SOUP, k=rng.randint(0, 30))) for _ in range(500)]
    for case, text in enumerate(texts):
        try:
            want = oracles.tokens_oracle(lexer.rules, lexer.error_cls, text)
        except lexer.error_cls as e:
            want = (type(e), e.message, e.line, e.col)
        try:
            got = [(t.kind, t.text, t.line, t.col) for t in lexer.tokenize(text)]
        except lexer.error_cls as e:
            got = (type(e), e.message, e.line, e.col)
        assert got == want, (case, text)


def _gap(rng, required=False):
    r = rng.random()
    if r < 0.01:
        return " // c\n"
    if r < 0.15:
        return rng.choice(["\t", "\r\n", "\n", "  ", " \r\n\t"])
    return "" if r < 0.35 and (not required or r < 0.17) else " "


VALUES = {
    "b": ["true", "false"],
    "n": ["0", "1", "-3", "- 3", "-\n2", "5", "005", "-0", "-\t1"],
    "m": ["red", "green", "blue"],
    "z": ["1"],
}
BAD_VALUES = ["1", "red", "6", "-4", "x", "purple", "true", "2", "3red", "-", "--1"]
TWINS = {"true": "1", "false": "0", "1": "true", "0": "false"}  # equal values of other types


def _random_model(rng):
    """A model whose behaviour block spells its statements in random ways.

    Blanks, CRLF, tabs and comments go between the words; some states repeat
    the valuation before them, now and then with one value swapped for an
    equal one of another type (``1`` for ``true``).  A few statements carry
    an error: a value outside its domain, a missing,
    repeated or undeclared assignment, an undeclared state, a second or no
    ``init``, or a state after a transition.
    """
    ids = rng.sample(["q0", "q1", "q2", "q3", "state", "init", "a_1"], rng.randint(1, 5))
    marked = {rng.choice(ids)} if rng.random() < 0.95 else set(rng.sample(ids, min(2, len(ids))))
    states = []
    assigned = None
    for q in ids:
        if assigned and rng.random() < 0.15:  # the last valuation, maybe with one value retyped
            i = rng.randrange(len(assigned))
            n, value = assigned[i]
            assigned[i] = n, TWINS.get(value, value) if rng.random() < 0.7 else value
        else:
            names = rng.sample(["b", "n", "m"], 3)
            if rng.random() < 0.02:
                del names[0]
            if rng.random() < 0.02:
                names.insert(rng.randrange(len(names) + 1), rng.choice(["b", "z"]))
            assigned = [
                (n, rng.choice(VALUES[n] if rng.random() < 0.98 else BAD_VALUES)) for n in names
            ]
        body = ("," + _gap(rng)).join(
            f"{n}{_gap(rng)}={_gap(rng)}{value}{_gap(rng)}" for n, value in assigned
        )
        init = f"{_gap(rng)}init" if q in marked else ""
        head = f"state{_gap(rng, True)}{q}{_gap(rng)}"
        states.append(f"{head}{{{_gap(rng)}{body}}}{init}{_gap(rng)};")
    ends = ids + ["zz"] * (rng.random() < 0.03)
    edges = [
        f"{rng.choice(ends)}{_gap(rng)}->{_gap(rng)}{rng.choice(ends)}{_gap(rng)};"
        for _ in range(rng.randint(0, 6))
    ]
    statements = states + edges
    if rng.random() < 0.03:
        statements.append(statements.pop(rng.randrange(len(states))))
    sep = rng.choice(["\n  ", "\r\n\t", " ", "\n// note\n"])
    return (
        'system "f"\n\n'
        "observables {\n  b: bool;\n  n: int[-3..5];\n  m: enum {red, green, blue};\n}\n\n"
        f"behaviour {{{sep}{sep.join(statements)}\n}}\n\n"
        'structure {\n  state r: "b || m == red" init;\n  r -["n > 0"]-> r;\n}\n'
    )


def _boundary_model(statements, seps=("\n  ", "\r\n", " ", "\r\n\t")):
    """A model with these behaviour statements, apart by each of ``seps`` in turn."""
    block = "".join(f"{seps[i % len(seps)]}{st}" for i, st in enumerate(statements))
    return (
        'system "f"\n\n'
        "observables {\n  b: bool;\n  n: int[-3..5];\n  m: enum {red, green, blue};\n}\n\n"
        f"behaviour {{{block}\n}}\n\n"
        'structure {\n  state r: "b || m == red" init;\n  r -["n > 0"]-> r;\n}\n'
    )


def _padded_to(statements, end, statement):
    """``statements`` and then ``statement`` with blanks before its ``;``, so
    that, apart by single spaces, it ends ``end`` characters after the start
    of the first."""
    used = len(" ".join(statements)) + 1 + len(statement)
    return statements + [statement[:-1] + " " * (end - used) + ";"]


BOUNDARY_STATES = [
    f"state q{i} {{b = {str(i % 3 > 0).lower()}, n = {i % 5}, m = red}}{' init' * (i == 0)};"
    for i in range(I.RUN_LENGTH // 20)
]
BOUNDARY_EDGES = [f"q{i} -> q{i * 7 % len(BOUNDARY_STATES)};" for i in range(len(BOUNDARY_STATES))]


def _run_boundary_models():
    """Behaviour blocks longer than one run, runs cut by the length bound,
    and errors inside a run and on either side of a run's end.

    Returns (text, whether the statement path reads it without falling back).
    """
    states, edges, k, n = BOUNDARY_STATES, BOUNDARY_EDGES, 150, I.RUN_LENGTH
    comments = ("\n  ", "\n// note\n  ", "\r\n", "\r\n\t// x\r\n", " ")

    def spaced(statements):
        return _boundary_model(statements, (" ",))

    def changed(old, new, i=5):  # every statement, with state ``i`` changed
        return _boundary_model(states[:i] + [states[i].replace(old, new)] + states[i + 1 :] + edges)

    def padded(end, statement=states[k], rest=states[k + 1 :] + edges):
        return spaced(_padded_to(states[:k], end, statement) + rest)

    structure = "\n}\n\nstructure {\n "
    return [
        (_boundary_model(states + edges), True),  # three runs
        (_boundary_model(states + edges, comments), True),
        (padded(n), True),  # a state that ends at the bound
        (padded(n + 1), True),  # ... and one the bound cuts
        (padded(2 * n), True),  # ... and one longer than a run
        (_boundary_model(states[:3] + edges[:1] + states[3:6]), False),  # a state after an edge
        (padded(n, edges[0], states[k:]), False),  # ... that opens the next run
        (_boundary_model(states[:k] + states[1:2] + states[k:] + edges), False),  # duplicate state
        (changed("};", "} init;", k), False),  # a second init
        (changed(", n", "; n"), False),  # ';' inside braces
        (changed("};", "} initx;"), False),
        (changed("};", "} init init;"), False),
        (_boundary_model(states + edges[:3] + ["q0 -> ;"] + edges[3:]), False),
        (_boundary_model(states + edges).replace(structure, "}structure{ "), True),
        (_boundary_model(states + edges).replace(structure, "}structure{q0 -> q1;"), False),
        (STRAY, False),
    ]


# One stray character between two statements, in a model whose empty
# valuation assigns every observable.
STRAY = (
    'system "f"\nobservables {}\nbehaviour {\n  state a {} init; =a -> a;\n}\n'
    'structure {\n  state r: "true" init;\n}\n'
)


def test_runs_end_at_the_last_statement_within_the_length_bound():
    states, edges, k, n = BOUNDARY_STATES, BOUNDARY_EDGES, 150, I.RUN_LENGTH

    def runs(statements):
        tokens = I.STATEMENTS.tokenize(_boundary_model(statements, (" ",)))
        return [t.text for t in tokens if t.kind == "run"]

    for end, first in ((n, k + 1), (n + 1, k), (2 * n, k)):
        statements = _padded_to(states[:k], end, states[k]) + states[k + 1 :] + edges
        got = runs(statements)
        assert all(len(run) <= n for run in got)
        assert got[0] == " ".join(statements[:first]), end
        if end == 2 * n:  # a statement longer than a run is read token by token
            assert got[1].startswith(statements[k + 1]), end
        else:
            assert got[1].startswith(statements[first]), end
    statements = _padded_to(states[:k], n, edges[0]) + states[k:]
    got = runs(statements)
    assert got[0].endswith(statements[k]) and len(got[0]) == n
    assert got[1].startswith(states[k])  # the state after the edge opens the next run


def _read_outcome(read, text):
    """What ``read(text)`` gives: the system with its valuations' item order, or the error."""
    try:
        system = read(text)
    except ModelFileError as e:
        return (type(e), e.message, e.line, e.col)
    valuations = [tuple(system.observe(q).items()) for q in system.behaviour.states]
    return system, I.save(system), valuations


def test_statement_reader_agrees_with_the_token_grammar():
    rng = random.Random(13)
    sources = _sources()
    texts = [_mutant(rng, rng.choice(sources)) for _ in range(200)]
    texts += [_random_model(rng) for _ in range(800)]
    for case, (text, read_fast) in enumerate(_run_boundary_models()):
        want = _read_outcome(lambda t: I._read(I.LEXER.parser(t)), text)
        assert _read_outcome(I.loads, text) == want, (case, text)
        try:
            assert I._read(I.STATEMENTS.parser(text)) == want[0], (case, text)
        except ModelFileError:
            assert not read_fast, (case, text)
        else:
            assert read_fast, (case, text)
    fast = 0
    for case, text in enumerate(texts):
        want = _read_outcome(lambda t: I._read(I.LEXER.parser(t)), text)
        assert _read_outcome(I.loads, text) == want, (case, text)
        try:
            I._read(I.STATEMENTS.parser(text))
        except ModelFileError:
            continue
        fast += 1
    assert fast >= len(texts) // 2  # most texts take the statement path


def test_line_starts_are_found_only_for_a_position_and_once_per_text(monkeypatch):
    built = collections.Counter()  # Source -> times its line starts were found
    line_starts = _lex.Source.line_starts

    def counted(source):
        built[source] += 1
        return line_starts(source)

    monkeypatch.setattr(_lex.Source, "line_starts", counted)

    def finds(text):  # times the line starts of ``text`` itself were found
        return sum(n for source, n in built.items() if source.text is text)

    for workload, seeds in workloads.POOL.items():
        for seed in seeds:
            text = workloads.model_text(workload, seed)
            built.clear()
            I.loads(text)
            assert finds(text) == 0, (workload, seed)  # a clean load asks no position in the file
            assert set(built.values()) <= {1}  # each formula's text once
    rng = random.Random(5)
    sources = _sources()
    found = 0
    for case in range(200):
        text = _mutant(rng, rng.choice(sources))
        built.clear()
        try:
            I.loads(text)
        except ModelFileError:
            pass
        assert finds(text) <= 1, (case, text)  # the two readings share them
        assert set(built.values()) <= {1}, (case, text)
        found += finds(text)
    assert found > 50
    # a lookup is a bisection: no scan of a long line for each node
    formula = " && ".join(["x"] * 30_000)
    built.clear()
    assert len(F.parse_raw(formula).args) == 30_000
    assert [(source.text, n) for source, n in built.items()] == [(formula, 1)]


def _exit_code(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as e:  # argparse usage errors
        code = e.code
    capsys.readouterr()
    return code


def test_model_file_mutants_exit_with_documented_codes(tmp_path, capsys):
    rng = random.Random(2024)
    sources = _sources()
    path = tmp_path / "m.sbs"
    loaded = 0
    for case in range(100):
        path.write_text(_mutant(rng, rng.choice(sources)), encoding="utf-8")
        for argv in (["validate"], ["adapt", "--json", "--witness"], ["flatten", "--json"]):
            code = _exit_code([*argv, str(path)], capsys)
            assert code in (0, 1, 2, 3, 4), (case, argv, path.read_text(encoding="utf-8"))
            loaded += argv == ["validate"] and code in (0, 3)
    assert loaded > 10  # the mutants reach the commands behind the loader


CTL_WORDS = [
    "EF", "AF", "EG", "AG", "EX", "AX", "E[", "A[", "U", "]", "(", ")", "!", "&&", "||", "->",
    "steady", "adapting", "in(r0)", "in(r9)", "in(", "@(", "@(eat)", "p == 0", "true", "false",
    "x", "-", "==", "1", "@", "[", "",
]


def test_ctl_formula_strings_exit_with_documented_codes(capsys):
    rng = random.Random(7)
    s0 = str(bundled_model_path("predator_s0"))
    for case in range(200):
        phi = gen.random_ctl_formula(rng, ["r0", "r9"], ["eat", "moved", "p"], 2)
        words = C.unparse_ctl(phi).split(" ")
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(len(words) + 1)
            if i < len(words) and rng.random() < 0.5:
                del words[i]
            else:
                words.insert(i, rng.choice(CTL_WORDS))
        text = " ".join(words)
        # the "=" form keeps argparse from reading a leading "-" as an option
        code = _exit_code(["ctl", s0, f"--formula={text}"], capsys)
        assert code in (0, 1, 2), (case, text)


def test_flat_json_field_mutants_are_rejected_or_written_back():
    system = bundled_model("predator_s0")
    text = FL.export_json(FL.flatten(system))
    doc = json.loads(text)
    rng = random.Random(11)
    n = len(doc["states"])
    values = [-2, -1, 0, 1, n - 1, n, n + 1, True, False, None, 1.5, "bogus", "steady", "adapt",
              "true", "r0", [], {}]
    for case in range(800):
        bad = json.loads(text)
        spot = rng.randrange(4)
        if spot == 0:
            row, keys = bad, ["states", "init", "transitions"]
        elif spot == 1:
            row, keys = rng.choice(bad["states"]), ["id", "q", "r", "pending", "class"]
        elif spot == 2:
            pending = [s["pending"] for s in bad["states"] if s["pending"] is not None]
            row, keys = rng.choice(pending), ["inv", "target"]
        else:
            row, keys = rng.choice(bad["transitions"]), ["from", "to", "kind", "r", "inv", "target"]
        key = rng.choice(keys)
        if rng.random() < 0.1:
            del row[key]
        else:
            row[key] = rng.choice(values)
        mutant = json.dumps(bad, indent=2) + "\n"
        try:
            again = FL.export_json(FL.import_json(mutant, system))
        except ModelError:
            continue
        assert again == mutant, (case, spot, key, row.get(key, "<deleted>"))


def test_flat_json_extra_keys_are_rejected_or_written_back():
    # one key more at each level: the document, a state row, a pending object, a transition row
    system = bundled_model("predator_s0")
    text = FL.export_json(FL.flatten(system))
    for spot in range(4):
        bad = json.loads(text)
        pending = next(s["pending"] for s in bad["states"] if s["pending"] is not None)
        row = (bad, bad["states"][0], pending, bad["transitions"][0])[spot]
        row["extra"] = 1
        mutant = json.dumps(bad, indent=2) + "\n"
        try:
            again = FL.export_json(FL.import_json(mutant, system))
        except ModelError as e:
            assert str(e).startswith("invalid flat JSON: "), spot
            continue
        assert again == mutant, spot


def _chain_text(rng, operands, n, depth=0):
    """``n`` operands joined by ``&&``/``||``/``->``, some runs of them grouped.

    One connective dominates so that long runs of it occur; a group may be
    redundant (one operand, or the associative side of its own connective)
    or needed.
    """
    main = rng.choice(["&&", "||", "->"])
    parts = []
    while n:
        k = min(n, rng.choice([1, 2, 3, 50]))
        if depth < 4 and rng.random() < 0.1:
            parts.append("(" + _chain_text(rng, operands, k, depth + 1) + ")")
        else:
            k = 1
            parts.append(rng.choice(operands))
        n -= k
    text = parts[0]
    for part in parts[1:]:
        op = main if rng.random() < 0.8 else rng.choice(["&&", "||", "->"])
        text += f" {op} {part}"
    return text


@pytest.mark.parametrize("parse, unparse, operands", [
    (F.parse_raw, F.unparse, ["a", "b", "!a", "true", "x == 1", "(a)", "!(a && b)"]),
    (C.parse_ctl, C.unparse_ctl,
     ["steady", "adapting", "in(r0)", "EF steady", "!adapting", "@(a && b -> c)",
      "AX(steady || adapting)"]),
], ids=["formula", "ctl"])
def test_connective_chains_print_back_to_the_same_tree(parse, unparse, operands):
    rng = random.Random(5)
    for case, n in enumerate([1, 2, 3, 5, 20, 200] * 20 + [3000] * 3):
        text = _chain_text(rng, operands, n)
        tree = parse(text)
        printed = unparse(tree)
        assert parse(printed) == tree, (case, text[:200])
        assert unparse(parse(printed)) == printed, (case, text[:200])
