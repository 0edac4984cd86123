"""Model file parsing, canonical saving and bundled models."""

import dataclasses
import pathlib
import random

import pytest

import gen
import oracles
import sbcheck.formula as F
import sbcheck.ingest as I
from sbcheck.errors import ModelError, ModelFileError

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
    odd = dataclasses.replace(sys, name='a "quoted" \\ name')
    again = I.loads(I.save(odd))
    assert again.name == 'a "quoted" \\ name'


def test_save_refuses_a_newline_in_the_name():
    odd = dataclasses.replace(I.loads(BASE), name="two\nlines")
    with pytest.raises(ModelError, match="newline"):
        I.save(odd)


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


def test_enum_value_colliding_with_observable():
    check_error(
        BASE.replace("x: bool;", "x: bool;\n  m: enum {x, y};"),
        5,
        3,
        "duplicate name 'x'",
    )


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
