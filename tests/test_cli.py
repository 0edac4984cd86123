"""End-to-end command line tests driven through subprocesses."""

import gc
import json
import os
import subprocess
import sys

import pytest

from sbcheck import cli
from sbcheck.ingest import bundled_model_path, load, loads, save

S0 = str(bundled_model_path("predator_s0"))
S1 = str(bundled_model_path("predator_s1"))

# a system on which the two decision methods genuinely disagree: the
# relational reading requires every steady successor to stay adaptable,
# while the branching-time reading is satisfied along a single branch
DISAGREEING = '''system "split-verdict"

observables {
  x: bool;
}

behaviour {
  state q0 {x = true};
  state q1 {x = false};
  state q2 {x = true};
  state q3 {x = true} init;
  q0 -> q1;
  q3 -> q0;
  q3 -> q2;
}

structure {
  state r0: "x || !x && x";
  state r1: "x";
  state r2: "(true || !x) && x" init;
  r1 -["!x"]-> r0;
  r1 -["true"]-> r1;
  r2 -["true && !x"]-> r0;
}
'''


def run(*args, color="0"):
    env = dict(os.environ, SBCHECK_COLOR=color)
    return subprocess.run(
        [sys.executable, "-m", "sbcheck", *args],
        capture_output=True,
        text=True,
        env=env,
    )


# ---------------------------------------------------------------------------
# validate


def test_validate_ok():
    res = run("validate", S0)
    assert res.returncode == 0
    assert res.stdout == "ok: predator_s0 is well formed (14 behaviour states, 3 structure states)\n"


def test_validate_json_ok():
    res = run("validate", "--json", S1)
    assert res.returncode == 0
    assert json.loads(res.stdout) == {"ok": True, "violations": []}


def test_validate_ill_formed(tmp_path):
    bad = tmp_path / "bad.sbs"
    text = save(load(S0))
    bad.write_text(text.replace('state r2: "moved"', 'state r2: "moved && !moved"'))
    res = run("validate", str(bad))
    assert res.returncode == 3
    assert "not well formed: 1 violation(s)" in res.stdout
    assert "[unsatisfiable-label] r2:" in res.stdout
    assert "moved && !moved" in res.stdout


def test_validate_reports_initial_violation(tmp_path):
    bad = tmp_path / "bad.sbs"
    text = save(load(S0))
    q111f = "state q111f {p = 1, a0 = 1, a1 = 1, eat = false, moved = false}"
    bad.write_text(
        text.replace(" init;", ";", 1).replace(q111f + ";", q111f + " init;")
    )
    res = run("validate", str(bad))
    # the init marker now sits on a state outside the initial stable region
    assert res.returncode == 3
    assert "[initial-violation]" in res.stdout
    assert "q111f" in res.stdout


def test_parse_error_exit_code(tmp_path):
    broken = tmp_path / "broken.sbs"
    broken.write_text('system "x" junk\n')
    res = run("validate", str(broken))
    assert res.returncode == 2
    assert res.stdout == ""
    assert "error:" in res.stderr
    assert "1:12:" in res.stderr
    assert str(broken) in res.stderr


def test_missing_file_exit_code(tmp_path):
    target = str(tmp_path / "absent.sbs")
    res = run("validate", target)
    assert res.returncode == 2
    assert "cannot read" in res.stderr
    assert res.stderr.count(target) == 1  # the path is named exactly once


def test_undecodable_file_exit_code(tmp_path):
    # the first byte that is no UTF-8 is named at its line and column, in
    # characters, with lines ended as a text-mode read ends them
    text = save(load(S0))
    bad = tmp_path / "latin1.sbs"
    bad.write_bytes(b"// caf\xc3\xa9\r\r\n// d\xc3\xa9j\xc3\xa0 \xe9t\xe9\n" + text.encode())
    res = run("validate", str(bad))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == f"error: {bad}: 3:9: byte 0xe9 is not UTF-8\n"
    ok = tmp_path / "utf8.sbs"
    ok.write_bytes(b"// caf\xc3\xa9\r" + text.replace("\n", "\r\n").encode())  # "\r" ends the comment
    assert load(str(ok)) == load(S0)


# ---------------------------------------------------------------------------
# flatten


def test_flatten_summary():
    res = run("flatten", S0)
    assert res.returncode == 0
    assert res.stdout == (
        "flat system of predator_s0: 16 states, 19 transitions\n"
        "  initial: (q011t,r0)\n"
        "  steady 4, adapting 9, stuck 3\n"
    )


def test_flatten_json_matches_library():
    import sbcheck.flat as FL
    import sbcheck.ingest as ingest

    res = run("flatten", "--json", S1)
    assert res.returncode == 0
    assert res.stdout == FL.export_json(FL.flatten(ingest.load(S1)))


def test_flatten_output_is_byte_stable():
    a = run("flatten", "--json", S0)
    b = run("flatten", "--json", S0)
    assert a.stdout == b.stdout
    c = run("flatten", "--dot", S0)
    d = run("flatten", "--dot", S0)
    assert c.stdout == d.stdout
    assert c.stdout.startswith("digraph flat {")


def test_flatten_rejects_ill_formed(tmp_path):
    bad = tmp_path / "bad.sbs"
    text = save(load(S0))
    bad.write_text(text.replace('state r2: "moved"', 'state r2: "moved && !moved"'))
    res = run("flatten", str(bad))
    assert res.returncode == 3
    assert "error: model is not well formed" in res.stderr


def test_flatten_json_and_dot_conflict():
    res = run("flatten", "--json", "--dot", S0)
    assert res.returncode == 2


# ---------------------------------------------------------------------------
# adapt


def test_adapt_verdicts_first_scenario():
    res = run("adapt", S0)
    assert res.returncode == 1  # strong adaptability fails
    assert res.stdout == (
        "weak adaptability:\n"
        "  relational yes\n"
        "  ctl        yes\n"
        "strong adaptability:\n"
        "  relational no\n"
        "  ctl        no\n"
    )


def test_adapt_verdicts_second_scenario():
    res = run("adapt", S1)
    assert res.returncode == 0
    assert "no" not in res.stdout


def test_adapt_weak_only():
    res = run("adapt", "--weak", S0)
    assert res.returncode == 0
    assert "strong" not in res.stdout


def test_adapt_witness():
    res = run("adapt", "--strong", "--witness", S0)
    assert res.returncode == 1
    assert "counterexample (adaptation that never has to end):" in res.stdout
    assert "<- repeats step" in res.stdout


def test_adapt_json():
    res = run("adapt", "--json", S1)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    kinds = {p["kind"]: p for p in doc["properties"]}
    assert kinds["weak"]["verdicts"] == {"relational": True, "ctl": True}
    assert kinds["strong"]["holds"] is True
    assert doc["discrepancy"] is None


def test_adapt_reports_method_disagreement(tmp_path):
    model = tmp_path / "split.sbs"
    model.write_text(DISAGREEING)
    res = run("adapt", "--weak", str(model))
    assert res.returncode == 4
    assert "DISCREPANCY: methods disagree on weak adaptability" in res.stdout
    assert "minimal offending pair (q3, r1): relational no, ctl yes" in res.stdout


def test_adapt_disagreement_json(tmp_path):
    model = tmp_path / "split.sbs"
    model.write_text(DISAGREEING)
    res = run("adapt", "--weak", "--json", str(model))
    assert res.returncode == 4
    doc = json.loads(res.stdout)
    assert doc["discrepancy"] == {
        "kind": "weak",
        "pair": ["q3", "r1"],
        "relational": False,
        "ctl": True,
    }


def test_adapt_single_method_never_cross_checks(tmp_path):
    model = tmp_path / "split.sbs"
    model.write_text(DISAGREEING)
    res = run("adapt", "--weak", "--method", "ctl", str(model))
    assert res.returncode == 0
    assert "DISCREPANCY" not in res.stdout
    res = run("adapt", "--weak", "--method", "relational", str(model))
    assert res.returncode == 1  # the relational method alone says no


# ---------------------------------------------------------------------------
# equiv


def test_equiv_blocks():
    res = run("equiv", "--weak", S0)
    assert res.returncode == 0
    assert res.stdout == (
        "weak adaptation equivalence: 4 block(s)\n"
        "  {moved}\n"
        "  {q000f, q001f, q100f, q110f}\n"
        "  {q000t, q001t, q010f, q011f, q011t}\n"
        "  {q100t, q101f, q110t, q111f}\n"
    )


def test_equiv_strong_blocks():
    res = run("equiv", "--strong", S0)
    assert res.returncode == 0
    assert "strong adaptation equivalence: 2 block(s)" in res.stdout


def test_equiv_json():
    res = run("equiv", "--weak", "--json", S1)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["kind"] == "weak"
    assert sorted(map(sorted, doc["blocks"])) == sorted(
        map(
            sorted,
            [
                ["moved"],
                ["q000f", "q000t", "q001f", "q010f", "q100f", "q110f"],
                ["q001t", "q011f", "q011t"],
                ["q100t", "q101f", "q110t", "q111f"],
            ],
        )
    )


# ---------------------------------------------------------------------------
# ctl


def test_ctl_holds():
    res = run("ctl", "--formula", "AG(adapting -> AF steady)", S1)
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == (
        "AG(adapting -> AF steady): holds at the initial state (satisfied by 10 of 10 states)"
    )


def test_ctl_fails_with_counterexample():
    res = run("ctl", "--formula", "AG steady", S0)
    assert res.returncode == 1
    lines = res.stdout.splitlines()
    assert lines[0] == "AG steady: fails at the initial state (satisfied by 1 of 16 states)"
    assert lines[1] == "counterexample path:"
    assert lines[2].split()[-1] == "(q011t,r0)"


def test_ctl_reachability_witness():
    res = run("ctl", "--formula", "EF in(r2)", S0)
    assert res.returncode == 0
    assert "witness path:" in res.stdout
    assert res.stdout.splitlines()[-1].endswith("(moved,r2)")


def test_ctl_formula_parse_error():
    res = run("ctl", "--formula", "AG((", S0)
    assert res.returncode == 2
    assert "error: in --formula: 1:5:" in res.stderr


def test_ctl_unknown_structure_state():
    res = run("ctl", "--formula", "EF in(r9)", S0)
    assert res.returncode == 2
    assert "in --formula" in res.stderr and "r9" in res.stderr


def test_ctl_json():
    res = run("ctl", "--formula", "EF in(r2)", "--json", S0)
    doc = json.loads(res.stdout)
    assert doc["holds"] is True
    assert doc["formula"] == "EF in(r2)"
    assert len(doc["satisfying"]) == 13
    assert doc["witness"][0]["id"] == 0
    last = doc["witness"][-1]
    assert (last["q"], last["r"]) == ("moved", "r2")


def test_ctl_requires_formula():
    res = run("ctl", S0)
    assert res.returncode == 2


# ---------------------------------------------------------------------------
# simulate


def test_simulate_is_deterministic_per_seed():
    a = run("simulate", "--steps", "8", "--seed", "7", S0)
    b = run("simulate", "--steps", "8", "--seed", "7", S0)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.splitlines()[0] == "random walk of predator_s0, seed 7"
    assert a.stdout.splitlines()[1].split() == ["0", "init", "(q011t,r0)"]


def test_simulate_zero_steps():
    res = run("simulate", "--steps", "0", S1)
    assert res.returncode == 0
    assert res.stdout == "random walk of predator_s1, seed 0\n    0  init        (q011t,r0)\n"


def test_simulate_rule_names():
    # a long enough walk from the first scenario must pass through an
    # adaptation: every rule name shows up across a handful of seeds
    seen = set()
    for seed in range(6):
        res = run("simulate", "--steps", "12", "--seed", str(seed), S0)
        assert res.returncode == 0
        for line in res.stdout.splitlines()[1:]:
            parts = line.split()
            if parts and parts[0].isdigit():
                seen.add(parts[1])
    assert {"init", "Steady", "AdaptStart", "Adapt", "AdaptEnd"} <= seen


def test_simulate_reports_deadend():
    res = run("simulate", "--steps", "50", "--seed", "1", S0)
    assert res.returncode == 0
    assert "no move possible" in res.stdout.splitlines()[-1]


def test_simulate_negative_steps():
    res = run("simulate", "--steps", "-3", S0)
    assert res.returncode == 2
    assert "--steps" in res.stderr


# ---------------------------------------------------------------------------
# global behaviour


def test_no_command_is_a_usage_error():
    res = run()
    assert res.returncode == 2


def test_color_can_be_forced_on():
    res = run("validate", S0, color="1")
    assert "\x1b[" in res.stdout


def test_color_defaults_off_when_piped():
    env = dict(os.environ)
    env.pop("SBCHECK_COLOR", None)
    res = subprocess.run(
        [sys.executable, "-m", "sbcheck", "validate", S0],
        capture_output=True,
        text=True,
        env=env,
    )
    assert "\x1b[" not in res.stdout


COMMANDS = [
    ("validate", S0),
    ("flatten", S0, "--json"),
    ("adapt", S0, "--json"),
    ("equiv", S0),
    ("ctl", S0, "--formula", "EF steady"),
    ("simulate", S0),
]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", COMMANDS, ids=[a[0] for a in COMMANDS])
def test_a_closed_output_is_a_usage_error(args, unbuffered):
    # stdout is a pipe whose reader is gone before the command starts
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run([sys.executable, "-m", "sbcheck", *args], stdout=write_end,
                             stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert res.returncode == cli.EXIT_USAGE, res.stderr
    assert res.stderr.startswith("error: cannot write the output: ")
    assert res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr and "internal" not in res.stderr


def test_deep_constraint_label_gives_a_documented_exit_code(tmp_path):
    # a chain of 500, and of 2000, conjunctions, in one label, and in one
    # invariant that the initial state adapts through
    for n in (500, 2000):
        deep = " && ".join(["x"] * n)
        models = {
            "label": ("state q0 {x = true} init;\n  state q1 {x = false};\n  q0 -> q1;\n  q1 -> q0;",
                      f'state r0: "{deep}" init;\n  state r1: "!x";\n'
                      '  r0 -["!x"]-> r1;\n  r1 -["x"]-> r0;'),
            "invariant": ("state q0 {x = false} init;\n  state q1 {x = true};\n  q0 -> q1;\n  q1 -> q1;",
                          f'state r0: "!x" init;\n  state r1: "x";\n  r0 -["{deep}"]-> r1;'),
        }
        for name, (behaviour, structure) in models.items():
            model = tmp_path / f"{name}-{n}.sbs"
            model.write_text(
                f'system "deep"\n\nobservables {{\n  x: bool;\n}}\n\n'
                f"behaviour {{\n  {behaviour}\n}}\n\nstructure {{\n  {structure}\n}}\n",
                encoding="utf-8",
            )
            for argv in (["validate"], ["adapt", "--json", "--witness"], ["flatten", "--json"],
                         ["flatten", "--dot"], ["equiv"], ["simulate"],
                         ["ctl", "--formula", "EF in(r1)"]):
                res = run(*argv, str(model))
                # a verdict: the two methods disagree on the label model
                want = (4,) if (name, argv[0]) == ("label", "adapt") else (0, 1)
                assert res.returncode in want, (name, n, argv, res.stderr)


def test_long_negation_run_gives_a_documented_exit_code(tmp_path):
    # 3000 "!" before, or 3000 nested groups around, a label and an invariant
    # the initial state adapts through, or around the terms they compare
    n = 3000
    bangs, opened, closed = "!" * n, "(" * n, ")" * n
    deep = {  # label equivalent to x, invariant equivalent to !x
        "bangs": (f"{bangs}x", f"{bangs}!x"),
        "groups": (f"{opened}x{closed}", f"{opened}!x{closed}"),
        "terms": (f"{opened}k{closed} == 1", f"k == {opened}0{closed}"),
    }
    printed = {"bangs": deep["bangs"], "groups": ("x", "!x"), "terms": ("k == 1", "k == 0")}
    formulas = [f"EF @({opened}x{closed})", f"{opened}EF steady{closed}",
                f"A[{opened}steady{closed} U {opened}!@(x){closed}]",
                "A[" * 300 + "steady" + " U adapting]" * 300]
    for name, (label, invariant) in deep.items():
        text = (
            f'system "{name}"\n\nobservables {{\n  x: bool;\n  k: int[0..1];\n}}\n\n'
            "behaviour {\n  state q0 {x = true, k = 1} init;\n  state q1 {x = false, k = 0};\n"
            "  q0 -> q1;\n  q1 -> q1;\n}\n\n"
            f'structure {{\n  state r0: "{label}" init;\n  state r1: "!x";\n'
            f'  r0 -["{invariant}"]-> r1;\n}}\n'
        )
        model = tmp_path / f"{name}.sbs"
        model.write_text(text, encoding="utf-8")
        assert run("validate", str(model)).returncode == 0, name
        for argv in (["adapt", "--json", "--witness"], ["flatten", "--json"], ["flatten", "--dot"],
                     ["equiv"], ["simulate"], ["ctl", "--formula", f"EF @({label})"],
                     *(["ctl", "--formula", f] for f in formulas if name == "groups")):
            res = run(*argv, str(model))
            assert res.returncode in (0, 1), (name, argv[:2], res.stderr)
        saved = save(load(model))
        assert all(f'"{t}"' in saved for t in printed[name]), name
        assert save(loads(saved)) == saved


@pytest.mark.parametrize("formula, code", [
    ("EF @(" + " && ".join(["!eat"] * 500) + ")", 0),
    (" && ".join(["EF steady"] * 500), 0),
    (" || ".join(["adapting"] * 500), 1),
    (" && ".join(["EF steady"] * 2000), 0),
    (" || ".join(["adapting"] * 2000), 1),
    (" && ".join(["in(r0)"] * 2000), 0),
    ("EF @(" + " && ".join(["!eat"] * 2000) + ")", 0),
    (" -> ".join(["steady"] * 2000), 0),
    ("!" * 3000 + "steady", 0),
    ("!" * 3001 + "steady", 1),
    ("!" * 3000 + "AG " + "!" * 3000 + "adapting", 1),
    ("EF @(" + "!" * 3001 + "eat)", 0),
], ids=["obs-and", "and", "or", "and-2000", "or-2000", "in-and-2000", "obs-and-2000",
        "implies-2000", "not-3000", "not-3001", "not-around-a-modal", "obs-not-3001"])
def test_long_connective_chain_in_a_ctl_formula_prints_back(formula, code):
    res = run("ctl", S0, "--formula", formula)
    assert res.returncode == code, res.stderr


def test_internal_error_exits_5(monkeypatch, capsys):
    def crash(system):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "check_well_formed", crash)
    assert cli.main(["validate", S0]) == cli.EXIT_INTERNAL == 5
    err = capsys.readouterr().err
    assert err == "error: internal: RuntimeError: boom\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_main_pauses_the_collector_and_leaves_it_as_it_found_it(enabled, tmp_path, monkeypatch,
                                                                 capsys):
    broken, ill = tmp_path / "broken.sbs", tmp_path / "ill.sbs"
    broken.write_text('system "x" junk\n')
    ill.write_text(save(load(S0)).replace('state r2: "moved"', 'state r2: "moved && !moved"'))
    check, seen = cli.check_well_formed, []

    def hook(system):
        seen.append(gc.isenabled())
        if crash:
            raise RuntimeError("boom")
        return check(system)

    monkeypatch.setattr(cli, "check_well_formed", hook)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for path, crash, code in [(S0, False, 0), (broken, False, 2), (ill, False, 3),
                                  (S0, True, 5)]:
            assert cli.main(["validate", str(path)]) == code
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] * 3  # the syntax error stops before the hook


def test_main_reuses_one_parser_across_calls(monkeypatch, capsys):
    monkeypatch.setenv("SBCHECK_COLOR", "0")
    want = run("adapt", "--json", S0)
    for _ in range(2):
        assert cli.main(["adapt", "--json", S0]) == want.returncode == 1
        assert capsys.readouterr().out == want.stdout
    assert cli._build_parser() is cli._build_parser()
    with pytest.raises(SystemExit) as e:
        cli.main(["adapt", "--weak", "--strong", S0])
    assert e.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert cli.main(["validate", S0]) == 0
    assert capsys.readouterr().out.startswith("ok: predator_s0 is well formed")


def test_relational_adapt_does_not_flatten(monkeypatch, capsys):
    want = run("adapt", "--method", "relational", S0)

    def refuse(system, roots=None):
        raise AssertionError("flatten called")

    monkeypatch.setattr(cli, "flatten", refuse)
    monkeypatch.setenv("SBCHECK_COLOR", "0")
    assert cli.main(["adapt", "--method", "relational", S0]) == want.returncode == 1
    assert capsys.readouterr().out == want.stdout
