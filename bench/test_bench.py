"""Smoke tests of the benchmark harness at the ``smoke`` size.

Run from the root of the repository with ``python3 -m pytest bench``.
They keep the harness from rotting: every workload runs end to end and
reports every declared metric, the smoke models' verdicts and flat
systems agree with the independent oracles in ``tests/oracles.py``, and a
wrong output makes the benchmark fail.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from sbcheck import ingest  # noqa: E402
from sbcheck.compare import rerooted  # noqa: E402
from sbcheck.ctl import ctl_oracle, weak_formula  # noqa: E402
from sbcheck.flat import flatten, import_json  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(root, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def smoke_run(root, workload, trace=0):
    return run_bench(root, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "smoke")


def copy_of_checkout(tmp_path, with_src):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work", "_out"))
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = smoke_run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in declared
    ]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _triple(state):
    return oracles.flat_state_triple(state)


@pytest.mark.parametrize(
    "workload,seed", [(w, s) for w in workloads.POOL for s in workloads.POOL[w]]
)
def test_smoke_models_agree_with_oracles(tmp_path, workload, seed):
    path = tmp_path / f"{workload}-{seed}.sbs"
    path.write_text(workloads.model_text(workload, seed, "smoke"), encoding="utf-8")
    cli = worker.import_cli()
    system = ingest.load(path)

    rc, out, _, _, error = worker.call(cli.main, ("adapt", str(path), "--json"))
    assert error is None
    doc = json.loads(out)
    init = (system.behaviour.init, system.structure.init)
    for entry in doc["properties"]:
        strong = entry["kind"] == "strong"
        assert entry["verdicts"]["relational"] == (init in oracles.relation_oracle(system, strong))
    if workload == "discrepancy":
        # the reported pair disagrees by the oracles too
        assert ("gq0", "gr0") in oracles.relation_oracle(system, False)
        reflat = flatten(rerooted(system, "gq0", "gr0"))
        assert reflat.init_index not in ctl_oracle(reflat, weak_formula())

    rc, out, _, _, error = worker.call(cli.main, ("flatten", str(path), "--json"))
    assert error is None and rc == 0
    flat = import_json(out, system)
    ref = oracles.flat_oracle(system)
    assert {_triple(s) for s in flat.states} == ref["states"]
    assert {
        (_triple(t.source), _triple(t.target), oracles.flat_label_tuple(t.label))
        for t in flat.transitions
    } == ref["transitions"]
    assert {_triple(s): c for s, c in zip(flat.states, flat.classes)} == ref["classes"]


def test_check_rejects_wrong_outputs():
    pinned = worker.pin_record("flatten", 0, "{}\n")
    assert worker.check("wide", "flatten", 0, "{}\n", pinned) is None
    assert worker.check("wide", "flatten", 0, "{ }\n", pinned)
    assert worker.check("wide", "flatten", 1, "{}\n", pinned)
    assert worker.check("wide", "flatten", 0, "{}\n", None)
    # a chain pin that contradicts the answer the family has by construction
    wrong = dict(worker.CHAIN_ADAPT, discrepancy=worker.GADGET_DISCREPANCY)
    out = json.dumps(wrong)
    assert worker.check("chain", "adapt", 0, out, worker.pin_record("adapt", 0, out))


def test_escaping_exception_is_a_failed_call():
    def crash(argv):
        raise RecursionError("deep")

    rc, _, _, _, error = worker.call(crash, ["adapt"])
    assert rc is None and "RecursionError" in error


def test_wrong_pin_makes_the_run_fail(tmp_path):
    root = copy_of_checkout(tmp_path, with_src=True)
    expected = root / "bench" / "expected.json"
    doc = json.loads(expected.read_text(encoding="utf-8"))
    doc["smoke"]["chain"]["1"]["flatten"]["sha256"] = "0" * 64
    expected.write_text(json.dumps(doc), encoding="utf-8")
    proc = smoke_run(root, "chain")
    assert proc.returncode != 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    root = copy_of_checkout(tmp_path, with_src=False)
    proc = smoke_run(root, "wide")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
