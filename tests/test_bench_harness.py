"""The benchmark harness still runs against the package: a traced smoke run."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["wide", "chain", "discrepancy"])
def test_traced_smoke_run(workload):
    # --trace 1 wraps the layer functions by name, so a renamed or removed
    # function the harness traces makes the run fail
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--size", "smoke",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    # the adapt verdict solves locally, and so does the discrepancy search:
    # no command builds the whole relation through compare.weak_relation
    trace = json.loads((ROOT / "bench" / "_out" / f"trace-{workload}.json").read_text())
    assert not any(span["name"] == "adapt.weak_relation" for span in trace["spans"])


def test_bench_smoke_models_agree_with_the_oracles():
    # bench/test_bench.py reads the flat transitions, their labels and
    # tests/oracles.py; the default test paths do not collect it
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "bench/test_bench.py", "-q", "-p", "no:cacheprovider",
         "-k", "agree_with_oracles"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
