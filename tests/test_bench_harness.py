"""The benchmark harness still runs against the package: a traced smoke run."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_traced_smoke_run_of_the_chain_workload():
    # --trace 1 wraps the layer functions by name, so a renamed or removed
    # function the harness traces makes the run fail
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain", "--size", "smoke",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
