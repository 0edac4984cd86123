"""sbcheck benchmark: time to verdict on generated models.

Run from the root of a checkout::

    python3 bench/run.py --workload wide --seed 1 --seconds 30 --trace 0

Each workload runs in fresh child processes (``worker.py``) with a fixed
``PYTHONHASHSEED``, because the relational fixpoint iterates frozensets
of string pairs.  ``SETUP_RUNS`` children only set up (import
``sbcheck.cli``, generate and write the ``.sbs`` pool) so that ``setup_s``
is a median; one more child sets up and then measures.  Timings are
processor time in reference seconds (see ``worker.REFERENCE_S``), so that
the host's changing speed does not show as a change of the program.
With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run, whose spans are
written to ``bench/_out/trace-<workload>.json``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output was
correct.  ``--pin`` records the current outputs in ``bench/expected.json``.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
HASH_SEED = "0"
SETUP_RUNS = 10
CHILD_TIMEOUT = 60  # seconds past --seconds


def child(args, *extra):
    """Run one worker process; returns its JSON result."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size, *extra]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description="sbcheck benchmark")
    ap.add_argument("--workload", choices=sorted(workloads.POOL))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                    help="smoke: tiny models for the benchmark's own tests")
    ap.add_argument("--pin", action="store_true",
                    help="record the current outputs of every pool model and exit")
    args = ap.parse_args()
    if not (ROOT / "src" / "sbcheck" / "cli.py").is_file():
        sys.exit(f"error: no sbcheck sources under {ROOT / 'src'}")
    if args.pin:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        sys.exit(subprocess.run([sys.executable, str(HERE / "worker.py"), "--pin"],
                                cwd=ROOT, env=env).returncode)
    if args.workload is None:
        ap.error("--workload is required")
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))

    setup = [child(args, "--setup-only")["setup_s"] for _ in range(SETUP_RUNS)]
    result = child(args)
    setup.append(result["setup_s"])

    metrics = result["metrics"]
    if args.trace:
        declared = spec["per_layer"]
    else:
        metrics["setup_s"] = statistics.median(setup)
        declared = spec["end_to_end"]
    out = {}
    for m in declared:
        # a layer the workload never calls reads 0; an end-to-end metric is always there
        value = metrics.get(m["name"], 0) if args.trace else metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload:<12} {m['name']:<28} {value:>14.6g} {m['unit']}")
    for command, c in result["calls"].items():
        print(f"{args.workload:<12} {command + ' calls':<28} {c['n']:>14} "
              f"(median wall time of single calls {c['wall_median_s']:.6g} s, "
              f"{result['models']} models)")
    if not args.trace:
        print(f"{args.workload:<12} {'models_per_min':<28} {metrics['models_per_min']:>14.6g} "
              f"1/min (not gated)")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload:<12} {'failed_ratio':<28} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} calls)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
