"""One workload process of the benchmark; started by ``run.py``.

The process imports ``sbcheck.cli`` from the checkout's ``src``, writes
the workload's model pool as ``.sbs`` files, then runs a closed loop: one
model at a time goes through the command mix (``adapt --json``,
``equiv --json``, ``flatten --json``), each command called in-process
through ``sbcheck.cli.main`` with stdout captured, the next call starting
only after the previous one returned.  Every output is checked against the
pins in ``expected.json`` and against the answers the workload has by
construction.  The last line of stdout is a JSON result for ``run.py``.

With ``--trace 1`` the public layer functions are wrapped from here (the
program itself is not changed) and every call records a span.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected.json"
OUT = HERE / "_out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

MIX = (("adapt", "--json"), ("equiv", "--json"), ("flatten", "--json"))

# Answers every model of a family has by construction, whatever the pins say.
CHAIN_ADAPT = {
    "properties": [
        {"kind": k, "verdicts": {"relational": True, "ctl": True}, "holds": True}
        for k in ("weak", "strong")
    ],
    "discrepancy": None,
    "witness": None,
}
GADGET_DISCREPANCY = {"kind": "weak", "pair": ["gq0", "gr0"], "relational": True, "ctl": False}


# The host's speed swings.  On the shared 2-vCPU host a fixed pure-Python
# loop took from 0.040 to 0.085 s of processor time within half a minute,
# with no steal time counted, and sbcheck's calls slowed with it; neither
# wall time nor processor time can hide that.  So every timing is divided
# by the processor time of a fixed reference kernel measured right next to
# it and multiplied by REFERENCE_S, the kernel's time on that host when
# unloaded: timings are in reference seconds, which equal seconds on the
# unloaded host and move only when the program's own work changes.
REFERENCE_S = 0.008
REFERENCE_REPEATS = 3


def _reference_kernel():
    """Dict and set work on tuples of short strings, as in sbcheck's
    relations, and nothing from sbcheck."""
    pairs = set()
    counts = {}
    for i in range(12000):
        key = ("q%d" % (i % 997), "r%d" % (i % 13))
        pairs.add(key)
        counts[key] = counts.get(key, 0) + 1
    return len(pairs)


def reference():
    """Processor seconds of the reference kernel, median of its repeats."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        c0 = time.process_time()
        _reference_kernel()
        times.append(time.process_time() - c0)
    return statistics.median(times)


def call(main, argv):
    """Run one command through ``main``; returns (exit code, stdout, wall
    seconds, processor seconds, error text or None)."""
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(list(argv))
    except SystemExit as e:  # argparse rejecting the arguments
        rc, error = e.code, f"SystemExit({e.code})"
    except Exception:  # an escaping exception is a failed call, never a verdict
        rc, error = None, traceback.format_exc()
    c1 = time.process_time()
    return rc, buf.getvalue(), time.perf_counter() - t0, c1 - c0, error


def pin_record(command, rc, out):
    """What ``expected.json`` keeps about one output."""
    if command == "adapt":
        return {"exit": rc, "json": json.loads(out)}
    data = out.encode("utf-8")
    record = {"exit": rc, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    if command == "equiv":
        record["blocks"] = len(json.loads(out)["blocks"])
    return record


def check(workload, command, rc, out, pinned):
    """Reason the output is wrong, or None when it is right."""
    if pinned is None:
        return "no pinned output for this model"
    try:
        got = pin_record(command, rc, out)
    except ValueError as e:
        return f"output is not JSON: {e}"
    if got != pinned:
        return f"output differs from the pin: exit {rc}, expected {pinned['exit']}"
    if command != "adapt":
        return None
    doc = got["json"]
    if workload == "wide" and (rc not in (0, 1) or doc["discrepancy"] is not None):
        return "methods disagree on a wide model"
    if workload == "chain" and (rc != 0 or doc != CHAIN_ADAPT):
        return "a chain model is not weakly and strongly adaptable by both methods"
    if workload == "discrepancy" and (rc != 4 or doc["discrepancy"] != GADGET_DISCREPANCY):
        return "the gadget's weak pair (gq0, gr0) is not reported"
    return None


class Tracer:
    """Spans around calls into sbcheck's public layer functions.

    A span is [name, start, end, parent span id, model id, attrs], with
    start and end read from the process's processor clock; spans stay in
    memory until ``write`` dumps them.  ``attrs`` are counts taken
    from a call's arguments and result after its end time is recorded.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.model = None
        self.patches = []  # (module, attribute, original, traced)

    def span(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            record = [name, time.process_time(), None, self.stack[-1] if self.stack else None,
                      self.model, None]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.process_time()
                self.stack.pop()
            if attrs is not None:
                record[5] = attrs(args, result)
            return result

        return traced

    def patch(self):
        """Wrap every layer function under each name its callers look it up by.

        After this, ``on`` and ``off`` swap the traced and the original
        functions in, so untraced calls run the program unchanged.
        """
        import sbcheck.adapt as adapt
        import sbcheck.cli as cli
        import sbcheck.compare as compare
        import sbcheck.ctl as ctl
        import sbcheck.flat as flat
        import sbcheck.ingest as ingest
        import sbcheck.model as model

        strong_phi = ctl.strong_formula()

        def flat_attrs(args, f):
            adapting = sum(c == flat.ADAPTING for c in f.classes)
            return {"states": len(f.states), "transitions": len(f.transitions),
                    "adapting": adapting}

        def pair_attrs(args, p):
            return {"pairs": len(p)}

        def relation_attrs(args, r):
            return {"pairs": len(r.pairs)}

        def ctl_attrs(args, r):
            return {"kind": "strong" if args[1] == strong_phi else "weak",
                    "sat": len(r.satisfying)}

        targets = [
            ("ingest.load", ingest, "load", lambda a, _: {"bytes": os.path.getsize(a[0])}),
            ("model.check_well_formed", model, "check_well_formed", None),
            ("flat.flatten", cli, "flatten", flat_attrs),
            ("flat.flatten", compare, "flatten", flat_attrs),
            ("flat.export_json", cli, "export_json", lambda _, t: {"bytes": len(t.encode())}),
            ("adapt.candidate_pairs", adapt, "candidate_pairs", pair_attrs),
            ("adapt.candidate_pairs", compare, "candidate_pairs", pair_attrs),
            ("adapt.weak_relation", compare, "weak_relation", relation_attrs),
            ("adapt.strong_relation", compare, "strong_relation", relation_attrs),
            ("adapt.equiv_partition", cli, "equiv_partition",
             lambda _, p: {"blocks": len(p.blocks)}),
            ("ctl.check_ctl", compare, "check_ctl", ctl_attrs),
            ("compare.compare_methods", cli, "compare_methods", None),
            ("compare.find_discrepancy", cli, "find_discrepancy", None),
        ]
        for name, module, attr, attrs in targets:
            original = getattr(module, attr, None)
            if not callable(original):
                raise RuntimeError(f"cannot trace {module.__name__}.{attr}: no such function")
            self.patches.append((module, attr, original, self.span(name, original, attrs)))

    def on(self):
        for module, attr, _, traced in self.patches:
            setattr(module, attr, traced)

    def off(self):
        for module, attr, original, _ in self.patches:
            setattr(module, attr, original)

    def write(self, path):
        children = {}
        for i, s in enumerate(self.spans):
            children.setdefault(s[3], []).append(i)
        self_s = {}
        for i, s in enumerate(self.spans):
            inner = sum(self.spans[j][2] - self.spans[j][1] for j in children.get(i, ()))
            self_s[s[0]] = self_s.get(s[0], 0.0) + (s[2] - s[1]) - inner
        doc = {
            "spans": [
                {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "model": s[4], **(s[5] or {})}
                for i, s in enumerate(self.spans)
            ],
            "self_s": self_s,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


RELATION_PAIRS = {"adapt.weak_relation": "weak", "adapt.strong_relation": "strong"}


def layer_values(spans, base):
    """Per-layer values of one traced command call.

    ``spans`` are the call's spans in start order, the root first, with
    span ids starting at ``base``.  Calls made inside the discrepancy search
    are charged to ``compare.*`` only, so the other layers show the cost of
    the command's own top-level calls.
    """
    root = spans[0]
    in_search = [False] * len(spans)
    v = {}
    direct = 0.0

    def add(key, x):
        v[key] = v.get(key, 0) + x

    for i in range(1, len(spans)):
        name, start, end, parent, _, attrs = spans[i]
        p = parent - base
        dt = end - start
        if p == 0:
            direct += dt
        in_search[i] = in_search[p] or spans[p][0] == "compare.find_discrepancy"
        if in_search[i]:
            if name == "flat.flatten":
                add("compare.pair_flat_states", attrs["states"])
            elif name == "adapt.candidate_pairs" and spans[p][0] == "compare.find_discrepancy":
                add("compare.pairs_tried", attrs["pairs"])
            continue
        if name == "ingest.load":
            add("ingest.load_s", dt)
            add("ingest.bytes", attrs["bytes"])
        elif name == "model.check_well_formed":
            add("model.well_formed_s", dt)
        elif name == "flat.flatten":
            add("flat.flatten_s", dt)
            v["flat.states"] = attrs["states"]
            v["flat.transitions"] = attrs["transitions"]
            v["flat.adapting_states"] = attrs["adapting"]
        elif name == "flat.export_json":
            add("flat.export_json_s", dt)
            v["flat.json_bytes"] = attrs["bytes"]
        elif name == "adapt.candidate_pairs":
            v["adapt.candidate_pairs"] = attrs["pairs"]
        elif name in RELATION_PAIRS:
            add(f"{name}_s", dt)
            v[RELATION_PAIRS[name]] = attrs["pairs"]
        elif name == "adapt.equiv_partition":
            add("adapt.equiv_partition_s", dt)
            v["adapt.equiv_blocks"] = attrs["blocks"]
        elif name == "ctl.check_ctl":
            add(f"ctl.{attrs['kind']}_check_s", dt)
            if attrs["kind"] == "strong":
                v["ctl.strong_sat_states"] = attrs["sat"]
        elif name in ("compare.compare_methods", "compare.find_discrepancy"):
            add(f"{name}_s", dt)
    for kind in RELATION_PAIRS.values():
        if kind in v:
            v[f"adapt.{kind}_survival"] = v.pop(kind) / v["adapt.candidate_pairs"]
    if "ingest.load_s" in v:
        v["ingest.mb_per_s"] = v["ingest.bytes"] / v["ingest.load_s"] / 1e6
    if root[0] == "cli.adapt":
        v["cli.self_s"] = (root[2] - root[1]) - direct
    return v


def pool_median(samples):
    """Median over the pool's models of each model's median value.

    ``samples`` maps model -> values from one run, so every model weighs
    the same however often the run visited it.
    """
    return statistics.median(statistics.median(v) for v in samples.values())


def calibrated(values, scale):
    """One call's timings (keys ending in ``_s``) in reference seconds."""
    out = {}
    for key, x in values.items():
        if key == "ingest.mb_per_s":
            x /= scale
        elif key.endswith("_s"):
            x *= scale
        out[key] = x
    return out


def write_pool(workload, size, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for seed in workloads.POOL[workload]:
        path = workdir / f"{workload}-{seed}.sbs"
        path.write_text(workloads.model_text(workload, seed, size), encoding="utf-8")
        paths[str(seed)] = str(path)
    return paths


def import_cli():
    sys.path.insert(0, str(SRC))
    import sbcheck.cli as cli

    if not pathlib.Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"sbcheck was imported from {cli.__file__}, not from {SRC}")
    return cli


def measure(args):
    # set-up is the processor time since the interpreter started, less the
    # reference runs on either side of it, in reference seconds
    c0 = time.process_time()
    before = reference()
    calibrating = time.process_time() - c0
    cli = import_cli()
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        paths = write_pool(args.workload, args.size, workdir)
        spent = time.process_time() - calibrating
        setup = {"setup_s": spent * REFERENCE_S / ((before + reference()) / 2)}
        if args.setup_only:
            return setup
        result = loop(cli, args, paths)
        result.update(setup)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def loop(cli, args, paths):
    pins = json.loads(EXPECTED.read_text(encoding="utf-8"))[args.size][args.workload]
    order = sorted(paths)
    random.Random(args.seed).shuffle(order)
    tracer = Tracer() if args.trace else None
    mains = {command: cli.main for command, *_ in MIX}
    if tracer:
        tracer.patch()
        mains = {command: tracer.span(f"cli.{command}", cli.main) for command in mains}
    times = {command: {} for command in mains}  # model -> reference seconds
    wall = {command: [] for command in mains}  # seconds, printed only
    layers = {}
    untraced = {}
    attempted = failed = mixes = 0

    def checked(main, command, seed, flags):
        nonlocal attempted, failed
        rc, out, dt, cpu, error = call(main, (command, paths[seed], *flags))
        attempted += 1
        reason = error or check(args.workload, command, rc, out, pins.get(seed, {}).get(command))
        if reason:
            failed += 1
            print(f"FAILED {command} {args.workload}-{seed}: {reason}", file=sys.stderr)
        return dt, cpu

    ref_before = reference()
    t_start = t_end = time.perf_counter()
    # the first pass over the pool warms up and is checked but not timed
    while mixes < 2 * len(order) or t_end - t_start < args.seconds:
        seed = order[mixes % len(order)]
        model = f"{args.workload}-{seed}"
        got = {}
        if tracer:
            # the same adapt call untraced, for the tracing overhead
            got["untraced"] = checked(cli.main, "adapt", seed, MIX[0][1:])
            tracer.model = model
            tracer.on()
        traced = {}
        for command, *flags in MIX:
            base = len(tracer.spans) if tracer else 0
            got[command] = checked(mains[command], command, seed, flags)
            if tracer:
                traced[command] = layer_values(tracer.spans[base:], base)
        if tracer:
            tracer.off()
        ref_after = reference()
        scale = REFERENCE_S / ((ref_before + ref_after) / 2)
        ref_before = ref_after
        mixes += 1
        if mixes <= len(order):
            t_start = t_end = time.perf_counter()
            continue
        for command, (dt, cpu) in got.items():
            (untraced if command == "untraced" else times[command]).setdefault(
                model, []).append(cpu * scale)
            if command in wall:
                wall[command].append(dt)
        for values in traced.values():
            for key, x in calibrated(values, scale).items():
                layers.setdefault(key, {}).setdefault(model, []).append(x)
        t_end = time.perf_counter()
    result = {
        "attempted": attempted,
        "failed": failed,
        "calls": {
            command: {"n": len(w), "wall_median_s": statistics.median(w)}
            for command, w in wall.items()
        },
        "models": len(order),
    }
    if not tracer:
        result["metrics"] = {
            "verdict_s": pool_median(times["adapt"]),
            "equiv_s": pool_median(times["equiv"]),
            "export_s": pool_median(times["flatten"]),
            "models_per_min": 60.0 * (mixes - len(order)) / (t_end - t_start),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return result
    metrics = {key: pool_median(samples) for key, samples in layers.items()}
    metrics["trace.overhead_s"] = pool_median(times["adapt"]) - pool_median(untraced)
    result["metrics"] = metrics
    tracer.write(OUT / f"trace-{args.workload}.json")
    return result


def pin():
    """Record every pool model's outputs at the current commit in ``expected.json``."""
    cli = import_cli()
    doc = {}
    workdir = HERE / "_work" / f"pin-{os.getpid()}"
    try:
        for size in workloads.SIZES:
            for workload in workloads.POOL:
                entry = doc.setdefault(size, {}).setdefault(workload, {})
                for seed, path in write_pool(workload, size, workdir).items():
                    entry[seed] = {}
                    for command, *flags in MIX:
                        rc, out, _, _, error = call(cli.main, (command, path, *flags))
                        if error:
                            raise RuntimeError(f"{command} {path}: {error}")
                        entry[seed][command] = pin_record(command, rc, out)
                        reason = check(workload, command, rc, out, entry[seed][command])
                        if reason:
                            raise RuntimeError(f"{command} {path}: {reason}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return {"pinned": str(EXPECTED)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.POOL))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    result = pin() if args.pin else measure(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
