"""Command-line front end.

Exit codes:

* 0  success; the checked property holds
* 1  the checked property fails
* 2  usage error, unreadable file, or syntax error in a model or formula
* 3  the model is not well formed
* 4  the relational and CTL methods disagree (reported as DISCREPANCY)
* 5  internal error: an unexpected exception, reported in one line

``SBCHECK_COLOR=1`` forces coloured output, ``SBCHECK_COLOR=0`` disables
it; otherwise colour is used only on a terminal.

Each command works out the values it reports once, builds from them a
JSON document and the lines of its text, and returns through
:func:`_emit`, which prints the one that ``--json`` asks for.  Only
``flatten --json`` and ``flatten --dot`` write their exports directly.
Every ``--json`` output, ``flatten``'s too, comes from the one writer of
:mod:`sbcheck.flat` and equals ``json.dumps(doc, indent=2)``.
"""

import argparse
import functools
import gc
import os
import random
import sys

from . import ingest
from .adapt import STRONG, WEAK, adaptable, equiv_partition
from .compare import compare_methods, find_discrepancy
from .ctl import adaptability_formula, check_ctl, parse_ctl, strong_counterexample, unparse_ctl
from .errors import CtlError, ModelError, SourceError
from .flat import (
    ADAPTING,
    STEADY,
    STUCK,
    _json,
    export_dot,
    export_json,
    flatten,
    rule_name,
    state_json,
    state_text,
    successors,
)
from .model import check_well_formed, require_well_formed

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_MODEL = 3
EXIT_DISCREPANCY = 4
EXIT_INTERNAL = 5

_GREEN, _RED, _YELLOW = "32", "31", "33"


def _want_color():
    forced = os.environ.get("SBCHECK_COLOR")
    return forced == "1" if forced in ("0", "1") else sys.stdout.isatty()


def _paint(text, code, on):
    return f"\x1b[{code}m{text}\x1b[0m" if on else text


def _yesno(value, color):
    return _paint("yes", _GREEN, color) if value else _paint("no", _RED, color)


def _emit(args, doc, lines, code):
    """Print ``doc`` as JSON under ``--json``, else the text ``lines``; return ``code``."""
    print(_json(doc) if args.json else "\n".join(lines))
    return code


def _path(flat, path, lasso=False):
    """A state-id path, or None, as JSON rows and as numbered text steps; the
    last step of a lasso names the step it repeats."""
    if path is None:
        return None, []
    system, states = flat.system, flat.states
    steps = [f"  {n:>3}  {state_text(system, states[i])}" for n, i in enumerate(path)]
    if lasso:
        steps[-1] += f"  <- repeats step {path.index(path[-1])}"
    return [dict(state_json(system, states[i]), id=i) for i in path], steps


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing does not change it."""
    ap = argparse.ArgumentParser(
        prog="sbcheck",
        description="Verify adaptability of two-level (behaviour + structure) systems.",
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    def command(name, help, run):
        p = sub.add_parser(name, help=help)
        p.add_argument("file", help="model file (.sbs)")
        p.set_defaults(run=run)
        return p

    command("validate", "check that a model is well formed", cmd_validate)

    p = command("flatten", "compute the flat transition system", cmd_flatten)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--json", action="store_true", help="emit the flat system as JSON")
    g.add_argument("--dot", action="store_true", help="emit the flat system as Graphviz DOT")

    p = command("adapt", "decide weak/strong adaptability", cmd_adapt)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--weak", action="store_true", help="check weak adaptability only")
    g.add_argument("--strong", action="store_true", help="check strong adaptability only")
    g.add_argument("--both", action="store_true", help="check both properties (default)")
    p.add_argument(
        "--method",
        choices=("relational", "ctl", "both"),
        default="both",
        help="decision method (default: both, cross-checked)",
    )
    p.add_argument(
        "--witness",
        action="store_true",
        help="print a counterexample path when strong adaptability fails",
    )

    p = command("equiv", "group behaviour states adaptable to the same structure states",
                cmd_equiv)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--weak", action="store_true", help="use the weak relation (default)")
    g.add_argument("--strong", action="store_true", help="use the strong relation")

    command("ctl", "check a CTL formula on the flat system", cmd_ctl).add_argument(
        "--formula", required=True, help="CTL formula text"
    )

    p = command("simulate", "random walk through the flat semantics", cmd_simulate)
    p.add_argument("--steps", type=int, default=10, help="number of steps (default 10)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    for name, p in sub.choices.items():  # last, so that the usage lists it last
        if name != "flatten":  # whose --json excludes --dot
            p.add_argument("--json", action="store_true", help="machine-readable output")
    return ap


def cmd_validate(args, color):
    system = ingest.load(args.file)
    report = check_well_formed(system)
    violations = report.violations
    if report.ok:
        lines = [
            f"{_paint('ok', _GREEN, color)}: {system.name} is well formed "
            f"({len(system.behaviour.states)} behaviour states, "
            f"{len(system.structure.states)} structure states)"
        ]
    else:
        lines = [f"{_paint('not well formed', _RED, color)}: {len(violations)} violation(s)"]
        lines += [f"  [{v.kind}] {v.subject}: {v.message}" for v in violations]
    rows = [{"kind": v.kind, "subject": v.subject, "message": v.message} for v in violations]
    return _emit(args, {"ok": report.ok, "violations": rows}, lines,
                 EXIT_OK if report.ok else EXIT_MODEL)


def cmd_flatten(args, color):
    system = ingest.load(args.file)
    flat = flatten(system)
    if args.json or args.dot:
        sys.stdout.write((export_json if args.json else export_dot)(flat))
        return EXIT_OK
    steady, adapting, stuck = map(flat.classes.count, (STEADY, ADAPTING, STUCK))
    lines = [
        f"flat system of {system.name}: {len(flat.states)} states, {sum(map(len, flat.succ))} transitions",
        f"  initial: {state_text(system, flat.states[flat.init_index])}",
        f"  steady {steady}, adapting {adapting}, stuck {stuck}",
    ]
    return _emit(args, None, lines, EXIT_OK)


def cmd_adapt(args, color):
    system = ingest.load(args.file)
    flat = flatten(system) if args.method != "relational" or args.witness else None
    kinds = [WEAK] if args.weak else [STRONG] if args.strong else [WEAK, STRONG]
    properties, discrepancy, lines = [], None, []
    for kind in kinds:
        if args.method == "both":
            mv = compare_methods(system, kind, flat=flat)
            verdicts = {"relational": mv.relational, "ctl": mv.ctl}
        elif args.method == "relational":
            verdicts = {"relational": adaptable(system, kind)}
        else:
            verdicts = {"ctl": check_ctl(flat, adaptability_formula(kind)).holds_at_init}
        agreed = set(verdicts.values())
        holds = agreed.pop() if len(agreed) == 1 else None  # None: the methods run disagree
        if holds is None and discrepancy is None:
            pair, rel_holds, ctl_holds = find_discrepancy(system, kind, flat)
            discrepancy = {"kind": kind, "pair": list(pair), "relational": rel_holds,
                           "ctl": ctl_holds}
        properties.append({"kind": kind, "verdicts": verdicts, "holds": holds})
        lines.append(f"{kind} adaptability:")
        lines += [f"  {method:<10} {_yesno(v, color)}" for method, v in verdicts.items()]

    if discrepancy is not None:
        q, r = discrepancy["pair"]
        lines += [
            f"{_paint('DISCREPANCY', _YELLOW, color)}: methods disagree on "
            f"{discrepancy['kind']} adaptability",
            f"  minimal offending pair ({q}, {r}): "
            f"relational {_yesno(discrepancy['relational'], color)}, "
            f"ctl {_yesno(discrepancy['ctl'], color)}",
        ]
    # strong is the last kind checked, so ``holds`` is its verdict
    witness = args.witness and kinds[-1] == STRONG and holds is not True
    rows, steps = _path(flat, strong_counterexample(flat) if witness else None, lasso=True)
    if rows is not None:
        lines += ["counterexample (adaptation that never has to end):", *steps]

    code = (EXIT_DISCREPANCY if discrepancy is not None
            else EXIT_OK if all(entry["holds"] for entry in properties) else EXIT_PROPERTY)
    return _emit(args, {"properties": properties, "discrepancy": discrepancy, "witness": rows},
                 lines, code)


def cmd_equiv(args, color):
    part = equiv_partition(ingest.load(args.file), STRONG if args.strong else WEAK)
    blocks = [sorted(b) for b in part.blocks]
    lines = [f"{part.kind} adaptation equivalence: {len(blocks)} block(s)"]
    lines += ["  {" + ", ".join(b) + "}" for b in blocks]
    return _emit(args, {"kind": part.kind, "blocks": blocks}, lines, EXIT_OK)


def cmd_ctl(args, color):
    phi = parse_ctl(args.formula)  # before the model, so a bad formula costs no load
    flat = flatten(ingest.load(args.file))
    result = check_ctl(flat, phi)
    text, holds = unparse_ctl(phi), result.holds_at_init
    rows, steps = _path(flat, result.witness)
    verdict = _paint("holds", _GREEN, color) if holds else _paint("fails", _RED, color)
    lines = [
        f"{text}: {verdict} at the initial state "
        f"(satisfied by {len(result.satisfying)} of {len(flat.states)} states)"
    ]
    if rows is not None:
        lines += [f"{'witness' if holds else 'counterexample'} path:", *steps]
    doc = {"formula": text, "holds": holds, "satisfying": sorted(result.satisfying),
           "witness": rows}
    return _emit(args, doc, lines, EXIT_OK if holds else EXIT_PROPERTY)


def cmd_simulate(args, color):
    if args.steps < 0:
        print("error: --steps must not be negative", file=sys.stderr)
        return EXIT_USAGE
    system = ingest.load(args.file)
    require_well_formed(system)
    rng = random.Random(args.seed)
    walk = [("init", (system.behaviour.init, system.structure.init, None))]  # (rule, state)
    for _ in range(args.steps):
        state = walk[-1][1]
        out = successors(system, state)
        if not out:
            break
        chosen = out[rng.randrange(len(out))]
        walk.append((rule_name(state, chosen), chosen))
    stopped = "steps" if len(walk) > args.steps else "deadend"  # short only at a dead end
    lines = [f"random walk of {system.name}, seed {args.seed}"]
    lines += [f"  {n:>3}  {rule:<11} {state_text(system, s)}" for n, (rule, s) in enumerate(walk)]
    if stopped == "deadend":
        lines.append(f"stopped after {len(walk) - 1} step(s): no move possible")
    doc = {
        "seed": args.seed,
        "initial": state_json(system, walk[0][1]),
        "steps": [{"rule": rule, "state": state_json(system, s)} for rule, s in walk[1:]],
        "stopped": stopped,
    }
    return _emit(args, doc, lines, EXIT_OK)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    color = _want_color()
    collecting = gc.isenabled()
    gc.disable()  # no command builds a cycle, so a collection would only rescan live data
    try:
        code = args.run(args, color)
        sys.stdout.flush()  # so that a closed output fails here, not at exit
        return code
    except BrokenPipeError as e:  # the reader of the output is gone
        # point stdout at the null device, so that the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the output: {e.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except CtlError as e:  # only ``--formula`` is CTL text
        print(f"error: in --formula: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SourceError as e:
        prefix = "" if str(args.file) in str(e) else f"{args.file}: "
        print(f"error: {prefix}{e}", file=sys.stderr)
        return EXIT_USAGE
    except ModelError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MODEL
    except Exception as e:  # a crash must not read as a verdict
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
