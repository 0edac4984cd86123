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
"""

from __future__ import annotations

import argparse
import functools
import json
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
    export_dot,
    export_json,
    flatten,
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
    v = os.environ.get("SBCHECK_COLOR")
    if v == "0":
        return False
    if v == "1":
        return True
    return sys.stdout.isatty()


def _paint(text, code, on):
    return f"\x1b[{code}m{text}\x1b[0m" if on else text


def _yesno(value, color):
    if value:
        return _paint("yes", _GREEN, color)
    return _paint("no", _RED, color)


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing does not change it."""
    ap = argparse.ArgumentParser(
        prog="sbcheck",
        description="Verify adaptability of two-level (behaviour + structure) systems.",
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("validate", help="check that a model is well formed")
    p.add_argument("file", help="model file (.sbs)")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("flatten", help="compute the flat transition system")
    p.add_argument("file", help="model file (.sbs)")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--json", action="store_true", help="emit the flat system as JSON")
    g.add_argument("--dot", action="store_true", help="emit the flat system as Graphviz DOT")

    p = sub.add_parser("adapt", help="decide weak/strong adaptability")
    p.add_argument("file", help="model file (.sbs)")
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
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("equiv", help="group behaviour states adaptable to the same structure states")
    p.add_argument("file", help="model file (.sbs)")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--weak", action="store_true", help="use the weak relation (default)")
    g.add_argument("--strong", action="store_true", help="use the strong relation")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("ctl", help="check a CTL formula on the flat system")
    p.add_argument("file", help="model file (.sbs)")
    p.add_argument("--formula", required=True, help="CTL formula text")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("simulate", help="random walk through the flat semantics")
    p.add_argument("file", help="model file (.sbs)")
    p.add_argument("--steps", type=int, default=10, help="number of steps (default 10)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    return ap


def cmd_validate(args, color):
    system = ingest.load(args.file)
    report = check_well_formed(system)
    if args.json:
        print(
            json.dumps(
                {
                    "ok": report.ok,
                    "violations": [
                        {"kind": v.kind, "subject": v.subject, "message": v.message}
                        for v in report.violations
                    ],
                },
                indent=2,
            )
        )
    elif report.ok:
        print(
            f"{_paint('ok', _GREEN, color)}: {system.name} is well formed "
            f"({len(system.behaviour.states)} behaviour states, "
            f"{len(system.structure.states)} structure states)"
        )
    else:
        print(
            f"{_paint('not well formed', _RED, color)}: "
            f"{len(report.violations)} violation(s)"
        )
        for v in report.violations:
            print(f"  [{v.kind}] {v.subject}: {v.message}")
    return EXIT_OK if report.ok else EXIT_MODEL


def cmd_flatten(args, color):
    system = ingest.load(args.file)
    flat = flatten(system)
    if args.json:
        sys.stdout.write(export_json(flat))
    elif args.dot:
        sys.stdout.write(export_dot(flat))
    else:
        tally = {STEADY: 0, ADAPTING: 0, STUCK: 0}
        for c in flat.classes:
            tally[c] += 1
        print(
            f"flat system of {system.name}: "
            f"{len(flat.states)} states, {len(flat.edges)} transitions"
        )
        print(f"  initial: {state_text(system, flat.states[flat.init_index])}")
        print(
            f"  steady {tally[STEADY]}, adapting {tally[ADAPTING]}, "
            f"stuck {tally[STUCK]}"
        )
    return EXIT_OK


def cmd_adapt(args, color):
    system = ingest.load(args.file)
    flat = flatten(system) if args.method != "relational" or args.witness else None
    if args.weak:
        kinds = [WEAK]
    elif args.strong:
        kinds = [STRONG]
    else:
        kinds = [WEAK, STRONG]

    properties = []
    discrepancy = None
    for kind in kinds:
        if args.method == "relational":
            holds = adaptable(system, kind)
            verdicts = {"relational": holds}
        elif args.method == "ctl":
            verdicts = {"ctl": check_ctl(flat, adaptability_formula(kind)).holds_at_init}
            holds = verdicts["ctl"]
        else:
            mv = compare_methods(system, kind, flat=flat)
            verdicts = {"relational": mv.relational, "ctl": mv.ctl}
            holds = mv.relational if mv.agree else None
            if not mv.agree and discrepancy is None:
                pair, rel_holds, ctl_holds = find_discrepancy(system, kind)
                discrepancy = {
                    "kind": kind,
                    "pair": list(pair),
                    "relational": rel_holds,
                    "ctl": ctl_holds,
                }
        properties.append({"kind": kind, "verdicts": verdicts, "holds": holds})

    witness = None
    if args.witness and STRONG in kinds:
        strong_entry = next(p for p in properties if p["kind"] == STRONG)
        if strong_entry["holds"] is not True:
            witness = strong_counterexample(flat)

    if args.json:
        payload = {
            "properties": properties,
            "discrepancy": discrepancy,
            "witness": None
            if witness is None
            else [dict(state_json(system, flat.states[i]), id=i) for i in witness],
        }
        print(json.dumps(payload, indent=2))
    else:
        for entry in properties:
            print(f"{entry['kind']} adaptability:")
            for method in ("relational", "ctl"):
                if method in entry["verdicts"]:
                    print(f"  {method:<10} {_yesno(entry['verdicts'][method], color)}")
        if discrepancy is not None:
            q, r = discrepancy["pair"]
            print(
                f"{_paint('DISCREPANCY', _YELLOW, color)}: methods disagree on "
                f"{discrepancy['kind']} adaptability"
            )
            print(
                f"  minimal offending pair ({q}, {r}): "
                f"relational {_yesno(discrepancy['relational'], color)}, "
                f"ctl {_yesno(discrepancy['ctl'], color)}"
            )
        if witness is not None:
            print("counterexample (adaptation that never has to end):")
            for step, i in enumerate(witness):
                loop = ""
                if step == len(witness) - 1:
                    loop = f"  <- repeats step {witness.index(i)}"
                print(f"  {step:>3}  {state_text(system, flat.states[i])}{loop}")

    if discrepancy is not None:
        return EXIT_DISCREPANCY
    if any(entry["holds"] is not True for entry in properties):
        return EXIT_PROPERTY
    return EXIT_OK


def cmd_equiv(args, color):
    system = ingest.load(args.file)
    kind = STRONG if args.strong else WEAK
    part = equiv_partition(system, kind)
    if args.json:
        print(
            json.dumps(
                {"kind": part.kind, "blocks": [sorted(b) for b in part.blocks]},
                indent=2,
            )
        )
    else:
        print(f"{part.kind} adaptation equivalence: {len(part.blocks)} block(s)")
        for b in part.blocks:
            print("  {" + ", ".join(sorted(b)) + "}")
    return EXIT_OK


def cmd_ctl(args, color):
    phi = parse_ctl(args.formula)  # before the model, so a bad formula costs no load
    system = ingest.load(args.file)
    flat = flatten(system)
    result = check_ctl(flat, phi)
    text = unparse_ctl(phi)
    if args.json:
        print(
            json.dumps(
                {
                    "formula": text,
                    "holds": result.holds_at_init,
                    "satisfying": sorted(result.satisfying),
                    "witness": None
                    if result.witness is None
                    else [dict(state_json(system, flat.states[i]), id=i) for i in result.witness],
                },
                indent=2,
            )
        )
    else:
        verdict = "holds" if result.holds_at_init else "fails"
        painted = _paint(verdict, _GREEN if result.holds_at_init else _RED, color)
        print(
            f"{text}: {painted} at the initial state "
            f"(satisfied by {len(result.satisfying)} of {len(flat.states)} states)"
        )
        if result.witness is not None:
            title = "witness path" if result.holds_at_init else "counterexample path"
            print(f"{title}:")
            for step, i in enumerate(result.witness):
                print(f"  {step:>3}  {state_text(system, flat.states[i])}")
    return EXIT_OK if result.holds_at_init else EXIT_PROPERTY


def _rule_name(source, target):
    if source[2] is None:
        return "Steady" if target[2] is None else "AdaptStart"
    return "Adapt" if target[2] is not None else "AdaptEnd"


def cmd_simulate(args, color):
    if args.steps < 0:
        print("error: --steps must not be negative", file=sys.stderr)
        return EXIT_USAGE
    system = ingest.load(args.file)
    require_well_formed(system)
    rng = random.Random(args.seed)
    first = state = (system.behaviour.init, system.structure.init, None)
    steps = []
    stopped = "steps"
    for _ in range(args.steps):
        out = successors(system, state)
        if not out:
            stopped = "deadend"
            break
        chosen = out[rng.randrange(len(out))]
        steps.append((_rule_name(state, chosen), chosen))
        state = chosen
    if args.json:
        print(
            json.dumps(
                {
                    "seed": args.seed,
                    "initial": state_json(system, first),
                    "steps": [
                        {"rule": rule, "state": state_json(system, s)} for rule, s in steps
                    ],
                    "stopped": stopped,
                },
                indent=2,
            )
        )
    else:
        print(f"random walk of {system.name}, seed {args.seed}")
        print(f"  {0:>3}  {'init':<11} {state_text(system, first)}")
        for n, (rule, s) in enumerate(steps, start=1):
            print(f"  {n:>3}  {rule:<11} {state_text(system, s)}")
        if stopped == "deadend":
            print(f"stopped after {len(steps)} step(s): no move possible")
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "flatten": cmd_flatten,
    "adapt": cmd_adapt,
    "equiv": cmd_equiv,
    "ctl": cmd_ctl,
    "simulate": cmd_simulate,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    color = _want_color()
    try:
        code = _COMMANDS[args.command](args, color)
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


if __name__ == "__main__":
    raise SystemExit(main())
