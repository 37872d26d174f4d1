"""Command-line front end.

Subcommands: map (apply the bijection or its inverse to one
configuration), render (re-serialize a configuration), enumerate (list
a configuration family), and verify (run the verification suites and
emit a text or JSON report).  verify runs the cases in order, in one
process; a bound flag left out takes its value from
suites.DEFAULT_BOUNDS, and a bound flag that no selected suite takes is
a usage error.  map, render, enumerate and verify --suite bijection load
only the combinatorial layer; the algebraic and analytic layers are
imported when an identities or series suite is built, and json only
for verify --format json.

Exit codes: 0 on success, 1 when a verification case fails, 2 for
usage, parse, domain or output errors (a reader that closes the pipe
early included).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from . import bijection, configuration, suites


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binomconv",
        description=(
            "Workbench for the bijection between ordered and tower-free "
            "2-row grid configurations and the central binomial convolution "
            "identities it proves."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    map_parser = sub.add_parser(
        "map", help="apply the bijection or its inverse to a configuration"
    )
    map_parser.add_argument("config", help="configuration in compact format (.Aa1Bb2)")
    direction = map_parser.add_mutually_exclusive_group(required=True)
    direction.add_argument(
        "--forward", action="store_true", help="ordered to tower-free"
    )
    direction.add_argument(
        "--inverse", action="store_true", help="tower-free to ordered"
    )
    map_parser.add_argument(
        "--trace", action="store_true", help="print each recursion step"
    )

    render_parser = sub.add_parser("render", help="re-serialize a configuration")
    render_parser.add_argument("config", help="configuration in compact format")
    render_parser.add_argument(
        "--mode", choices=("compact", "grid"), default="grid", help="output format"
    )

    enum_parser = sub.add_parser("enumerate", help="list a configuration family")
    enum_parser.add_argument("kind", choices=("ordered", "tower-free"))
    enum_parser.add_argument("n", type=int, help="configuration length")
    enum_parser.add_argument(
        "--limit", type=int, default=None, help="stop after this many lines"
    )

    verify_parser = sub.add_parser("verify", help="run verification suites")
    verify_parser.add_argument(
        "--suite",
        choices=suites.SUITE_NAMES + ("all",),
        default="all",
    )
    verify_parser.add_argument(
        "--n-max", type=int, default=None,
        help=f"length/width bound (bijection sweeps accept at most {suites.SWEEP_LENGTH_LIMIT})",
    )
    verify_parser.add_argument(
        "--t-max", type=int, default=None, help="offset vector width bound"
    )
    verify_parser.add_argument(
        "--order", type=int, default=None, help="series truncation order"
    )
    verify_parser.add_argument(
        "--seed", type=int, default=None, help="seed for random rational sampling"
    )
    verify_parser.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    verify_parser.add_argument(
        "--out", default=None, help="write the report to this path instead of stdout"
    )
    return parser


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_map(args: argparse.Namespace) -> int:
    try:
        config = configuration.parse_compact(args.config)
        trace: bijection.TraceLog | None = [] if args.trace else None
        if args.forward:
            image = bijection.phi(config, trace)
        else:
            image = bijection.phi_inverse(config, trace)
    except (configuration.ConfigurationError, bijection.BijectionError) as error:
        return _fail(str(error))
    if trace:
        print(bijection.format_trace(trace))
    print(configuration.render(image, "compact"))
    print(configuration.render(image, "grid"))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    try:
        config = configuration.parse_compact(args.config)
    except configuration.ConfigurationError as error:
        return _fail(str(error))
    print(configuration.render(config, args.mode))
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    try:
        suites.require_sweep_length("n", args.n)
    except ValueError as error:
        return _fail(str(error))
    if args.limit is not None and args.limit < 0:
        return _fail("limit must be nonnegative")
    produce = (
        configuration.enumerate_ordered
        if args.kind == "ordered"
        else configuration.enumerate_tower_free
    )
    emitted = 0
    for config in produce(args.n):
        if args.limit is not None and emitted >= args.limit:
            break
        print(configuration.render(config, "compact"))
        emitted += 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    selected = suites.SUITE_NAMES if args.suite == "all" else (args.suite,)
    taken = {key for name in selected for key in suites.DEFAULT_BOUNDS[name]}
    for bounds in suites.DEFAULT_BOUNDS.values():
        for key in bounds:
            if key not in taken and getattr(args, key) is not None:
                flag = "--" + key.replace("_", "-")
                return _fail(f"the {args.suite} suite takes no {flag}")
    try:
        cases = []
        for name in selected:
            bounds = {
                key: default if getattr(args, key) is None else getattr(args, key)
                for key, default in suites.DEFAULT_BOUNDS[name].items()
            }
            cases.extend(getattr(suites, f"{name}_suite")(**bounds))
    except ValueError as error:
        return _fail(str(error))
    report = suites.run_cases(args.suite, cases)
    if args.format == "json":
        import json

        payload = json.dumps(report.to_dict(), indent=2)
    else:
        payload = report.to_text()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
        except OSError as error:
            return _fail(f"cannot write the report to {args.out}: {error.strerror or error}")
        totals = report.totals
        print(
            f"{args.suite}: {totals['pass']} passed, {totals['fail']} failed; "
            f"report written to {args.out}"
        )
    else:
        print(payload)
    return 0 if report.all_passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = {
        "map": cmd_map,
        "render": cmd_render,
        "enumerate": cmd_enumerate,
        "verify": cmd_verify,
    }[args.command]
    try:
        return command(args)
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull so the
        # interpreter's flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2


if __name__ == "__main__":
    sys.exit(main())
