"""The workload process the benchmark launches and times.

    child.py --trace-out PATH cli ENTRY ARGS_JSON  run the console script ENTRY
                                                  ("module:function") once per
                                                  argument list in ARGS_JSON
    child.py [--trace-out PATH] long               round-trip the compact strings
                                                  read from stdin, one per line
    child.py setup-cli ENTRY SEED SUITE...         import and build the case lists
    child.py setup-long                            import and parse the stdin strings

Untraced command-line launches do not come here: they run the console
script directly (run.py), as an installed `binomconv` would.  The long
mode uses only the public parse_compact, phi and phi_inverse,
and prints "image<TAB>round trip" per input.  With --trace-out, the
tracer is installed before any work and its spans are written to PATH
when the work ends.
"""

from __future__ import annotations

import importlib
import json
import sys


def run_cli(entry: str, arg_lists: str, tracer) -> int:
    module, _, attr = entry.partition(":")
    if tracer is not None:
        tracer.install(module, attr)
    main = getattr(importlib.import_module(module), attr)
    code = 0
    for args in json.loads(arg_lists):
        sys.argv = ["binomconv", *args]
        code = main() or code
    return code


def run_long(tracer) -> int:
    import binomconv

    if tracer is not None:
        tracer.install()
    lines = sys.stdin.read().split()
    out = []
    for index, text in enumerate(lines):
        if tracer is not None:
            tracer.request = str(index)
        config = binomconv.parse_compact(text)
        image = binomconv.phi(config)
        back = binomconv.phi_inverse(image)
        out.append(f"{image}\t{back}")
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def setup_cli(entry: str, seed: str, *suite_names: str) -> int:
    """Interpreter start, package import and the case lists at defaults.

    Each case list is built through suites.<suite>_suite when that
    builder exists; the identities suite takes the seed.
    """
    importlib.import_module(entry.partition(":")[0])
    suites = importlib.import_module("binomconv.suites")
    for suite in suite_names:
        builder = getattr(suites, f"{suite}_suite", None)
        if builder is not None:
            builder(**({"seed": int(seed)} if suite == "identities" else {}))
    return 0


def setup_long() -> int:
    import binomconv

    for text in sys.stdin.read().split():
        binomconv.parse_compact(text)
    return 0


def main(argv: list[str]) -> int:
    tracer = None
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        from tracer import Tracer

        trace_out, argv = argv[1], argv[2:]
        tracer = Tracer()
    mode, rest = argv[0], argv[1:]
    try:
        if mode == "cli":
            return run_cli(rest[0], rest[1], tracer)
        if mode == "long":
            return run_long(tracer)
        if mode == "setup-cli":
            return setup_cli(*rest)
        if mode == "setup-long":
            return setup_long()
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
