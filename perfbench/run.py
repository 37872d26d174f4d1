"""Time-to-verdict benchmark for binomconv.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
used from source (src/), with nothing to build.  Workloads:

  bijection-sweep     binomconv verify --suite bijection --format json
  identities-series   binomconv verify --suite identities --seed N --format json,
                      then binomconv verify --suite series --format json,
                      in one process
  identities-default  the identities half alone; run by name only
  series-default      the series half alone; run by name only
  bijection-long      parse_compact -> phi -> phi_inverse on seeded random
                      ordered configurations of length 1024..2048; run by
                      name only

BENCHMARK.json lists the first two; BASELINE.md says why.  Each workload
launch is its own process, one at a time.  Launches repeat while one
more, as long as the longest so far, fits in S seconds of measured
launches (there is always at least one), and the medians are reported.
With --trace 0 the metrics are the end-to-end ones: wall_s (launch to
exit), setup_s (interpreter start, import and building the case lists
or parsing the inputs, in its own process, median of several), and
peak_rss_mb (from os.wait4 on that launch).  With
--trace 1 the same untraced launches run, then one traced launch gives
the per-layer metrics and the tracing overhead.

Every launch goes through the correctness gate (gate.py); a failed case
counts in "failed".  The last stdout line is the JSON result; the line
before it holds diagnostics: each launch's times, the host-speed loop
timed next to each launch, fail_ratio, problems and missing trace names.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import tomllib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

#: Every process of a run has ended by this many seconds after its start.
RUN_LIMIT_S = 170.0
SETUP_REPEATS = 11
#: How long launch.py may outlive its workload's deadline before it is killed.
LAUNCHER_GRACE_S = 5.0
MAX_PROBLEMS = 20

LONG_INPUTS = 200
LONG_MIN_LENGTH = 1024
LONG_MAX_LENGTH = 2048

#: Workloads that run `binomconv verify --format json` at its defaults
#: once for each of these suites, in order, in one process.
CLI_WORKLOADS = {
    "bijection-sweep": ("bijection",),
    "identities-series": ("identities", "series"),
    "identities-default": ("identities",),
    "series-default": ("series",),
}
WORKLOADS = (*CLI_WORKLOADS, "bijection-long")


@dataclass
class Launch:
    """One finished child process; returncode is None when it was killed
    at its deadline."""

    wall_s: float
    rss_mb: float
    returncode: int | None
    stdout: bytes
    stderr: bytes


def launch(argv: list[str], stdin: bytes, timeout: float, env: dict) -> Launch:
    """Run argv to completion through launch.py, which times it and
    reads its peak RSS from os.wait4."""
    with tempfile.TemporaryFile(dir=WORK) as inp, \
            tempfile.TemporaryFile(dir=WORK) as out, \
            tempfile.TemporaryFile(dir=WORK) as err, \
            tempfile.TemporaryDirectory(dir=WORK) as scratch:
        inp.write(stdin)
        inp.seek(0)
        report = Path(scratch) / "report"
        launcher = [sys.executable, "-S", "-I", str(HERE / "launch.py"), str(report), str(timeout)]
        proc = subprocess.Popen([*launcher, *argv], stdin=inp, stdout=out, stderr=err,
                                cwd=ROOT, env=env, start_new_session=True)
        try:
            proc.wait(timeout=max(timeout, 0.0) + LAUNCHER_GRACE_S)
        except subprocess.TimeoutExpired:
            pass  # killed below; the missing report marks the launch as timed out
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        out.seek(0)
        err.seek(0)
        try:
            wall, rss_kb, code = report.read_text().split()
        except (OSError, ValueError):
            return Launch(0.0, 0.0, None, out.read(), err.read())
        returncode = None if code == "killed" else int(code)
        return Launch(float(wall), int(rss_kb) / 1024, returncode, out.read(), err.read())


def host_loop_ms() -> float:
    """A fixed pure-Python Fraction loop; its time tracks host speed."""
    start = perf_counter()
    total = Fraction(0)
    for k in range(1, 10001):
        total += Fraction(k % 17, k % 13 + 1)
    return 1000 * (perf_counter() - start)


def ordered_string(rng: random.Random, n: int) -> str:
    """A random ordered configuration of length n in compact form, built
    from a random (i, j) subset pair without the program's code."""
    i = rng.randint(0, n)
    j = n - i
    chars = []
    for width, alphabet in ((i, ".aA1"), (j, ".bB2")):
        marked = set(rng.sample(range(1, 2 * width + 1), width))
        for k in range(1, width + 1):
            chars.append(alphabet[2 * (k in marked) + (width + k in marked)])
    return "".join(chars)


def long_inputs(seed: int) -> list[str]:
    rng = random.Random(seed)
    return [
        ordered_string(rng, rng.randint(LONG_MIN_LENGTH, LONG_MAX_LENGTH))
        for _ in range(LONG_INPUTS)
    ]


def entry_point() -> str:
    """The `binomconv` console script as declared in pyproject.toml."""
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["project"]["scripts"]["binomconv"]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Store:
    """Results of earlier runs in this checkout, keyed by program source
    and workload input, so runs of the same code can be compared."""

    def __init__(self, *parts: str):
        digest = hashlib.sha256("\0".join(parts).encode()).hexdigest()[:32]
        self.prefix = WORK / digest

    def check(self, kind: str, value: str) -> bool:
        """True if value matches what an earlier run stored (or nothing is
        stored yet, in which case value is stored)."""
        path = Path(f"{self.prefix}.{kind}")
        if path.exists():
            return path.read_text(encoding="utf-8") == value
        path.write_text(value, encoding="utf-8")
        return True


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.start = perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )
        self.entry = entry_point()
        self.suites = CLI_WORKLOADS.get(workload, ())
        child = [sys.executable, str(HERE / "child.py")]
        if self.suites:
            self.inputs = []
            self.stdin = b""
            arg_lists = [
                ["verify", "--suite", suite,
                 *(["--seed", str(seed)] if suite == "identities" else []), "--format", "json"]
                for suite in self.suites
            ]
            module, _, attr = self.entry.partition(":")
            console_script = (
                f"import sys\nfrom {module} import {attr}\n"
                f"sys.argv[0] = 'binomconv'\ncode = 0\n"
                f"for args in {arg_lists!r}:\n"
                f"    sys.argv[1:] = args\n"
                f"    code = {attr}() or code\n"
                f"sys.exit(code)\n"
            )
            self.work_argv = [sys.executable, "-c", console_script]
            self.setup_argv = [*child, "setup-cli", self.entry, str(seed), *self.suites]
            self.trace_argv = lambda path: [
                *child, "--trace-out", path, "cli", self.entry, json.dumps(arg_lists)
            ]
            self.cases = sum(len(gate.CASES[suite]) for suite in self.suites)
            key = json.dumps(arg_lists)
        else:
            self.inputs = long_inputs(seed)
            self.stdin = "\n".join(self.inputs).encode("ascii") + b"\n"
            self.work_argv = [*child, "long"]
            self.setup_argv = [*child, "setup-long"]
            self.trace_argv = lambda path: [*child, "--trace-out", path, "long"]
            self.cases = len(self.inputs)
            key = hashlib.sha256(self.stdin).hexdigest()
        self.store = Store(source_digest(), workload, key)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.payload: str | None = None
        self.launches: list[dict] = []
        self.host_ms: list[float] = []
        self.missing: list[str] = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (perf_counter() - self.start)

    def run_child(self, argv: list[str]) -> Launch:
        self.host_ms.append(host_loop_ms())
        return launch(argv, self.stdin, self.remaining(), self.env)

    def setup(self) -> list[float]:
        """One warm-up (which also compiles bytecode), then timed repeats."""
        times = []
        for repeat in range(SETUP_REPEATS + 1 if not self.trace else 1):
            done = self.run_child(self.setup_argv)
            if done.returncode != 0:
                self.problems.append(
                    f"setup exit code {done.returncode}: {done.stderr.decode()[-400:]}"
                )
                return times
            if repeat:
                times.append(done.wall_s)
        return times

    def gate(self, done: Launch) -> int:
        """Count the launch's cases and return how many failed."""
        self.attempted += self.cases
        if self.suites:
            failed, payload, problems = gate.check_cli_report(
                done.returncode, done.stdout, self.suites
            )
            if payload is not None:
                if self.payload is None:
                    self.payload = payload
                if payload != self.payload or not self.store.check("payload", payload):
                    failed, problems = self.cases, ["report differs between runs of one seed"]
        else:
            failed, problems = gate.check_long_output(done.returncode, done.stdout, self.inputs)
        if done.returncode not in (0, None) and done.stderr:
            problems.append(done.stderr.decode(errors="replace")[-400:])
        self.failed += failed
        self.problems.extend(problems[: max(0, MAX_PROBLEMS - len(self.problems))])
        return failed

    def measure(self) -> list[Launch]:
        """Untraced launches while one more, as long as the longest so far,
        fits in `seconds` of measured launches; at least one."""
        done_all: list[Launch] = []
        measured = longest = 0.0
        while True:
            done = self.run_child(self.work_argv)
            failed = self.gate(done)
            done_all.append(done)
            self.launches.append({"wall_s": done.wall_s, "peak_rss_mb": done.rss_mb,
                                  "host_loop_ms": self.host_ms[-1]})
            measured += done.wall_s
            longest = max(longest, done.wall_s)
            if failed or measured + longest > self.seconds:
                return done_all
            # Leave room for one more launch and, when tracing, the slower traced one.
            if self.remaining() < longest * (4 if self.trace else 1) + 5:
                return done_all

    def traced(self, untraced_median: float) -> dict[str, float]:
        handle = tempfile.NamedTemporaryFile(dir=WORK, suffix=".json", delete=False)
        handle.close()
        try:
            done = self.run_child(self.trace_argv(handle.name))
            self.gate(done)
            self.launches.append({"traced": True, "wall_s": done.wall_s,
                                  "host_loop_ms": self.host_ms[-1]})
            try:
                with open(handle.name, encoding="utf-8") as record:
                    trace = json.load(record)
            except (OSError, ValueError) as error:
                self.problems.append(f"no trace record: {error!r}")
                return {name: 0.0 for name in gate.per_layer_units()}
        finally:
            os.unlink(handle.name)
        self.missing = trace["missing"]
        values = gate.layer_metrics(trace, done.wall_s - untraced_median)
        self.check_counts(values)
        return values

    def check_counts(self, values: dict[str, float]) -> None:
        """Tracer self-checks: the exact counts, and the same counts as an
        earlier traced run of this code on this input."""
        for name, expected in gate.expected_counts(self.suites, len(self.inputs)).items():
            if values[name] != expected:
                self.problems.append(f"trace count {name} = {values[name]}, expected {expected}")
        counts = json.dumps(gate.count_metrics(values), sort_keys=True)
        if not self.store.check("counts", counts):
            self.problems.append("trace counts differ from an earlier traced run")

    def result(self) -> dict:
        setup_times = self.setup()
        work = self.measure()
        wall = statistics.median(d.wall_s for d in work)
        if self.trace:
            values = self.traced(wall)
            metrics = {
                name: {"value": values[name], "unit": unit}
                for name, (unit, _) in gate.per_layer_units().items()
            }
        else:
            metrics = {
                "wall_s": {"value": wall, "unit": "s"},
                "setup_s": {"value": statistics.median(setup_times or [0.0]), "unit": "s"},
                "peak_rss_mb": {
                    "value": statistics.median(d.rss_mb for d in work), "unit": "MB"
                },
            }
        print(json.dumps({"diagnostics": {
            "workload": self.workload,
            "seed": self.seed,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "launches": self.launches,
            "setup_s": setup_times,
            "host_loop_ms_median": statistics.median(self.host_ms),
            "fail_ratio": self.failed / max(self.attempted, 1),
            "problems": self.problems,
            "trace_missing": self.missing,
        }}))
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": metrics,
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "pyproject.toml").is_file() or not (ROOT / "src" / "binomconv").is_dir():
        print(f"error: {ROOT} holds no binomconv source tree", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
