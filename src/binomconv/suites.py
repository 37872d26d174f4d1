"""Verification suites: named cases over the bijection, the summation
identities, and the series identities.

A case is data: an id, a module-level checker and the keyword
arguments it is called with, so the reported inputs are the call itself
and a case pickles.  An exact case compares the checker's result, as a
string, with a pinned expected value; a family case's checker returns
the failures of a whole sweep as a list of str, and the report shows
the first few counterexamples, so a failure is directly actionable.
Each case is timed apart from its verdict (see Report).  Case lists are
deterministic functions of their bounds and seed, and cases are
independent.  The default bounds of the three suites live in one table,
DEFAULT_BOUNDS, which the builders and the command line both read.
require_sweep_length is the one check of a bijection sweep length, for
bijection_suite, the sweep itself and the enumerate command, and
SWEEP_LENGTH_LIMIT, the longest sweep, sits beside it; every
bound of the identities and series suites is a count, checked by
exactnum.require_count, which this module never imports.

This module holds the cases, the reports and the bijection suite.  The
identities and series suites live in identity_suites, which is imported
the first time one of its names is looked up here (suites.series_suite,
suites.power_of_four_failures, ...), so a bijection-only process loads
only the combinatorial layer.

The results and reports are immutable NamedTuples.  Case alone stays a
frozen dataclass, because the benchmark's tracer copies each case with
dataclasses.replace (see Case); it is the one reason this module
imports dataclasses.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from math import comb
from typing import Any, Callable, Iterable, NamedTuple

from . import bijection, configuration

OK = "all hold"
MAX_REPORTED_FAILURES = 4

#: Keyword arguments of each suite builder when no bound is given.
DEFAULT_BOUNDS: dict[str, dict[str, int]] = {
    "bijection": {"n_max": 8},
    "identities": {"n_max": 64, "t_max": 8, "seed": 0},
    "series": {"order": 64},
}


@dataclass(frozen=True)
class Case:
    """One named check: run(**kwargs), where run is a module-level
    function, so a case pickles.

    With expected None, run returns a list of failure strings; otherwise
    str(result) must equal expected.

    The one dataclass on the bijection path.  perfbench/tracer.py times
    a case by wrapping it with dataclasses.replace(case, run=...) and
    reports suites.case in trace_missing for a case of any other type,
    which fails the traced CI step.  Case becomes a NamedTuple once the
    tracer accepts any case with an id and a run (ROADMAP item 1).
    """

    id: str
    run: Callable[..., Any]
    kwargs: dict[str, Any]
    expected: str | None = None

    @property
    def inputs(self) -> dict[str, str]:
        return {key: str(value) for key, value in self.kwargs.items()}


class CaseResult(NamedTuple):
    """The verdict of one case and its seconds, an immutable NamedTuple."""

    id: str
    inputs: dict[str, str]
    expected: str
    actual: str
    passed: bool
    seconds: float


class Report(NamedTuple):
    """The verdicts of one run, in case order, an immutable NamedTuple.
    to_dict keeps the timings apart, under the top-level keys wall_time
    and timing (case id to seconds); to_text prints wall_time alone."""

    suite: str
    cases: tuple[CaseResult, ...]
    wall_time: float

    @property
    def totals(self) -> dict[str, int]:
        passed = sum(1 for c in self.cases if c.passed)
        return {"pass": passed, "fail": len(self.cases) - passed}

    @property
    def all_passed(self) -> bool:
        return self.totals["fail"] == 0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": [
                {
                    "id": c.id,
                    "inputs": c.inputs,
                    "expected": c.expected,
                    "actual": c.actual,
                    "pass": c.passed,
                }
                for c in self.cases
            ],
            "totals": self.totals,
            "wall_time": self.wall_time,
            "timing": {c.id: c.seconds for c in self.cases},
        }

    def to_text(self) -> str:
        lines = []
        for c in self.cases:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"{mark} {c.id}")
            if not c.passed:
                lines.append(f"     inputs:   {c.inputs}")
                lines.append(f"     expected: {c.expected}")
                lines.append(f"     actual:   {c.actual}")
        totals = self.totals
        lines.append(
            f"{self.suite}: {totals['pass']} passed, {totals['fail']} failed "
            f"in {self.wall_time:.2f}s"
        )
        return "\n".join(lines)


#: The expected side of a case that raised instead of returning a verdict.
NO_EXCEPTION = "no exception"


def _outcome(case: Case) -> tuple[str, str]:
    """The case's (expected, actual) pair; a case that raises fails with
    the exception's type and message as its actual value."""
    try:
        result = case.run(**case.kwargs)
    except Exception as error:  # one broken case must not abort the report
        return NO_EXCEPTION, f"{type(error).__name__}: {error}"
    if case.expected is None:
        return _summarize(result)
    return case.expected, str(result)


def run_cases(suite: str, cases: Iterable[Case]) -> Report:
    """Execute cases in order into a Report, timing each."""
    results = []
    start = time.perf_counter()
    for case in cases:
        begun = time.perf_counter()
        expected, actual = _outcome(case)
        seconds = time.perf_counter() - begun
        results.append(
            CaseResult(case.id, case.inputs, expected, actual, expected == actual, seconds)
        )
    return Report(suite=suite, cases=tuple(results), wall_time=time.perf_counter() - start)


def _summarize(failures: object) -> tuple[str, str]:
    """OK against a family's first few failures.  A result that is not a
    list of str, such as None or a generator, fails, naming its type."""
    if not isinstance(failures, list):
        return OK, f"the check returned {type(failures).__name__}, not a list of str"
    strays = sorted({type(f).__name__ for f in failures if not isinstance(f, str)})
    if strays:
        return OK, f"the check returned a list holding {', '.join(strays)}, not a list of str"
    if not failures:
        return OK, OK
    shown = "; ".join(failures[:MAX_REPORTED_FAILURES])
    if len(failures) > MAX_REPORTED_FAILURES:
        shown += f"; and {len(failures) - MAX_REPORTED_FAILURES} more"
    return OK, shown


# ---------------------------------------------------------------- bijection


def ordered_count(n: int) -> int:
    """The size of the ordered family: sum of products of central
    binomial pairs."""
    return sum(comb(2 * i, i) * comb(2 * (n - i), n - i) for i in range(n + 1))


#: A tower-free word's columns as base-4 digits, in the column order of
#: enumerate_tower_free, so the word's base-4 value is its position there.
_RANK_DIGITS = str.maketrans(configuration.ODD_CHARS, "0123")

#: A descent of a tower-free word: a color-Two column, then a color-One
#: column.  No column ends one descent and starts another, so the
#: non-overlapping matches are all of them.  Scanned here rather than
#: taken from the bijection, so the sweep does not check the map against
#: its own bookkeeping.
_TOWER_FREE_DESCENT = re.compile("[Bb][Aa]")


#: The longest configuration an exhaustive sweep enumerates.
SWEEP_LENGTH_LIMIT = 10


def require_sweep_length(name: str, value: object) -> None:
    """The one check of a sweep length: refuse value unless it is an
    int, not a bool, from 0 to SWEEP_LENGTH_LIMIT.  A negative length
    would sweep nothing and pass, and a longer one would mark 4^n
    images, 4 GiB at n = 16."""
    integer = isinstance(value, int) and not isinstance(value, bool)
    if not integer or not 0 <= value <= SWEEP_LENGTH_LIMIT:
        raise ValueError(f"{name} must be an integer from 0 to {SWEEP_LENGTH_LIMIT}")


def exhaustive_bijection_failures(n: int) -> list[str]:
    """Sweep both directions of the bijection at one length.

    Checks: the forward map lands in the tower-free family, is
    injective, hits all 4^n elements, round-trips both ways, turns each
    tower into exactly one descent, and fixes tower-free inputs.  Images
    are marked by base-4 rank in a bytearray of 4^n bytes, one byte per
    tower-free word, rather than kept as objects.
    """
    require_sweep_length("n", n)
    failures: list[str] = []
    hit = bytearray(4**n)
    count = 0
    for config in configuration.enumerate_ordered(n):
        count += 1
        image = bijection.phi(config)
        if len(image) != n or image.strip(configuration.ODD_CHARS):
            failures.append(f"phi({config}) = {image} is not tower-free of length {n}")
            continue
        towers = config.count("1") + config.count("2")
        descents = len(_TOWER_FREE_DESCENT.findall(image))
        if descents != towers:
            failures.append(
                f"phi({config}) = {image} has {descents} descents for {towers} towers"
            )
        if image != config and not config.strip(configuration.ODD_CHARS):
            failures.append(f"tower-free {config} mapped to {image}")
        back = bijection.phi_inverse(image)
        if back != config:
            failures.append(f"phi_inverse(phi({config})) = {back}")
        hit[int("0" + image.translate(_RANK_DIGITS), 4)] = 1
    distinct = len(hit) - hit.count(0)
    if count != ordered_count(n):
        failures.append(
            f"enumerated {count} ordered configurations, expected {ordered_count(n)}"
        )
    if distinct != count:
        failures.append(f"phi is not injective: {distinct} images from {count} inputs")
    if distinct != 4**n:
        failures.append(f"image has {distinct} elements, expected {4**n}")
    for image in configuration.enumerate_tower_free(n):
        if bijection.phi(bijection.phi_inverse(image)) != image:
            failures.append(f"phi(phi_inverse({image})) != {image}")
    return failures


def phi_of_compact(config: str) -> str:
    return bijection.phi(configuration.parse_compact(config))


def phi_inverse_of_compact(config: str) -> str:
    return bijection.phi_inverse(configuration.parse_compact(config))


def _chain_string(config: str) -> str:
    skeleton = bijection.even_skeleton(configuration.parse_compact(config))
    steps = [skeleton]
    current = bijection.tower_configuration(skeleton)
    steps.append(current)
    while len(current) > 1:
        current = bijection.tower_configuration(current)
        steps.append(current)
    return " -> ".join(steps)


def bijection_suite(n_max: int = DEFAULT_BOUNDS["bijection"]["n_max"]) -> list[Case]:
    require_sweep_length("n_max", n_max)
    golden = (
        ("forward", phi_of_compact, ".A11.b2B2..", "BbAbabBaAbA"),
        ("skeleton-chain", _chain_string, ".A11.b2B2..", ".11.22.. -> aA2. -> B"),
        ("inverse-ba", phi_inverse_of_compact, "ba", "1."),
        ("inverse-BAbA", phi_inverse_of_compact, "BAbA", "11.."),
        ("inverse-aBBAaaBbABBBb", phi_inverse_of_compact, "aBBAaaBbABBBb", "a1A1aa.A.BBBb"),
        ("fixed-point", phi_of_compact, "AB", "AB"),
    )
    return [
        Case(f"bijection/golden/{name}", run, {"config": config}, expected)
        for name, run, config, expected in golden
    ] + [
        Case(f"bijection/exhaustive/n={n}", exhaustive_bijection_failures, {"n": n})
        for n in range(n_max + 1)
    ]


SUITE_NAMES = ("bijection", "identities", "series")


def __getattr__(name: str) -> Any:
    """A name of the identities or series suites, from identity_suites,
    imported on first use.  Dunder lookups (made by import machinery and
    introspection) never import it."""
    if not name.startswith("__"):
        from . import identity_suites

        if hasattr(identity_suites, name):
            return getattr(identity_suites, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
