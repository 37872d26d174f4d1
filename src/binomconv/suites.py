"""Verification suites: named cases over the bijection, the summation
identities, and the series identities.

A case is data: an id, a module-level checker and the keyword
arguments it is called with, so the reported inputs are the call itself
and a case pickles.  An exact case compares the checker's result, as a
string, with a pinned expected value; a family case's checker returns
the failures of a whole sweep, and the report shows the first few
counterexamples, so a failure is directly actionable.  Case lists are
deterministic functions of their bounds and seed, and cases are
independent.  The default bounds of the three suites live in one table,
DEFAULT_BOUNDS, which the builders and the command line both read.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Any, Callable, Iterable

from . import bijection, configuration, identities, series
from .exactnum import Polynomial

OK = "all hold"
MAX_REPORTED_FAILURES = 4

#: The longest bijection sweep; stated in bijection, whose recursion
#: memos are bounded by it.
BIJECTION_LENGTH_LIMIT = bijection.SWEEP_LENGTH_LIMIT

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
    """

    id: str
    run: Callable[..., Any]
    kwargs: dict[str, Any]
    expected: str | None = None

    @property
    def inputs(self) -> dict[str, str]:
        return {key: str(value) for key, value in self.kwargs.items()}


@dataclass(frozen=True)
class CaseResult:
    id: str
    inputs: dict[str, str]
    expected: str
    actual: str
    passed: bool


@dataclass(frozen=True)
class Report:
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
    """Execute cases in order into a Report."""
    cases = list(cases)
    start = time.perf_counter()
    outcomes = [_outcome(c) for c in cases]
    wall = time.perf_counter() - start
    results = tuple(
        CaseResult(
            id=case.id,
            inputs=case.inputs,
            expected=expected,
            actual=actual,
            passed=expected == actual,
        )
        for case, (expected, actual) in zip(cases, outcomes)
    )
    return Report(suite=suite, cases=results, wall_time=wall)


def _require_nonnegative(name: str, bound: int) -> None:
    """A family swept over an empty range checks nothing; refuse the
    bound instead of reporting a vacuous pass."""
    if bound < 0:
        raise ValueError(f"{name} must be nonnegative, got {bound}")


def _require_positive(name: str, bound: int) -> None:
    """As _require_nonnegative, for a bound whose range starts at 1."""
    if bound < 1:
        raise ValueError(f"{name} must be positive, got {bound}")


def _summarize(failures: list[str]) -> tuple[str, str]:
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


def exhaustive_bijection_failures(n: int) -> list[str]:
    """Sweep both directions of the bijection at one length.

    Checks: the forward map lands in the tower-free family, is
    injective, hits all 4^n elements, round-trips both ways, turns each
    tower into exactly one descent, and fixes tower-free inputs.  Images
    are marked by base-4 rank in a bytearray of 4^n bytes, one byte per
    tower-free word, rather than kept as objects.
    """
    _require_nonnegative("n", n)
    failures: list[str] = []
    hit = bytearray(4**n)
    count = 0
    for config in configuration.enumerate_ordered(n):
        count += 1
        text = config.text
        image = bijection.phi(config)
        image_text = image.text
        if len(image_text) != n or image_text.strip(configuration.ODD_CHARS):
            failures.append(f"phi({config}) = {image} is not tower-free of length {n}")
            continue
        towers = text.count("1") + text.count("2")
        descents = len(_TOWER_FREE_DESCENT.findall(image_text))
        if descents != towers:
            failures.append(
                f"phi({config}) = {image} has {descents} descents for {towers} towers"
            )
        if image_text != text and not text.strip(configuration.ODD_CHARS):
            failures.append(f"tower-free {config} mapped to {image}")
        back = bijection.phi_inverse(image)
        if back.text != text:
            failures.append(f"phi_inverse(phi({config})) = {back}")
        hit[int("0" + image_text.translate(_RANK_DIGITS), 4)] = 1
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
        if bijection.phi(bijection.phi_inverse(image)).text != image.text:
            failures.append(f"phi(phi_inverse({image})) != {image}")
    return failures


def phi_of_compact(config: str) -> configuration.Configuration:
    return bijection.phi(configuration.parse_compact(config))


def phi_inverse_of_compact(config: str) -> configuration.Configuration:
    return bijection.phi_inverse(configuration.parse_compact(config))


def _chain_string(config: str) -> str:
    skeleton = bijection.even_skeleton(configuration.parse_compact(config))
    steps = [str(skeleton)]
    current = bijection.compress(skeleton)
    steps.append(str(current))
    while len(current) > 1:
        current = bijection.tower_configuration(current)
        steps.append(str(current))
    return " -> ".join(steps)


def bijection_suite(n_max: int = DEFAULT_BOUNDS["bijection"]["n_max"]) -> list[Case]:
    if not 0 <= n_max <= BIJECTION_LENGTH_LIMIT:
        raise ValueError(
            f"bijection sweeps are bounded at length {BIJECTION_LENGTH_LIMIT}"
        )
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


# ---------------------------------------------------------------- identities


SHIFT_PARAMETERS = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(3, 2),
    Fraction(-5, 2),
)


def _zeros(t: int) -> tuple[Fraction, ...]:
    return (Fraction(0),) * t


def power_of_four_failures(n_max: int) -> list[str]:
    _require_nonnegative("n_max", n_max)
    failures = []
    for n, value in enumerate(identities.convolution_sums(_zeros(2), n_max)):
        if value != Fraction(4) ** n:
            failures.append(f"n={n}: sum is {value}, not 4^{n}")
    return failures


def enumeration_count_failures(n_max: int) -> list[str]:
    _require_nonnegative("n_max", n_max)
    failures = []
    for n, value in enumerate(identities.convolution_sums(_zeros(2), n_max)):
        total = sum(1 for _ in configuration.enumerate_ordered(n))
        if value != total:
            failures.append(f"n={n}: sum {value} != {total} enumerated")
    return failures


def zero_offset_closed_form_failures(t_max: int, n_max: int) -> list[str]:
    _require_positive("t_max", t_max)
    _require_nonnegative("n_max", n_max)
    failures = []
    for t in range(1, t_max + 1):
        for n, lhs in enumerate(identities.convolution_sums(_zeros(t), n_max)):
            rhs = identities.closed_form(n, t)
            if lhs != rhs:
                failures.append(f"t={t}, n={n}: {lhs} != {rhs}")
    return failures


def reindexed_offset_pair_failures(n_max: int) -> list[str]:
    _require_nonnegative("n_max", n_max)
    failures = []
    offsets = (Fraction(1), Fraction(-1))
    for n, value in enumerate(identities.convolution_sums(offsets, n_max)):
        if value != Fraction(4) ** n:
            failures.append(f"n={n}: offsets [1,-1] give {value}")
    return failures


def odd_width_failures(n_max: int, L_max: int) -> list[str]:
    _require_nonnegative("n_max", n_max)
    _require_nonnegative("L_max", L_max)
    failures = []
    for n in range(n_max + 1):
        for L in range(L_max + 1):
            if not identities.odd_t_forms(n, L):
                failures.append(f"n={n}, L={L}")
    return failures


def recurrence_failures(t_max: int, n_max: int) -> list[str]:
    _require_positive("t_max", t_max)
    _require_nonnegative("n_max", n_max)
    failures = []
    for t in range(1, t_max + 1):
        for n in range(n_max + 1):
            if not identities.recurrence_check(t, n):
                failures.append(f"t={t}, n={n}")
    return failures


def _random_rational(rng: random.Random, bound: int = 12, den: int = 6) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, den))


def opposite_offsets_integer_failures(n_max: int) -> list[str]:
    _require_nonnegative("n_max", n_max)
    failures = []
    for n in range(n_max + 1):
        for extra in (1, 2, 5, 17):
            L = 2 * n + extra
            if not identities.opposite_offsets_check(n, L):
                failures.append(f"n={n}, L={L}")
    return failures


def opposite_offsets_rational_failures(n_max: int, seed: int, samples: int) -> list[str]:
    _require_nonnegative("n_max", n_max)
    _require_positive("samples", samples)
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        L = _random_rational(rng)
        for n, value in enumerate(identities.convolution_sums((-L, L), n_max)):
            if value != Fraction(4) ** n:
                failures.append(f"n={n}, L={L}")
    return failures


def zero_sum_offsets_failures(seed: int, samples: int, t_max: int, n_max: int) -> list[str]:
    _require_positive("samples", samples)
    _require_positive("t_max", t_max)
    _require_nonnegative("n_max", n_max)
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        t = rng.randint(1, t_max)
        n = rng.randint(0, n_max)
        offsets = [_random_rational(rng) for _ in range(t - 1)]
        offsets.append(-sum(offsets, Fraction(0)))
        lhs = identities.convolution_sum(identities.ConvolutionSpec(n, tuple(offsets)))
        rhs = identities.closed_form(n, t)
        if lhs != rhs:
            failures.append(f"n={n}, offsets={[str(o) for o in offsets]}: {lhs} != {rhs}")
    return failures


def inclusion_exclusion_integer_failures(L_max: int) -> list[str]:
    _require_nonnegative("L_max", L_max)
    failures = []
    for L in range(L_max + 1):
        for p in range(L + 1):
            value = identities.inclusion_exclusion_sum(L, p)
            if value != 1:
                failures.append(f"L={L}, p={p}: {value}")
    return failures


def inclusion_exclusion_polynomial_failures(p_max: int) -> list[str]:
    _require_nonnegative("p_max", p_max)
    failures = []
    variable = Polynomial((0, 1))
    for p in range(p_max + 1):
        value = identities.inclusion_exclusion_sum(variable, p)
        if value != 1:
            failures.append(f"p={p}: {value}")
    return failures


def shift_invariance_failures(n_max: int) -> list[str]:
    _require_nonnegative("n_max", n_max)
    failures = []
    for n in range(n_max + 1):
        for a in SHIFT_PARAMETERS:
            poly = identities.shift_invariance_poly(n, a)
            if not poly.is_constant:
                failures.append(f"n={n}, a={a}: degree {poly.degree}")
                continue
            expected = identities.convolution_sum(
                identities.ConvolutionSpec(n, (a, Fraction(0)))
            )
            if poly.constant_value() != expected:
                failures.append(f"n={n}, a={a}: constant {poly.constant_value()}")
    return failures


def difference_formula_failures(n_max: int) -> list[str]:
    _require_nonnegative("n_max", n_max)
    # Size 0 has no difference of order m >= 1, so n_max = 0 checks nothing.
    _require_positive("n_max", n_max)
    failures = []
    for n in range(n_max + 1):
        for a in SHIFT_PARAMETERS:
            for i in range(n + 1):
                for m in range(1, n - i + 1):
                    if not identities.delta_formula_check(n, a, i, m):
                        failures.append(f"n={n}, a={a}, i={i}, m={m}")
    return failures


def identities_suite(
    n_max: int = DEFAULT_BOUNDS["identities"]["n_max"],
    t_max: int = DEFAULT_BOUNDS["identities"]["t_max"],
    seed: int = DEFAULT_BOUNDS["identities"]["seed"],
) -> list[Case]:
    if n_max < 0 or t_max < 1:
        raise ValueError("need n_max >= 0 and t_max >= 1")
    # Family bounds never exceed their documented pins.
    rows = (
        ("power-of-four", power_of_four_failures, {"n_max": n_max}),
        ("enumeration-count", enumeration_count_failures, {"n_max": min(n_max, 8)}),
        ("zero-offset-closed-form", zero_offset_closed_form_failures,
         {"t_max": t_max, "n_max": min(n_max, 32)}),
        ("reindexed-offset-pair", reindexed_offset_pair_failures, {"n_max": min(n_max, 16)}),
        ("odd-width-forms", odd_width_failures, {"n_max": min(n_max, 12), "L_max": 6}),
        ("recurrence", recurrence_failures, {"t_max": min(t_max, 6), "n_max": min(n_max, 16)}),
        ("opposite-offsets-integer", opposite_offsets_integer_failures,
         {"n_max": min(n_max, 16)}),
        ("opposite-offsets-rational", opposite_offsets_rational_failures,
         {"n_max": min(n_max, 16), "seed": seed, "samples": 20}),
        ("zero-sum-offsets", zero_sum_offsets_failures,
         {"samples": 100, "t_max": min(t_max, 5), "n_max": min(n_max, 12), "seed": seed}),
        ("inclusion-exclusion-integer", inclusion_exclusion_integer_failures, {"L_max": 30}),
        ("inclusion-exclusion-polynomial", inclusion_exclusion_polynomial_failures,
         {"p_max": 12}),
        ("shift-invariance", shift_invariance_failures, {"n_max": min(n_max, 8)}),
        ("difference-formula", difference_formula_failures, {"n_max": min(n_max, 6)}),
    )
    return [Case(f"identities/{name}", run, kwargs) for name, run, kwargs in rows]


# ------------------------------------------------------------------- series


SERIES_PARAMETERS = (
    Fraction(-3),
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(7, 2),
)

POWER_ROUTE_PARAMETERS = (
    Fraction(-3),
    Fraction(-1),
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(7, 2),
)


def route_independence_failures(order: int) -> list[str]:
    """g by its recurrence and as (1-4x)^(-1/2); g^t by the power
    recurrence and as (1-4x)^(-t/2); and g^t and C^t by the power
    recurrence and as exp(t*log)."""
    failures = []
    g = series.base_series("g", order)
    if g != series.base_series("binomial_power", order, Fraction(-1, 2)):
        failures.append("g differs from its binomial-power route")
    for t in POWER_ROUTE_PARAMETERS:
        if series.base_power("g", order, t) != series.base_series(
            "binomial_power", order, -t / 2
        ):
            failures.append(f"t={t}: power route disagrees")
    routes = (("g", "g", g), ("C", "catalan", series.base_series("catalan", order)))
    for name, kind, f in routes:
        log_f = series.series_log(f)
        for t in POWER_ROUTE_PARAMETERS:
            if series.base_power(kind, order, t) != series.series_exp(log_f * t):
                failures.append(f"{name}^{t}: power recurrence and exp/log disagree")
    return failures


def catalan_route_failures(order: int) -> list[str]:
    root = series.base_series("binomial_power", order, Fraction(1, 2))
    halved = (root + 1) * Fraction(1, 2)
    closed = series.series_pow(halved, -1)
    if closed != series.base_series("catalan", order):
        return ["catalan recurrence disagrees with 2/(1+sqrt(1-4x))"]
    return []


def derivative_law_failures(order: int) -> list[str]:
    failures = []
    g = series.base_series("g", order)
    c = series.base_series("catalan", order)
    g_prime = series.nth_derivative(g, 1)
    if g_prime != (series.base_power("g", order, 3) * 2).truncate(order - 1):
        failures.append("g' != 2*g^3")
    c_prime = series.nth_derivative(c, 1)
    if c_prime != (g * series.base_power("catalan", order, 2)).truncate(order - 1):
        failures.append("C' != g*C^2")
    return failures


def derivative_identity_failures(order: int, n_max: int) -> list[str]:
    _require_positive("n_max", n_max)
    failures = []
    for variant in ("gt", "gC", "C"):
        for param in SERIES_PARAMETERS:
            for n in range(1, n_max + 1):
                if not series.derivative_identity_check(variant, param, n, order):
                    failures.append(f"{variant}, param={param}, n={n}")
    return failures


def coefficient_identity_failures(order: int) -> list[str]:
    failures = []
    for variant in ("gt", "gC", "C"):
        params = SERIES_PARAMETERS + ((Fraction(-2),) if variant == "C" else ())
        for param in params:
            if not series.coefficient_identity_check(variant, param, order):
                failures.append(f"{variant}, param={param}")
    return failures


def power_additivity_failures(order: int) -> list[str]:
    failures = []
    pairs = (
        (Fraction(1, 2), Fraction(3, 2)),
        (Fraction(-1, 3), Fraction(2)),
        (Fraction(7, 2), Fraction(-3)),
    )
    for r, s in pairs:
        combined = series.base_power("g", order, r + s)
        split = series.base_power("g", order, r) * series.base_power("g", order, s)
        if combined != split:
            failures.append(f"r={r}, s={s}")
    return failures


def wz_certificate_failures(n_max: int) -> list[str]:
    _require_nonnegative("n_max", n_max)
    failures = []
    for n in range(n_max + 1):
        for i in range(n + 2):
            if not series.wz_certificate_check(n, i):
                failures.append(f"n={n}, i={i}")
    return failures


def telescoped_sum_failures(n_max: int) -> list[str]:
    _require_nonnegative("n_max", n_max)
    return [f"n={n}" for n in range(n_max + 1) if not series.telescoped_sum_check(n)]


def series_suite(order: int = DEFAULT_BOUNDS["series"]["order"]) -> list[Case]:
    if order < 16:
        raise ValueError("series suite needs order >= 16")
    rows = (
        ("route-independence", route_independence_failures, {"order": order}),
        ("catalan-closed-form", catalan_route_failures, {"order": order}),
        ("derivative-laws", derivative_law_failures, {"order": order}),
        ("derivative-identities", derivative_identity_failures, {"order": order, "n_max": 5}),
        ("coefficient-identities", coefficient_identity_failures, {"order": order}),
        ("power-additivity", power_additivity_failures, {"order": order}),
        ("wz-certificate", wz_certificate_failures, {"n_max": 16}),
        ("telescoped-sum", telescoped_sum_failures, {"n_max": 16}),
    )
    return [Case(f"series/{name}", run, kwargs) for name, run, kwargs in rows]


SUITE_NAMES = ("bijection", "identities", "series")
