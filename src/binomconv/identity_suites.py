"""The identities and series verification suites: the named cases over
the algebraic layer (convolution sums, their closed forms and the
polynomial identities behind them) and the analytic layer (truncated
power series and the telescoping certificate).

Cases, reports, the bound checks and DEFAULT_BOUNDS live in suites,
which also resolves every name here, so suites.identities_suite and
suites.series_suite work as ever.  This module is imported the first
time such a name is asked for, so a process that runs only the
bijection never loads exactnum, identities, series or fractions.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import configuration, identities, series
from .exactnum import Polynomial
from .suites import DEFAULT_BOUNDS, Case, _require_nonnegative, _require_positive


# ---------------------------------------------------------------- identities


SHIFT_PARAMETERS = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(3, 2),
    Fraction(-5, 2),
)


def power_of_four_failures(n_max: int) -> list[str]:
    _require_nonnegative("n_max", n_max)
    failures = []
    for n, value in enumerate(identities.convolution_sums((0, 0), n_max)):
        if value != Fraction(4) ** n:
            failures.append(f"n={n}: sum is {value}, not 4^{n}")
    return failures


def enumeration_count_failures(n_max: int) -> list[str]:
    _require_nonnegative("n_max", n_max)
    failures = []
    for n, value in enumerate(identities.convolution_sums((0, 0), n_max)):
        total = sum(1 for _ in configuration.enumerate_ordered(n))
        if value != total:
            failures.append(f"n={n}: sum {value} != {total} enumerated")
    return failures


def zero_offset_closed_form_failures(t_max: int, n_max: int) -> list[str]:
    _require_positive("t_max", t_max)
    _require_nonnegative("n_max", n_max)
    failures = []
    for t in range(1, t_max + 1):
        for n, lhs in enumerate(identities.convolution_sums((0,) * t, n_max)):
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
    return [
        f"t={t}, n={n}"
        for t in range(1, t_max + 1)
        for n in identities.recurrence_check(t, n_max)
    ]


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
        lhs = identities.convolution_sum(offsets, n)
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
    unshifted = {a: identities.convolution_sums((a, 0), n_max) for a in SHIFT_PARAMETERS}
    failures = []
    for n in range(n_max + 1):
        for a in SHIFT_PARAMETERS:
            poly = identities.shift_invariance_poly(n, a)
            if not poly.is_constant:
                failures.append(f"n={n}, a={a}: degree {poly.degree}")
                continue
            if poly.constant_value() != unshifted[a][n]:
                failures.append(f"n={n}, a={a}: constant {poly.constant_value()}")
    return failures


def difference_formula_failures(n_max: int) -> list[str]:
    _require_nonnegative("n_max", n_max)
    # Size 0 has no difference of order m >= 1, so n_max = 0 checks nothing.
    _require_positive("n_max", n_max)
    return [
        f"n={n}, a={a}, {failure}"
        for n in range(1, n_max + 1)
        for a in SHIFT_PARAMETERS
        for failure in identities.delta_formula_check(n, a)
    ]


def identities_suite(
    n_max: int = DEFAULT_BOUNDS["identities"]["n_max"],
    t_max: int = DEFAULT_BOUNDS["identities"]["t_max"],
    seed: int = DEFAULT_BOUNDS["identities"]["seed"],
) -> list[Case]:
    # n_max = 0 would leave difference-formula with nothing to check.
    _require_positive("n_max", n_max)
    _require_positive("t_max", t_max)
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
    return [
        f"{variant}, param={param}, n={n}"
        for variant in ("gt", "gC", "C")
        for param in SERIES_PARAMETERS
        for n in series.derivative_identity_check(variant, param, n_max, order)
    ]


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
    return [f"n={n}, i={i}" for n, i in series.wz_certificate_check(n_max)]


def telescoped_sum_failures(n_max: int) -> list[str]:
    _require_nonnegative("n_max", n_max)
    return [f"n={n}" for n in series.telescoped_sum_check(n_max)]


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
