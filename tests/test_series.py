"""Truncated power series, rational powers, and the series identities."""

from fractions import Fraction
from math import comb, gcd, perm
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binomconv import series
from binomconv.exactnum import OutOfRangeError, Polynomial, binomial
from binomconv.series import (
    NonUnitConstantTermError,
    OrderExhaustedError,
    TruncatedSeries,
    base_series,
    certificate_multiplier,
    certificate_summand,
    coefficient_identity_check,
    derivative_identity_check,
    nth_derivative,
    series_exp,
    series_log,
    series_pow,
    telescoped_sum_check,
    wz_certificate_check,
)

#: The polynomial variable.
X = Polynomial((0, 1))

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
unit_series = st.lists(rationals, min_size=3, max_size=6).map(
    lambda tail: TruncatedSeries([Fraction(1), *tail])
)
mixed = st.fractions(min_value=-5, max_value=5, max_denominator=12)
series_pairs = st.integers(0, 7).flatmap(
    lambda order: st.tuples(
        st.lists(mixed, min_size=order + 1, max_size=order + 1),
        st.lists(mixed, min_size=order + 1, max_size=order + 1),
    )
)


def cauchy_product(a, b):
    """The truncated product by the textbook Fraction double loop; test-only."""
    return tuple(
        sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
        for k in range(len(a))
    )


# ------------------------------------------------------------------ container


def test_series_construction():
    f = TruncatedSeries((1, 2, 3))
    assert f.order == 2
    assert f[0] == 1 and f[2] == 3
    assert all(isinstance(c, Fraction) for c in f.coefficients)
    with pytest.raises(ValueError):
        TruncatedSeries(())


def test_series_constant():
    f = TruncatedSeries.constant(Fraction(3, 2), 4)
    assert f.order == 4
    assert f[0] == Fraction(3, 2)
    assert all(f[k] == 0 for k in range(1, 5))


def test_series_coefficient_bounds():
    f = TruncatedSeries((1, 2, 3))
    with pytest.raises(OrderExhaustedError):
        f[3]
    with pytest.raises(OrderExhaustedError):
        f[-1]


def test_series_truncate():
    f = TruncatedSeries((1, 2, 3, 4))
    assert f.truncate(1) == TruncatedSeries((1, 2))
    assert f.truncate(3) == f
    with pytest.raises(OrderExhaustedError):
        f.truncate(4)


@pytest.mark.parametrize(
    "call",
    [
        lambda f: f.truncate(-3),
        lambda f: f.truncate(-1),
        lambda f: TruncatedSeries.constant(7, -5),
    ],
    ids=["truncate(-3)", "truncate(-1)", "constant(7, -5)"],
)
def test_a_negative_order_is_refused(call):
    # Slicing would read -3 as "all but the last three" and -1 as an
    # empty series, and a negative count of zeros as none.
    with pytest.raises(OutOfRangeError) as refused:
        call(base_series("g", 10))
    assert str(refused.value) == "order must be a nonnegative integer"


def test_series_arithmetic_requires_equal_orders():
    f = TruncatedSeries((1, 2))
    g = TruncatedSeries((1, 2, 3))
    for op in (lambda: f + g, lambda: f - g, lambda: f * g):
        with pytest.raises(ValueError):
            op()


def test_series_rejects_floats():
    with pytest.raises(TypeError):
        TruncatedSeries((1, 0.1))
    with pytest.raises(TypeError):
        TruncatedSeries.constant(0.5, 3)


def test_series_scalar_arithmetic():
    f = TruncatedSeries((1, 2, 3))
    assert (f + 1)[0] == 2 and (f + 1)[1] == 2
    assert (f - Fraction(1, 2))[0] == Fraction(1, 2)
    assert (2 * f).coefficients == (2, 4, 6)
    assert (1 - f).coefficients == (0, -2, -3)
    assert (-f).coefficients == (-1, -2, -3)


def test_series_multiplication_truncates():
    x = TruncatedSeries((0, 1, 0, 0))
    assert (x * x).coefficients == (0, 0, 1, 0)
    assert ((x * x) * x).coefficients == (0, 0, 0, 1)
    # x^4 falls off the order-3 truncation entirely.
    assert (((x * x) * x) * x).coefficients == (0, 0, 0, 0)


@given(pair=series_pairs)
@example(pair=((0, 0, 0), (Fraction(1, 3), 2, Fraction(-5, 7))))
@example(pair=((0,), (0,)))
@settings(max_examples=60)
def test_series_product_matches_cauchy_oracle(pair):
    a, b = pair
    product = TruncatedSeries(a) * TruncatedSeries(b)
    assert product.coefficients == cauchy_product(a, b)


def fraction_log(f):
    """log f by the textbook Fraction recurrence; test-only."""
    out = [Fraction(0)] * len(f)
    for n in range(1, len(f)):
        acc = n * f[n]
        for j in range(1, n):
            acc -= f[j] * (n - j) * out[n - j]
        out[n] = acc / n
    return tuple(out)


def fraction_exp(u):
    """exp u by the textbook Fraction recurrence; test-only."""
    out = [Fraction(1)] + [Fraction(0)] * (len(u) - 1)
    for n in range(1, len(u)):
        out[n] = sum((k * u[k] * out[n - k] for k in range(1, n + 1)), Fraction(0)) / n
    return tuple(out)


def assert_canonical(f: TruncatedSeries) -> None:
    """The stored form: integer numerators, one per coefficient, over a
    positive denominator that shares no factor with all of them."""
    num, den = f._num, f._den
    assert all(type(c) is int for c in num) and type(den) is int and den > 0
    assert len(num) == f.order + 1
    assert gcd(den, *num) == 1


# (1/2, 1/3) and (1/2, 2/3) differ in their denominators, and their sum
# (1, 1) and difference (0, -1/3) cancel them.
CANCELLING = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 2), Fraction(2, 3)))


@given(pair=series_pairs, c=mixed)
@example(pair=CANCELLING, c=Fraction(6))
@example(
    pair=((Fraction(1, 6), Fraction(-5, 12), 0), (Fraction(5, 6), Fraction(5, 12), 0)),
    c=Fraction(-12, 5),
)
@example(pair=((0, 0), (0, 0)), c=Fraction(0))
@settings(max_examples=60)
def test_series_kernels_match_fraction_loops(pair, c):
    a, b = pair
    f, g = TruncatedSeries(a), TruncatedSeries(b)
    order = f.order
    pairs = [
        (f + g, tuple(x + y for x, y in zip(a, b))),
        (f - g, tuple(x - y for x, y in zip(a, b))),
        (f + c, (a[0] + c, *a[1:])),
        (c - f, (c - a[0], *(-x for x in a[1:]))),
        (f * c, tuple(x * c for x in a)),
        (-f, tuple(-x for x in a)),
        (f * g, cauchy_product(a, b)),
        (f.truncate(order // 2), tuple(a[: order // 2 + 1])),
    ]
    # The sum, negation and scalar kernels are shared with Polynomial,
    # which keeps the same integer form but drops trailing zeros.
    p, q = Polynomial(a), Polynomial(b)
    polynomial_results = (p + q, p - q, p + c, c - p, p * c, -p)
    for result, (_, reference) in zip(polynomial_results, pairs):
        assert result == Polynomial(reference)
        assert type(result) is Polynomial
    for n in range(order + 1):
        derivative = tuple(a[k + n] * perm(k + n, n) for k in range(order - n + 1))
        pairs.append((nth_derivative(f, n), derivative))
    for result, reference in pairs:
        assert result.coefficients == reference
        assert result == TruncatedSeries(reference)
        assert_canonical(result)


@given(pair=series_pairs)
@example(pair=CANCELLING)
@example(pair=((0, Fraction(1, 2), Fraction(-1, 3), Fraction(7, 12)), (0, 1, 0, 0)))
@settings(max_examples=40, deadline=None)
def test_log_and_exp_match_fraction_recurrences(pair):
    a, b = pair
    unit, zero = TruncatedSeries((1, *a[1:])), TruncatedSeries((0, *b[1:]))
    for result, reference in (
        (series_log(unit), fraction_log(unit.coefficients)),
        (series_exp(zero), fraction_exp(zero.coefficients)),
    ):
        assert result.coefficients == reference
        assert_canonical(result)


def test_one_series_by_two_routes_is_stored_once():
    routes = [
        TruncatedSeries((Fraction(1, 2), Fraction(1, 3))).truncate(0) * 2,
        TruncatedSeries.constant(1, 0),
        TruncatedSeries((Fraction(3, 4),)) + Fraction(1, 4),
        TruncatedSeries((Fraction(2, 3),)) * Fraction(3, 2),
        nth_derivative(TruncatedSeries((5, Fraction(1, 7), Fraction(1, 2))), 2),
    ]
    for series in routes:
        assert series == routes[0]
        assert hash(series) == hash(routes[0])
        assert (series._num, series._den) == ((1,), 1)
    zero = TruncatedSeries((Fraction(1, 3), Fraction(1, 5))) * 0
    assert (zero._num, zero._den) == ((0, 0), 1)


def test_series_are_immutable():
    f = TruncatedSeries((1, Fraction(1, 2)))
    with pytest.raises(AttributeError):
        f.coefficients = (1, 1)
    with pytest.raises(AttributeError):
        f.extra = 1
    assert f.coefficients == (1, Fraction(1, 2))


def test_integer_form_still_refuses_floats():
    f = TruncatedSeries((1, 2))
    for entry in (
        lambda: TruncatedSeries((1, 0.5)),
        lambda: TruncatedSeries.constant(0.5, 3),
        lambda: f * 0.5,
        lambda: 0.5 * f,
        lambda: f + 0.5,
    ):
        with pytest.raises(TypeError):
            entry()


@given(f=unit_series, g=unit_series, h=unit_series)
@settings(max_examples=40)
def test_series_ring_axioms(f, g, h):
    order = min(f.order, g.order, h.order)
    f, g, h = f.truncate(order), g.truncate(order), h.truncate(order)
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h


# --------------------------------------------------------------- base series


def test_base_series_g():
    g = base_series("g", 4)
    assert g.coefficients == (1, 2, 6, 20, 70)
    long = base_series("g", 40)
    assert all(long[n] == comb(2 * n, n) for n in range(41))


def test_base_series_catalan():
    c = base_series("catalan", 4)
    assert c.coefficients == (1, 1, 2, 5, 14)


def test_base_series_binomial_power():
    f = base_series("binomial_power", 3, s=1)
    assert f.coefficients == (1, -4, 0, 0)
    assert base_series("binomial_power", 16, s=Fraction(-1, 2)) == base_series("g", 16)


def test_base_series_validation():
    with pytest.raises(ValueError):
        base_series("g", -1)
    with pytest.raises(ValueError):
        base_series("binomial_power", 4)  # s missing
    with pytest.raises(ValueError):
        base_series("mystery", 4)


# ------------------------------------------------------------- exp / log / pow


def test_series_log_of_linear():
    f = base_series("binomial_power", 6, s=1)  # 1 - 4x exactly
    expected = [Fraction(0)] + [Fraction(-(4**n), n) for n in range(1, 7)]
    assert series_log(f) == TruncatedSeries(expected)


def test_series_log_requires_unit_constant():
    with pytest.raises(NonUnitConstantTermError):
        series_log(TruncatedSeries((2, 1)))


def test_series_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        series_exp(TruncatedSeries((1, 1)))


@given(f=unit_series)
@settings(max_examples=40)
def test_exp_log_round_trip(f):
    assert series_exp(series_log(f)) == f


@given(f=unit_series, g=unit_series)
@settings(max_examples=30)
def test_log_turns_products_into_sums(f, g):
    order = min(f.order, g.order)
    f, g = f.truncate(order), g.truncate(order)
    assert series_log(f * g) == series_log(f) + series_log(g)


@given(f=unit_series, r=st.fractions(min_value=-3, max_value=3, max_denominator=3))
@example(f=TruncatedSeries((1, Fraction(1, 2), Fraction(-2, 3))), r=Fraction(0))
@example(f=TruncatedSeries((1, Fraction(1, 2), Fraction(-2, 3))), r=Fraction(-5, 3))
@settings(max_examples=40, deadline=None)
def test_series_pow_matches_exp_log(f, r):
    assert series_pow(f, r) == series_exp(series_log(f) * r)


def test_series_pow_requires_unit_constant():
    with pytest.raises(NonUnitConstantTermError):
        series_pow(TruncatedSeries((2, 1)), Fraction(1, 2))


def test_series_pow_of_order_zero():
    assert series_pow(TruncatedSeries((1,)), Fraction(-7, 3)).coefficients == (1,)


def test_series_pow_rejects_float_exponent():
    with pytest.raises(TypeError):
        series_pow(base_series("g", 4), 0.5)


def test_series_pow_matches_repeated_multiplication():
    g = base_series("g", 10)
    product = TruncatedSeries.constant(1, 10)
    for k in range(4):
        assert series_pow(g, k) == product
        product = product * g


def test_series_pow_inverse():
    c = base_series("catalan", 12)
    assert series_pow(c, -1) * c == TruncatedSeries.constant(1, 12)


def test_series_pow_half():
    f = base_series("binomial_power", 12, s=1)
    root = series_pow(f, Fraction(1, 2))
    assert root * root == f
    assert root == base_series("binomial_power", 12, s=Fraction(1, 2))


@given(
    f=unit_series,
    r=st.fractions(min_value=-2, max_value=2, max_denominator=3),
    s=st.fractions(min_value=-2, max_value=2, max_denominator=3),
)
@settings(max_examples=30, deadline=None)
def test_series_pow_additivity(f, r, s):
    assert series_pow(f, r) * series_pow(f, s) == series_pow(f, r + s)


# ----------------------------------------------------------------- derivative


def test_nth_derivative_basics():
    f = TruncatedSeries((5, 4, 3, 2))
    assert nth_derivative(f, 0) == f
    assert nth_derivative(f, 1).coefficients == (4, 6, 6)
    assert nth_derivative(f, 3).coefficients == (12,)
    with pytest.raises(OrderExhaustedError):
        nth_derivative(f, 4)
    with pytest.raises(ValueError):
        nth_derivative(f, -1)


@given(f=unit_series, n=st.integers(0, 3))
@settings(max_examples=40)
def test_nth_derivative_matches_iterated_first(f, n):
    expected = f
    for _ in range(n):
        expected = nth_derivative(expected, 1)
    assert nth_derivative(f, n) == expected


def test_first_order_derivative_laws():
    order = 24
    g = base_series("g", order)
    c = base_series("catalan", order)
    assert nth_derivative(g, 1) == (series_pow(g, 3) * 2).truncate(order - 1)
    assert nth_derivative(c, 1) == (g * c * c).truncate(order - 1)


# ----------------------------------------------------------- identity checkers


def test_derivative_identity_examples():
    assert derivative_identity_check("gt", 3, 2, order=32) == []
    assert derivative_identity_check("gt", Fraction(-1, 2), 1, order=32) == []
    assert derivative_identity_check("C", 2, 2, order=32) == []
    assert derivative_identity_check("C", Fraction(5, 2), 1, order=32) == []
    assert derivative_identity_check("gC", 1, 2, order=32) == []
    assert derivative_identity_check("gC", -3, 3, order=32) == []


def test_derivative_identity_preconditions():
    with pytest.raises(ValueError):
        derivative_identity_check("gt", 1, 0, order=32)
    with pytest.raises(ValueError):
        derivative_identity_check("gt", 1, 1.0, order=32)
    with pytest.raises(ValueError):
        derivative_identity_check("gt", 1, 25, order=32)  # order < n_max + 8
    assert derivative_identity_check("gt", 1, 24, order=32) == []
    with pytest.raises(ValueError):
        derivative_identity_check("gt", 1, 1, order=32.0)
    with pytest.raises(ValueError):
        derivative_identity_check("nope", 1, 1, order=32)


def test_a_perturbed_power_fails_the_derivative_identity_at_its_n(monkeypatch):
    exact = series._power
    param = Fraction(1, 2)

    def perturbed(kind, order, r):
        power = exact(kind, order, r)
        if (kind, r) != ("g", param + 6):
            return power
        coefficients = list(power.coefficients)
        coefficients[5] += 1
        return TruncatedSeries(coefficients)

    monkeypatch.setattr(series, "_power", perturbed)
    # g^(t+2n) is read at n = 3 only.
    assert derivative_identity_check("gt", param, 5, order=32) == [3]


def test_coefficient_identity_examples():
    assert coefficient_identity_check("gt", 1, order=24)
    assert coefficient_identity_check("gt", -3, order=24)
    assert coefficient_identity_check("gC", 2, order=24)
    assert coefficient_identity_check("gC", Fraction(-1, 2), order=24)
    assert coefficient_identity_check("C", 3, order=24)
    with pytest.raises(ValueError):
        coefficient_identity_check("nope", 1, order=24)


def test_coefficient_identity_survives_the_pole():
    # At param = -2 the naive form of the C-power coefficient divides by
    # 2n + l = 0 at n = 1; the falling-factorial form stays finite.
    assert coefficient_identity_check("C", -2, order=24)
    assert series_pow(base_series("catalan", 8), -2)[1] == -2


# ---------------------------------------------------------------- certificate


def test_certificate_spot_values():
    assert certificate_summand(1, 1) == X
    assert certificate_summand(1, 0) == 2
    assert certificate_summand(3, 4) == 0
    assert certificate_multiplier(2, 0) == 0
    # i(i+1) * binomial(2, 1) * binomial(x+1, 2) at n = i = 1.
    assert certificate_multiplier(1, 1) == 2 * X * X + 2 * X


def test_wz_certificate():
    assert wz_certificate_check(5) == []
    assert wz_certificate_check(0) == []


def test_wz_certificate_bounds():
    with pytest.raises(ValueError):
        wz_certificate_check(-1)
    with pytest.raises(ValueError):
        wz_certificate_check(3.0)


def test_telescoped_sum():
    assert certificate_summand(1, 0) + certificate_summand(1, 1) == X + 2
    assert binomial(Polynomial((2, 1)), 1) == X + 2
    assert telescoped_sum_check(8) == []
    assert telescoped_sum_check(0) == []
    with pytest.raises(ValueError):
        telescoped_sum_check(-1)
    with pytest.raises(ValueError):
        telescoped_sum_check(3.0)


@pytest.mark.parametrize("n0, i0", [(0, 1), (2, 1), (3, 4), (4, 2)])
def test_one_perturbed_multiplier_fails_the_two_points_that_use_it(
    n0, i0, monkeypatch
):
    exact = series.certificate_multiplier

    def perturbed(n, i):
        return exact(n, i) + ((n, i) == (n0, i0))

    monkeypatch.setattr(series, "certificate_multiplier", perturbed)
    # G(n0, i0) enters the equation at i = i0 - 1 and at i = i0.
    assert wz_certificate_check(4) == [(n0, i0 - 1), (n0, i0)]


@pytest.mark.parametrize("n0", [0, 3])
def test_a_shifted_row_of_multipliers_fails_only_at_its_boundaries(n0, monkeypatch):
    exact = series.certificate_multiplier

    def shifted(n, i):
        return exact(n, i) + (n == n0)

    monkeypatch.setattr(series, "certificate_multiplier", shifted)
    # Every difference G(n0, i+1) - G(n0, i) is unchanged; only the
    # vanishing of G(n0, 0) and G(n0, n0+2) can see the shift.
    assert wz_certificate_check(4) == [(n0, 0), (n0, n0 + 1)]


def test_a_compensated_summand_fails_at_its_boundary(monkeypatch):
    exact = series.certificate_summand
    n0 = 2
    shifts = {
        (n0, n0 + 1): (n0 + 1) * Polynomial((n0 + 1, 1)),
        (n0 + 1, n0 + 1): Polynomial((2 * n0 + 1, 1)) * Polynomial((2 * n0 + 2, 1)),
    }

    def perturbed(n, i):
        return exact(n, i) + shifts.get((n, i), 0)

    monkeypatch.setattr(series, "certificate_summand", perturbed)
    # The two shifts cancel in the equation at (n0, n0+1), so only the
    # vanishing of F(n0, n0+1) sees the change there.
    assert wz_certificate_check(4) == [(n0, n0 + 1), (n0 + 1, n0 + 1)]


def test_a_scaled_closed_form_fails_every_telescoped_sum(monkeypatch):
    exact = series.binomial

    def doubled(x, k):
        # Only the closed form binomial(2n+x, n) has constant term 2k.
        return exact(x, k) * (2 if x == Polynomial((2 * k, 1)) else 1)

    monkeypatch.setattr(series, "binomial", doubled)
    # The doubled closed form still satisfies the recurrence.
    assert telescoped_sum_check(4) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("check", [wz_certificate_check, telescoped_sum_check])
def test_each_certificate_polynomial_is_built_once_per_call(check):
    with mock.patch.object(
        series, "certificate_summand", wraps=certificate_summand
    ) as summand, mock.patch.object(
        series, "certificate_multiplier", wraps=certificate_multiplier
    ) as multiplier:
        assert check(6) == []
    assert summand.called
    for built in (summand, multiplier):
        calls = [c.args for c in built.call_args_list]
        assert len(set(calls)) == len(calls)
