"""Exact scalar and polynomial arithmetic."""

from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binomconv import identities, series
from binomconv.exactnum import (
    NEG_INFINITY,
    OutOfRangeError,
    Polynomial,
    X,
    binomial,
    falling_factorial,
    finite_difference,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)
small_polys = st.lists(rationals, max_size=5).map(Polynomial)


# ---------------------------------------------------------------- polynomials


def test_polynomial_trims_trailing_zeros():
    assert Polynomial((1, 2, 0, 0)) == Polynomial((1, 2))
    assert Polynomial((0,)).degree == NEG_INFINITY
    assert Polynomial(()).degree == NEG_INFINITY
    assert Polynomial((0, 0, 3)).degree == 2


def test_polynomial_coerces_to_fraction():
    p = Polynomial((1, 2))
    assert all(isinstance(c, Fraction) for c in p.coefficients)


def test_polynomial_scalar_equality_and_hash():
    assert Polynomial((Fraction(3, 2),)) == Fraction(3, 2)
    assert Polynomial((4,)) == 4
    assert Polynomial(()) == 0
    assert hash(Polynomial((4,))) == hash(4)
    assert hash(Polynomial((Fraction(3, 2),))) == hash(Fraction(3, 2))
    assert Polynomial((0, 1)) != 0
    assert X != "x"


def test_polynomial_evaluation_is_exact():
    p = 2 * X**2 - 3 * X + Fraction(1, 2)
    assert p(Fraction(1, 2)) == Fraction(-1, 2)
    assert p(0) == Fraction(1, 2)
    assert p(-2) == Fraction(29, 2)


def test_polynomial_constant_value():
    assert Polynomial((7,)).constant_value() == 7
    assert Polynomial(()).constant_value() == 0
    with pytest.raises(ValueError):
        X.constant_value()


def test_polynomial_division_by_scalar():
    assert (2 * X + 4) / 2 == X + 2
    assert (X / Fraction(1, 3)) == 3 * X
    with pytest.raises(ZeroDivisionError):
        X / 0


def test_polynomial_power():
    assert (X + 1) ** 0 == 1
    assert (X + 1) ** 2 == X**2 + 2 * X + 1
    with pytest.raises(ValueError):
        X ** (-1)


def test_polynomial_repr_and_bool():
    assert bool(Polynomial(())) is False
    assert bool(X) is True
    assert "Polynomial" in repr(X)


@given(a=small_polys, b=small_polys, c=small_polys, x=rationals)
def test_polynomial_ring_axioms(a, b, c, x):
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b)(x) == a(x) * b(x)
    assert (a - b)(x) == a(x) - b(x)


@given(p=small_polys, h=rationals, x=rationals)
def test_taylor_shift_evaluates_to_shifted_argument(p, h, x):
    assert p.taylor_shift(h)(x) == p(x + h)


def test_taylor_shift_example():
    assert (X**2).taylor_shift(1) == X**2 + 2 * X + 1
    assert X.taylor_shift(Fraction(-1, 2)) == X - Fraction(1, 2)


# ---------------------------------------------------------- falling factorial


def test_falling_factorial_integers():
    assert falling_factorial(7, 3) == 210
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(0, 2) == 0
    assert falling_factorial(-1, 2) == 2


def test_falling_factorial_rational():
    assert falling_factorial(Fraction(5, 2), 2) == Fraction(15, 4)
    assert isinstance(falling_factorial(3, 2), Fraction)


def test_falling_factorial_polynomial():
    assert falling_factorial(X, 2) == X**2 - X
    assert falling_factorial(X, 0) == Polynomial((1,))
    assert falling_factorial(X, 3)(5) == 60


def test_falling_factorial_negative_length_rejected():
    with pytest.raises(OutOfRangeError):
        falling_factorial(3, -1)
    with pytest.raises(OutOfRangeError):
        falling_factorial(X, -2)


@given(x=rationals, k=st.integers(0, 8))
def test_falling_factorial_splits_off_last_term(x, k):
    assert falling_factorial(x, k + 1) == falling_factorial(x, k) * (x - k)


# ------------------------------------------------------- binomial coefficient


def test_binomial_matches_comb_on_integer_grid():
    for n in range(13):
        for k in range(13):
            assert binomial(n, k) == comb(n, k)


def test_binomial_rational_upper_index():
    assert binomial(Fraction(5, 2), 2) == Fraction(15, 8)
    assert binomial(Fraction(-1, 2), 1) == Fraction(-1, 2)
    assert binomial(Fraction(1, 2), 0) == 1


def test_binomial_negative_lower_index_is_zero():
    assert binomial(Fraction(5, 2), -1) == 0
    assert binomial(X, -3) == Polynomial(())
    assert binomial(7, -2) == 0


def test_binomial_polynomial_upper_index():
    p = binomial(X, 2)
    assert p == (X**2 - X) / 2
    assert p(6) == comb(6, 2)
    assert binomial(2 * X + 1, 1) == 2 * X + 1


def test_binomial_requires_integer_lower_index():
    with pytest.raises(OutOfRangeError):
        binomial(3, Fraction(1, 2))


@given(L=st.integers(-10, 20), i=st.integers(0, 20))
def test_binomial_upper_negation(L, i):
    # C(2i - L, i) = (-1)^i C(L - 1 - i, i) as a polynomial identity in L.
    assert binomial(2 * i - L, i) == (-1) ** i * binomial(L - 1 - i, i)


@given(a=rationals, b=rationals, j=st.integers(0, 12))
@settings(max_examples=40)
def test_binomial_vandermonde(a, b, j):
    total = sum(binomial(a, k) * binomial(b, j - k) for k in range(j + 1))
    assert total == binomial(a + b, j)


# ------------------------------------------- integer kernels against oracles


def fraction_falling_factorial(x: Fraction, k: int) -> Fraction:
    """Test-only reference: one Fraction product per factor."""
    result = Fraction(1)
    for m in range(k):
        result *= x - m
    return result


def fraction_product(a: Polynomial, b: Polynomial) -> Polynomial:
    """Test-only reference: the Fraction double loop."""
    out = [Fraction(0)] * max(len(a.coefficients) + len(b.coefficients) - 1, 0)
    for i, ai in enumerate(a.coefficients):
        for j, bj in enumerate(b.coefficients):
            out[i + j] += ai * bj
    return Polynomial(out)


kernel_rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
mixed_polys = st.lists(kernel_rationals, max_size=8).map(Polynomial)


@given(x=kernel_rationals, k=st.integers(0, 40))
def test_scalar_kernels_match_fraction_products(x, k):
    falling = fraction_falling_factorial(x, k)
    results = falling_factorial(x, k), binomial(x, k)
    assert results == (falling, falling / factorial(k))
    assert all(type(r) is Fraction for r in results)


def test_scalar_kernel_examples():
    assert falling_factorial(3, 5) == 0
    assert binomial(3, 5) == 0
    assert binomial(-3, 5) == -21
    assert falling_factorial(-3, 5) == -2520
    assert falling_factorial(Fraction(-7, 12), 0) == 1
    assert binomial(Fraction(-7, 12), 0) == 1


@given(a=mixed_polys, b=mixed_polys)
@example(a=Polynomial(), b=Polynomial((Fraction(1, 3), 2)))
@example(a=Polynomial((Fraction(-5, 6),)), b=Polynomial((Fraction(1, 4), 0, 3)))
@example(a=Polynomial((Fraction(3, 4), Fraction(1, 6))), b=Polynomial((7,)))
def test_polynomial_product_matches_fraction_double_loop(a, b):
    product = a * b
    assert product == fraction_product(a, b)
    assert all(type(c) is Fraction for c in product.coefficients)


def assert_canonical(p: Polynomial) -> None:
    """The stored form: integer numerators without trailing zeros over a
    positive denominator that shares no factor with all of them."""
    num, den = p._num, p._den
    assert all(type(c) is int for c in num) and type(den) is int and den > 0
    assert not num or num[-1] != 0
    assert gcd(den, *num) == 1


def fraction_shift(x: Polynomial, m: int) -> Polynomial:
    """Test-only reference: x - m through the Fraction coefficients."""
    coeffs = list(x.coefficients) or [Fraction(0)]
    coeffs[0] -= m
    return Polynomial(coeffs)


def fraction_horner(coefficients: tuple[Fraction, ...], point: Fraction) -> Fraction:
    """Test-only reference: Horner's rule over Fractions."""
    value = Fraction(0)
    for c in reversed(coefficients):
        value = value * point + c
    return value


def fraction_taylor_shift(p: Polynomial, h: Fraction) -> Polynomial:
    """Test-only reference: Horner's rule in (x + h) over Fraction lists."""
    result: list[Fraction] = []
    for c in reversed(p.coefficients):
        shifted = [Fraction(0)] * (len(result) + 1)
        for j, r in enumerate(result):
            shifted[j] += r * h
            shifted[j + 1] += r
        shifted[0] += c
        result = shifted
    return Polynomial(result)


def fraction_sum(a: Polynomial, b: Polynomial, sign: int) -> Polynomial:
    """Test-only reference: a + sign*b coefficient by coefficient."""
    length = max(len(a.coefficients), len(b.coefficients))
    return Polynomial(a.coefficient(k) + sign * b.coefficient(k) for k in range(length))


low_degree_polys = st.lists(kernel_rationals, min_size=1, max_size=3).map(Polynomial)


@given(x=low_degree_polys, k=st.integers(0, 12))
@example(x=Polynomial(), k=3)
@example(x=X - Fraction(5, 12), k=0)
def test_polynomial_falling_factorial_and_binomial_match_fraction_products(x, k):
    falling = Polynomial((1,))
    for m in range(k):
        falling = fraction_product(falling, fraction_shift(x, m))
    results = falling_factorial(x, k), binomial(x, k)
    assert results == (falling, Polynomial(c / factorial(k) for c in falling.coefficients))
    for result in results:
        assert_canonical(result)


def test_polynomial_falling_factorial_with_a_zero_factor():
    assert falling_factorial(X + 3, 5)(0) == 0
    assert binomial(X + 3, 5)(0) == 0
    assert falling_factorial(X + 3, 5)(-4) == -120
    assert falling_factorial(Polynomial((3,)), 5) == Polynomial()
    assert binomial(Polynomial((3,)), 5) == 0


@given(p=mixed_polys, h=kernel_rationals)
@example(p=Polynomial(), h=Fraction(-7, 12))
@example(p=Polynomial((Fraction(1, 6), 0, Fraction(-3, 4))), h=Fraction(2, 3))
def test_evaluation_and_taylor_shift_match_fraction_horner(p, h):
    assert p(h) == fraction_horner(p.coefficients, h)
    shifted = p.taylor_shift(h)
    assert shifted == fraction_taylor_shift(p, h)
    assert_canonical(shifted)


@given(a=mixed_polys, b=mixed_polys, c=kernel_rationals)
@example(a=Polynomial(), b=Polynomial(), c=Fraction(0))
@example(
    a=Polynomial((Fraction(1, 4), Fraction(5, 6))),
    b=Polynomial((Fraction(-3, 4), Fraction(5, 6))),
    c=Fraction(1, 2),
)
def test_sums_match_coefficientwise_fraction_sums(a, b, c):
    constant = Polynomial((c,))
    pairs = (
        (a + b, fraction_sum(a, b, 1)),
        (a - b, fraction_sum(a, b, -1)),
        (a + c, fraction_sum(a, constant, 1)),
        (c - a, fraction_sum(constant, a, -1)),
        (a - a, Polynomial()),
        (-a, fraction_sum(Polynomial(), a, -1)),
        (a * c, Polynomial(x * c for x in a.coefficients)),
        (c * a, Polynomial(x * c for x in a.coefficients)),
    )
    for result, reference in pairs:
        assert result == reference
        assert_canonical(result)


# ------------------------------------------------------------ stored form


def test_one_polynomial_by_two_routes_is_stored_once():
    direct = Polynomial((Fraction(1, 2), Fraction(1, 3)))
    scaled = Polynomial((3, 2)) * Fraction(1, 6)
    assert direct == scaled
    assert hash(direct) == hash(scaled)
    assert (direct._num, direct._den) == ((3, 2), 6)
    assert (Polynomial()._num, Polynomial()._den) == ((), 1)
    assert ((X + Fraction(1, 3)) - X) == Fraction(1, 3)
    assert hash((X + Fraction(1, 3)) - X) == hash(Fraction(1, 3))


@given(values=st.lists(kernel_rationals, min_size=1, max_size=6).filter(lambda v: v[-1]))
@example(values=[Fraction(3, 2)])
@example(values=[Fraction(-4)])
@example(values=[Fraction(1, 2), 0, Fraction(-2, 3)])
def test_a_polynomial_never_equals_a_series_of_the_same_integer_form(values):
    poly, truncated = Polynomial(values), series.TruncatedSeries(values)
    assert (poly._num, poly._den) == (truncated._num, truncated._den)
    assert poly != truncated and truncated != poly
    assert not poly == truncated and not truncated == poly
    value = values[0]
    scalars = (value, int(value)) if value.denominator == 1 else (value,)
    for scalar in scalars:
        assert (poly == scalar) is (scalar == poly) is poly.is_constant
        if poly.is_constant:
            assert hash(poly) == hash(scalar)


# str and repr of each fixture, as printed before the integer form.
PRINTED = [
    (
        Polynomial((Fraction(1, 2), Fraction(1, 3))),
        "1/3*x + 1/2",
        "Polynomial([Fraction(1, 2), Fraction(1, 3)])",
    ),
    (
        Polynomial((Fraction(-3, 4), 0, Fraction(5, 6), Fraction(-1, 12))),
        "-1/12*x^3 + 5/6*x^2 - 3/4",
        "Polynomial([Fraction(-3, 4), Fraction(0, 1), Fraction(5, 6), Fraction(-1, 12)])",
    ),
    (
        binomial(X + Fraction(1, 2), 3),
        "1/6*x^3 - 1/4*x^2 - 1/24*x + 1/16",
        "Polynomial([Fraction(1, 16), Fraction(-1, 24), Fraction(-1, 4), Fraction(1, 6)])",
    ),
    (
        Polynomial((0, -1, Fraction(7, 10))),
        "7/10*x^2 - x",
        "Polynomial([Fraction(0, 1), Fraction(-1, 1), Fraction(7, 10)])",
    ),
    (Polynomial(()), "0", "Polynomial([])"),
    (Polynomial((Fraction(-5, 6),)), "-5/6", "Polynomial([Fraction(-5, 6)])"),
]


@pytest.mark.parametrize("poly, text, representation", PRINTED)
def test_str_and_repr_of_mixed_denominators(poly, text, representation):
    assert (str(poly), repr(poly)) == (text, representation)


def count_constructions(monkeypatch) -> list[int]:
    """Count calls of the public, validating Polynomial constructor."""
    calls = [0]
    public = Polynomial.__init__

    def counted(self, *args, **kwargs):
        calls[0] += 1
        public(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counted)
    return calls


def test_operations_do_not_revalidate(monkeypatch):
    x = Polynomial((Fraction(-3, 2), 1))
    calls = count_constructions(monkeypatch)
    falling_factorial(x, 12)
    assert calls[0] == 0
    # One public construction for the running total and two for each
    # of the n + 1 summand pairs; nothing inside exactnum adds any.
    identities.shift_invariance_poly(8, Fraction(1, 2))
    assert calls[0] <= 19


# ---------------------------------------------------------- finite difference


def test_finite_difference_order_zero_is_evaluation():
    assert finite_difference(lambda k: Fraction(k * k), 0, 3) == 9


def test_finite_difference_first_order():
    f = lambda k: Fraction(k * k)
    assert finite_difference(f, 1, 3) == f(4) - f(3)


def test_finite_difference_flattens_low_degree():
    square = lambda k: Fraction(k * k)
    cube = lambda k: Fraction(k**3)
    for i in range(5):
        assert finite_difference(square, 2, i) == 2
        assert finite_difference(square, 3, i) == 0
        assert finite_difference(cube, 3, i) == 6


def test_finite_difference_negative_order_rejected():
    with pytest.raises(OutOfRangeError):
        finite_difference(lambda k: Fraction(k), -1, 0)


def test_finite_difference_returns_fraction_for_integer_sequences():
    value = finite_difference(lambda k: k * k, 2, 0)
    assert value == 2
    assert isinstance(value, Fraction)


@given(p=small_polys, m=st.integers(0, 4), i=st.integers(-3, 3))
@settings(max_examples=40)
def test_finite_difference_matches_iterated_single_steps(p, m, i):
    def iterate(f, order):
        if order == 0:
            return f
        g = iterate(f, order - 1)
        return lambda k: g(k + 1) - g(k)

    assert finite_difference(p, m, i) == iterate(p, m)(i)


def test_finite_difference_accepts_polynomial_values():
    # Differencing in the evaluation point of a shifted polynomial family.
    family = lambda k: X.taylor_shift(k) * X
    assert finite_difference(family, 1, 2) == X


# ---------------------------------------------------------------- no floats


FLOAT_ENTRY_POINTS = {
    "Polynomial": lambda: Polynomial((0.1,)),
    "Polynomial.__call__": lambda: X(0.5),
    "Polynomial.taylor_shift": lambda: X.taylor_shift(0.5),
    "falling_factorial": lambda: falling_factorial(0.5, 2),
    "binomial": lambda: binomial(0.5, 2),
    "binomial_negative_k": lambda: binomial(0.5, -1),
    "closed_form": lambda: identities.closed_form(2, 0.1),
    "inclusion_exclusion_sum": lambda: identities.inclusion_exclusion_sum(2.0, 1),
    "opposite_offsets_check": lambda: identities.opposite_offsets_check(2, 0.5),
    "shift_invariance_poly": lambda: identities.shift_invariance_poly(2, 0.5),
    "delta_formula_check": lambda: identities.delta_formula_check(2, 0.5),
    "base_series": lambda: series.base_series("binomial_power", 4, 0.5),
    "derivative_identity_check": lambda: series.derivative_identity_check(
        "gt", 0.5, n_max=1, order=16
    ),
    "coefficient_identity_check": lambda: series.coefficient_identity_check("gt", 0.5, 16),
}


@pytest.mark.parametrize("entry", FLOAT_ENTRY_POINTS)
def test_exact_arithmetic_rejects_floats(entry):
    with pytest.raises(TypeError, match="expected an int or a Fraction"):
        FLOAT_ENTRY_POINTS[entry]()


#: Every count check, by entry point: a call that passes its count
#: parameter the given value, the parameter's name, and the least
#: admissible value (0 or 1).
COUNT_CHECKS = {
    "falling_factorial": (lambda k: falling_factorial(3, k), "k", 0),
    "finite_difference": (lambda m: finite_difference(Fraction, m, 0), "m", 0),
    "Polynomial.__pow__": (lambda exponent: X**exponent, "exponent", 0),
    "Polynomial.coefficient": (lambda k: X.coefficient(k), "k", 0),
    "convolution_sums": (lambda n_max: identities.convolution_sums((0,), n_max), "n_max", 0),
    "convolution_sum": (lambda n: identities.convolution_sum((0,), n), "n", 0),
    "closed_form": (lambda n: identities.closed_form(n, 1), "n", 0),
    "odd_t_forms/n": (lambda n: identities.odd_t_forms(n, 1), "n", 0),
    "odd_t_forms/L": (lambda L: identities.odd_t_forms(1, L), "L", 0),
    "recurrence_check/t": (lambda t: identities.recurrence_check(t, 1), "t", 1),
    "recurrence_check/n_max": (lambda n_max: identities.recurrence_check(1, n_max), "n_max", 0),
    "inclusion_exclusion_sum": (lambda p: identities.inclusion_exclusion_sum(3, p), "p", 0),
    "opposite_offsets_check": (lambda n: identities.opposite_offsets_check(n, 1), "n", 0),
    "shift_invariance_poly": (lambda n: identities.shift_invariance_poly(n, 0), "n", 0),
    "delta_formula_check": (lambda n: identities.delta_formula_check(n, 0), "n", 1),
    "nth_derivative": (lambda n: series.nth_derivative(series.base_series("g", 4), n), "n", 0),
    "derivative_identity_check/n_max": (
        lambda n_max: series.derivative_identity_check("gt", 1, n_max, 16), "n_max", 1
    ),
    "derivative_identity_check/order": (
        lambda order: series.derivative_identity_check("gt", 1, 1, order), "order", 0
    ),
    "coefficient_identity_check": (
        lambda order: series.coefficient_identity_check("gt", 1, order), "order", 0
    ),
    "wz_certificate_check": (series.wz_certificate_check, "n_max", 0),
    "telescoped_sum_check": (series.telescoped_sum_check, "n_max", 0),
    "base_series": (lambda order: series.base_series("g", order), "order", 0),
    "TruncatedSeries.constant": (
        lambda order: series.TruncatedSeries.constant(7, order), "order", 0
    ),
    "TruncatedSeries.truncate": (
        lambda order: series.base_series("g", 4).truncate(order), "order", 0
    ),
    "base_power": (lambda order: series.base_power("g", order, 1), "order", 0),
}


@pytest.mark.parametrize("bad", ["below", "fraction"])
@pytest.mark.parametrize("entry", COUNT_CHECKS)
def test_count_checks_name_their_own_parameter(entry, bad):
    call, name, least = COUNT_CHECKS[entry]
    kind = "positive" if least else "nonnegative"
    with pytest.raises(OutOfRangeError) as refused:
        call(least - 1 if bad == "below" else 1.5)
    assert str(refused.value) == f"{name} must be a {kind} integer"
