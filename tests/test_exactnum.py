"""Exact scalar and polynomial arithmetic."""

from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binomconv import identities, series
from binomconv.exactnum import (
    NEG_INFINITY,
    OutOfRangeError,
    Polynomial,
    binomial,
    falling_factorial,
    finite_difference,
)

#: The polynomial variable.
X = Polynomial((0, 1))

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


def test_polynomial_constant_value():
    assert Polynomial((7,)).constant_value() == 7
    assert Polynomial(()).constant_value() == 0
    with pytest.raises(ValueError):
        X.constant_value()


def test_polynomial_repr_and_bool():
    assert bool(Polynomial(())) is False
    assert bool(X) is True
    assert "Polynomial" in repr(X)


@given(a=small_polys, b=small_polys, c=small_polys, x=rationals)
def test_polynomial_ring_axioms(a, b, c, x):
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    at_x = lambda p: fraction_horner(p.coefficients, x)
    assert at_x(a * b) == at_x(a) * at_x(b)
    assert at_x(a - b) == at_x(a) - at_x(b)


@given(p=small_polys, h=rationals, x=rationals)
def test_taylor_shift_evaluates_to_shifted_argument(p, h, x):
    shifted = p.taylor_shift(h)
    assert fraction_horner(shifted.coefficients, x) == fraction_horner(p.coefficients, x + h)


def test_taylor_shift_example():
    assert (X * X).taylor_shift(1) == X * X + 2 * X + 1
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
    assert falling_factorial(X, 2) == X * X - X
    assert falling_factorial(X, 0) == Polynomial((1,))
    assert fraction_horner(falling_factorial(X, 3).coefficients, 5) == 60


def test_falling_factorial_negative_length_rejected():
    with pytest.raises(OutOfRangeError):
        falling_factorial(3, -1)
    with pytest.raises(OutOfRangeError):
        falling_factorial(X, -2)


def test_polynomial_falling_factorial_and_binomial_refuse_degree_two_or_more():
    calls = [(falling_factorial, 0), (falling_factorial, 2), (binomial, -1), (binomial, 2)]
    for x, degree in ((X * X, 2), (X * X * X - X, 3)):
        for function, k in calls:
            with pytest.raises(ValueError, match=f"not of degree {degree}$"):
                function(x, k)


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
    assert p == (X * X - X) * Fraction(1, 2)
    assert fraction_horner(p.coefficients, 6) == comb(6, 2)
    assert binomial(2 * X + 1, 1) == 2 * X + 1


def test_binomial_requires_integer_lower_index():
    # True is an int to Python, and would give C(x, 1) = x.
    for x, k in ((3, Fraction(1, 2)), (5, True), (X, True)):
        with pytest.raises(OutOfRangeError) as refused:
            binomial(x, k)
        assert str(refused.value) == "binomial lower index must be an integer"


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
    padded = zip_longest(a.coefficients, b.coefficients, fillvalue=Fraction(0))
    return Polynomial(x + sign * y for x, y in padded)


#: Polynomial falling factorials and binomials take a linear x only.
linear_polys = st.lists(kernel_rationals, min_size=1, max_size=2).map(Polynomial)


@given(x=linear_polys, k=st.integers(0, 12))
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
    assert fraction_horner(falling_factorial(X + 3, 5).coefficients, 0) == 0
    assert fraction_horner(binomial(X + 3, 5).coefficients, 0) == 0
    assert fraction_horner(falling_factorial(X + 3, 5).coefficients, -4) == -120
    assert falling_factorial(Polynomial((3,)), 5) == Polynomial()
    assert binomial(Polynomial((3,)), 5) == 0


@given(p=mixed_polys, h=kernel_rationals)
@example(p=Polynomial(), h=Fraction(-7, 12))
@example(p=Polynomial((Fraction(1, 6), 0, Fraction(-3, 4))), h=Fraction(2, 3))
def test_taylor_shift_matches_fraction_horner(p, h):
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

    f = lambda k: fraction_horner(p.coefficients, k)
    assert finite_difference(f, m, i) == iterate(f, m)(i)


def test_finite_difference_accepts_polynomial_values():
    # Differencing in the evaluation point of a shifted polynomial family.
    family = lambda k: X.taylor_shift(k) * X
    assert finite_difference(family, 1, 2) == X


# ---------------------------------------------------------------- no floats


#: Every entry point that takes an exact rational: a call that passes it
#: the given value, and a float for that value.
FLOAT_ENTRY_POINTS = {
    "Polynomial": (lambda c: Polynomial((c,)), 0.1),
    "Polynomial.taylor_shift": (X.taylor_shift, 0.5),
    "falling_factorial": (lambda x: falling_factorial(x, 2), 0.5),
    "binomial": (lambda x: binomial(x, 2), 0.5),
    "binomial_negative_k": (lambda x: binomial(x, -1), 0.5),
    "closed_form": (lambda t: identities.closed_form(2, t), 0.1),
    "convolution_sums": (lambda a: identities.convolution_sums((a, 0), 3), 0.5),
    "inclusion_exclusion_sum": (lambda L: identities.inclusion_exclusion_sum(L, 1), 2.0),
    "shift_invariance_poly": (lambda a: identities.shift_invariance_poly(2, a), 0.5),
    "delta_formula_check": (lambda a: identities.delta_formula_check(2, a), 0.5),
    "base_series": (lambda r: series.base_series("binomial_power", 4, r), 0.5),
    "series_pow": (lambda r: series.series_pow(series.base_series("g", 4), r), 0.5),
    "derivative_identity_check": (
        lambda t: series.derivative_identity_check("gt", t, n_max=1, order=16), 0.5
    ),
    "coefficient_identity_check": (
        lambda t: series.coefficient_identity_check("gt", t, 16), 0.5
    ),
}


@pytest.mark.parametrize("entry", FLOAT_ENTRY_POINTS)
def test_exact_arithmetic_rejects_floats(entry):
    # A bool is an int to Python, yet True is no rational parameter.
    call, number = FLOAT_ENTRY_POINTS[entry]
    for value in (number, True):
        with pytest.raises(TypeError) as refused:
            call(value)
        kind = type(value).__name__
        assert str(refused.value) == f"expected an int or a Fraction, got {kind} {value!r}"


#: Every scalar operator of the integer form, each with its reflected
#: twin: a float or a bool operand makes it return NotImplemented, so
#: Python raises TypeError, as for any other operand it does not know.
SCALAR_OPERATORS = {
    "add": lambda f, c: f + c,
    "radd": lambda f, c: c + f,
    "sub": lambda f, c: f - c,
    "rsub": lambda f, c: c - f,
    "mul": lambda f, c: f * c,
    "rmul": lambda f, c: c * f,
}


@pytest.mark.parametrize("form", ["Polynomial", "TruncatedSeries"])
@pytest.mark.parametrize("operator", SCALAR_OPERATORS)
def test_scalar_operators_refuse_floats_and_bools(operator, form):
    f = X if form == "Polynomial" else series.base_series("g", 4)
    apply = SCALAR_OPERATORS[operator]
    for operand in (0.5, True, False):
        with pytest.raises(TypeError):
            apply(f, operand)
    assert apply(f, 1) == apply(f, Fraction(1))


def test_a_constant_polynomial_equals_its_value_but_no_bool():
    one, zero = Polynomial((1,)), Polynomial(())
    assert one == 1 and one == Fraction(1) and zero == 0
    assert not one == True and not zero == False
    assert one != True and zero != False


@pytest.mark.parametrize("index", [-1, 5, True, False])
def test_a_series_index_is_an_int_within_the_order(index):
    f = series.base_series("g", 4)
    with pytest.raises(series.OrderExhaustedError) as refused:
        f[index]
    assert str(refused.value) == f"coefficient {index} of a series truncated at order 4"


#: Every count check, by entry point: a call that passes its count
#: parameter the given value, the parameter's name, and the least
#: admissible value (0 or 1).
COUNT_CHECKS = {
    "falling_factorial": (lambda k: falling_factorial(3, k), "k", 0),
    "finite_difference": (lambda m: finite_difference(Fraction, m, 0), "m", 0),
    "convolution_sums": (lambda n_max: identities.convolution_sums((0,), n_max), "n_max", 0),
    "convolution_sum": (lambda n: identities.convolution_sum((0,), n), "n", 0),
    "closed_form": (lambda n: identities.closed_form(n, 1), "n", 0),
    "odd_t_forms/n": (lambda n: identities.odd_t_forms(n, 1), "n", 0),
    "odd_t_forms/L": (lambda L: identities.odd_t_forms(1, L), "L", 0),
    "recurrence_check/t": (lambda t: identities.recurrence_check(t, 1), "t", 1),
    "recurrence_check/n_max": (lambda n_max: identities.recurrence_check(1, n_max), "n_max", 0),
    "inclusion_exclusion_sum": (lambda p: identities.inclusion_exclusion_sum(3, p), "p", 0),
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


@pytest.mark.parametrize("bad", ["below", "fraction", "bool"])
@pytest.mark.parametrize("entry", COUNT_CHECKS)
def test_count_checks_name_their_own_parameter(entry, bad):
    call, name, least = COUNT_CHECKS[entry]
    kind = "positive" if least else "nonnegative"
    with pytest.raises(OutOfRangeError) as refused:
        call({"below": least - 1, "fraction": 1.5, "bool": True}[bad])
    assert str(refused.value) == f"{name} must be a {kind} integer"
