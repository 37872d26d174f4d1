"""Truncated formal power series over exact rationals.

Builds the central binomial generating function g (coefficients
binomial(2n, n), so g = (1-4x)^(-1/2)) and the Catalan generating
function C from first-principles recurrences, computes rational powers
with J.C.P. Miller's power recurrence run over integers, and verifies
the derivative and coefficient identities these functions satisfy,
together with the telescoping certificate behind the coefficient
formula for g*C^l.  Series exp and log stay as a second, independent
route to rational powers, which the route-independence case checks
against the recurrence.

Series products and powers scale their rational inputs to integers,
run their inner loops over integers, and build one Fraction per output
coefficient, so results are the exact, fully reduced rationals.

The derivative and coefficient identity checks ask for the same few
powers of g and C over and over (g^3 serves every parameter of the gC
variant), so the base series g and C and their powers are computed once
per process: _base and _power memoize them, keyed on the series kind,
the order and the exact exponent, after the checks have validated
those.  A case's wall time can therefore depend on which cases ran
before it.  Closed forms are never memoized, so each identity still
compares two independent computations, and the exp/log route does not
go through the memo.

Everything is truncated at an explicit order N and arithmetic never
reads past it; binary operations require equal orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, perm

from .exactnum import (
    MEMO_SIZE,
    OutOfRangeError,
    Polynomial,
    Scalar,
    binomial,
    exact_rational,
    falling_factorial,
    integer_convolution,
    scaled_to_integers,
)


class NonUnitConstantTermError(ValueError):
    """A series operation requiring constant term 1 got something else."""


class OrderExhaustedError(ValueError):
    """A coefficient or derivative beyond the truncation order was requested."""


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0..c_N of a power series truncated after x^N."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(map(exact_rational, self.coefficients))
        if not coeffs:
            raise ValueError("a truncated series has at least its constant term")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "TruncatedSeries":
        return cls((value,) + (0,) * order)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise OrderExhaustedError(
                f"coefficient {n} of a series truncated at order {self.order}"
            )
        return self.coefficients[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise OrderExhaustedError(
                f"cannot extend order {self.order} to {order}"
            )
        return TruncatedSeries(self.coefficients[: order + 1])

    def _require_same_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other: object) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._require_same_order(other)
            return TruncatedSeries(
                tuple(x + y for x, y in zip(self.coefficients, other.coefficients))
            )
        if isinstance(other, (int, Fraction)):
            coeffs = list(self.coefficients)
            coeffs[0] += other
            return TruncatedSeries(coeffs)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coefficients))

    def __sub__(self, other: object) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._require_same_order(other)
            return self + (-other)
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other: object) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other: object) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._require_same_order(other)
            a, scale_a = scaled_to_integers(self.coefficients)
            b, scale_b = scaled_to_integers(other.coefficients)
            scale = scale_a * scale_b
            return TruncatedSeries(
                [Fraction(c, scale) for c in integer_convolution(a, b, len(a))]
            )
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(tuple(c * other for c in self.coefficients))
        return NotImplemented

    __rmul__ = __mul__


def _require_order(order: int) -> None:
    if not isinstance(order, int) or order < 0:
        raise ValueError("order must be a nonnegative integer")


def base_series(kind: str, order: int, s: Scalar | None = None) -> TruncatedSeries:
    """One of the three independently constructed base series.

    g: coefficients from the integer recurrence
       b_{n+1} = b_n*(4n+2)/(n+1), b_0 = 1 (central binomials).
    catalan: the convolution recurrence c_{n+1} = sum c_i*c_{n-i}, c_0 = 1.
    binomial_power: coefficients (-4)^n*binomial(s, n), the expansion of
       (1-4x)^s, with s passed separately.

    The three routes share no code, so agreements between them are
    genuine cross-checks.
    """
    _require_order(order)
    if kind == "g":
        value = 1
        coeffs = []
        for n in range(order + 1):
            coeffs.append(Fraction(value))
            value = value * (4 * n + 2) // (n + 1)
        return TruncatedSeries(coeffs)
    if kind == "catalan":
        values = [1]
        for n in range(order):
            values.append(sum(values[i] * values[n - i] for i in range(n + 1)))
        return TruncatedSeries([Fraction(v) for v in values])
    if kind == "binomial_power":
        if s is None:
            raise ValueError("binomial_power needs the exponent s")
        s = exact_rational(s)
        return TruncatedSeries(
            [Fraction(-4) ** n * binomial(s, n) for n in range(order + 1)]
        )
    raise ValueError(f"unknown base series kind {kind!r}")


def series_log(f: TruncatedSeries) -> TruncatedSeries:
    """log f for a series with constant term 1."""
    if f[0] != 1:
        raise NonUnitConstantTermError(f"constant term is {f[0]}, need 1")
    order = f.order
    out = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        acc = n * f[n]
        for j in range(1, n):
            acc -= f[j] * (n - j) * out[n - j]
        out[n] = acc / n
    return TruncatedSeries(out)


def series_exp(u: TruncatedSeries) -> TruncatedSeries:
    """exp u for a series with constant term 0."""
    if u[0] != 0:
        raise ValueError(f"constant term is {u[0]}, need 0")
    order = u.order
    out = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += k * u[k] * out[n - k]
        out[n] = acc / n
    return TruncatedSeries(out)


def series_pow(f: TruncatedSeries, r: Scalar) -> TruncatedSeries:
    """f**r for rational r; needs constant term 1.

    h = f**r solves f*h' = r*f'*h, which gives J.C.P. Miller's
    recurrence (Knuth, TAOCP vol. 2, 4.7)

        n*h_n = sum over k = 1..n of ((r+1)k - n)*f_k*h_(n-k).

    With r = p/q in lowest terms and D the lcm of f's denominators,
    F_k = f_k*D^k and A_n = n!*q^n*D^n*h_n are integers, and

        A_n = sum over k of ((p+q)k - nq)*F_k*q^(k-1)*A_(n-k)*(n-1)!/(n-k)!,

    so the loop runs over integers and each h_n is one Fraction
    A_n/(n!*q^n*D^n).  This route never consults any closed-form
    coefficient formula, so it can serve as one side of a coefficient
    identity check; series_exp(series_log(f)*r) is a second route to
    the same series.
    """
    r = exact_rational(r)
    if f[0] != 1:
        raise NonUnitConstantTermError(f"constant term is {f[0]}, need 1")
    p, q = r.numerator, r.denominator
    f_scaled, scale = scaled_to_integers(f.coefficients)  # f_k*D
    # weighted[k-1] = F_k*q^(k-1) = (f_k*D)*(D*q)^(k-1) for k >= 1
    weighted = [c * (scale * q) ** j for j, c in enumerate(f_scaled[1:])]
    numerators = [1]  # A_0..A_n
    out = [Fraction(1)]
    denominator = 1  # n!*q^n*D^n
    for n in range(1, f.order + 1):
        acc = 0
        falling = 1  # (n-1)!/(n-k)!
        for k in range(1, n + 1):
            acc += ((p + q) * k - n * q) * weighted[k - 1] * numerators[n - k] * falling
            falling *= n - k
        numerators.append(acc)
        denominator *= n * q * scale
        out.append(Fraction(acc, denominator))
    return TruncatedSeries(out)


@lru_cache(maxsize=MEMO_SIZE)
def _base(kind: str, order: int) -> TruncatedSeries:
    """base_series(kind, order) for g or catalan, built once per order."""
    return base_series(kind, order)


@lru_cache(maxsize=MEMO_SIZE)
def _power(kind: str, order: int, r: Fraction) -> TruncatedSeries:
    """series_pow of a memoized base series, computed once per exponent.

    The key must already be exact: 0.5 == Fraction(1, 2) and both hash
    alike, so an unvalidated float would be handed the cached result.
    A TruncatedSeries is frozen, so every caller can share the result.
    """
    return series_pow(_base(kind, order), r)


def nth_derivative(f: TruncatedSeries, n: int) -> TruncatedSeries:
    """Term-wise n-th derivative; the truncation order drops by n."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("derivative count must be a nonnegative integer")
    if n > f.order:
        raise OrderExhaustedError(
            f"derivative {n} of a series truncated at order {f.order}"
        )
    return TruncatedSeries(
        [f[k + n] * perm(k + n, n) for k in range(f.order - n + 1)]
    )


def derivative_identity_check(
    variant: str, param: Scalar, n: int, order: int
) -> bool:
    """Derivative identities for g^t, g*C^l, and C^l.

    gt: the n-th derivative of g^t, divided by n!, equals
        4^n*binomial(n + t/2 - 1, n)*g^(t+2n).
    gC: the n-th derivative of g*C^l, divided by n!, equals
        sum over i of binomial(2n-i, n-i)*binomial(l+i-1, i)
        * g^(1+2n-i)*C^(l+i).
    C:  the n-th derivative of C^l equals the (n-1)-th derivative of
        l*g*C^(l+1).

    Inputs are computed at the given order and compared at order - n.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    _require_order(order)
    if order < n + 8:
        raise ValueError("order must be at least n + 8 for a working margin")
    param = exact_rational(param)
    target = order - n
    if variant == "gt":
        lhs = nth_derivative(_power("g", order, param), n) * Fraction(1, factorial(n))
        scale = Fraction(4) ** n * binomial(param / 2 + n - 1, n)
        rhs = (_power("g", order, param + 2 * n) * scale).truncate(target)
        return lhs == rhs
    if variant == "C":
        g = _base("g", order)
        lhs = nth_derivative(_power("catalan", order, param), n)
        rhs = nth_derivative(
            g * _power("catalan", order, param + 1) * param, n - 1
        ).truncate(target)
        return lhs == rhs
    if variant == "gC":
        g = _base("g", order)
        lhs = nth_derivative(g * _power("catalan", order, param), n) * Fraction(
            1, factorial(n)
        )
        total = TruncatedSeries.constant(0, order)
        for i in range(n + 1):
            scale = binomial(2 * n - i, n - i) * binomial(param + i - 1, i)
            total = total + _power("g", order, 1 + 2 * n - i) * _power(
                "catalan", order, param + i
            ) * scale
        return lhs == total.truncate(target)
    raise ValueError(f"unknown variant {variant!r}")


def coefficient_identity_check(variant: str, param: Scalar, order: int) -> bool:
    """Coefficient formulas for g^t, g*C^l, and C^l, checked at every
    index up to the truncation order.

    gt: [x^n] g^t = 4^n*binomial(n + t/2 - 1, n).
    gC: [x^n] g*C^l = binomial(2n + l, n).
    C:  [x^0] C^l = 1 and, for n >= 1,
        [x^n] C^l = l*(2n+l-1 falling n-1)/n!, a cancellation-safe form
        that stays finite when 2n + l = 0.
    """
    _require_order(order)
    param = exact_rational(param)
    if variant == "gt":
        f = _power("g", order, param)
        return all(
            f[n] == Fraction(4) ** n * binomial(param / 2 + n - 1, n)
            for n in range(order + 1)
        )
    if variant == "gC":
        f = _base("g", order) * _power("catalan", order, param)
        return all(f[n] == binomial(2 * n + param, n) for n in range(order + 1))
    if variant == "C":
        f = _power("catalan", order, param)
        if f[0] != 1:
            return False
        return all(
            f[n]
            == param
            * falling_factorial(2 * n + param - 1, n - 1)
            * Fraction(1, factorial(n))
            for n in range(1, order + 1)
        )
    raise ValueError(f"unknown variant {variant!r}")


def certificate_summand(n: int, i: int) -> Polynomial:
    """F(n, i) = binomial(2n-i, n-i)*binomial(x+i-1, i), polynomial in
    the exponent variable; zero when i > n."""
    scale = binomial(2 * n - i, n - i)
    return binomial(Polynomial((i - 1, 1)), i) * scale


def certificate_multiplier(n: int, i: int) -> Polynomial:
    """G(n, i) = i(i+1)*binomial(2n+1-i, n+1-i)*binomial(x+i, i+1); the
    telescoping companion of the summand."""
    scale = i * (i + 1) * binomial(2 * n + 1 - i, n + 1 - i)
    return binomial(Polynomial((i, 1)), i + 1) * scale


def _recurrence_step(
    current: Polynomial, following: Polynomial, n: int
) -> Polynomial:
    return (
        Polynomial((2 * n + 1, 1)) * Polynomial((2 * n + 2, 1)) * current
        - (n + 1) * Polynomial((n + 1, 1)) * following
    )


def wz_certificate_check(n: int, i: int) -> bool:
    """The telescoping certificate at one lattice point.

    True iff, as polynomials in the exponent variable,
    (2n+x+1)(2n+x+2)*F(n,i) - (n+1)(n+x+1)*F(n+1,i) = G(n,i+1) - G(n,i),
    and the boundary values F(n, n+1), G(n, 0), G(n, n+2) all vanish.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    if not 0 <= i <= n + 1:
        raise OutOfRangeError(f"i must lie in 0..{n + 1}")
    lhs = _recurrence_step(
        certificate_summand(n, i), certificate_summand(n + 1, i), n
    )
    rhs = certificate_multiplier(n, i + 1) - certificate_multiplier(n, i)
    boundaries = (
        certificate_summand(n, n + 1) == 0
        and certificate_multiplier(n, 0) == 0
        and certificate_multiplier(n, n + 2) == 0
    )
    return boundaries and lhs == rhs


def telescoped_sum_check(n: int) -> bool:
    """Summing the certificate summand telescopes to a single binomial.

    True iff sum over i of F(n, i) equals binomial(2n+x, n) as
    polynomials, the value at n = 0 is 1, and both the sum and the
    closed form satisfy the two-term recurrence the certificate encodes.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer")

    def total(size: int) -> Polynomial:
        acc = Polynomial()
        for i in range(size + 1):
            acc = acc + certificate_summand(size, i)
        return acc

    def closed(size: int) -> Polynomial:
        return binomial(Polynomial((2 * size, 1)), size)

    return (
        total(n) == closed(n)
        and total(0) == 1
        and _recurrence_step(total(n), total(n + 1), n) == 0
        and _recurrence_step(closed(n), closed(n + 1), n) == 0
    )
