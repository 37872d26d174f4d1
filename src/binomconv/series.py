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

A series is stored in the integer form of exactnum._IntegerForm, the
one core it shares with Polynomial, with trailing zeros kept so the
length fixes the order.  Sums, scalar and series products, truncation,
derivatives, powers, exp and log all run over integers, and a Fraction
is built only where a coefficient is read, so results are the exact,
fully reduced rationals.  exp and log run their own recurrences, never
Miller's, so the two routes to a power share no arithmetic loop.

The series cases ask for the same few powers of g and C over and over
(g^3 serves every parameter of the gC variant, and the route, law and
additivity cases reuse powers the identity checks take), so the powers
of g and C are computed once per process: _power memoizes them, keyed
on the series kind, the order and the exact exponent, after the checks
(or base_power) have validated those.  A case's wall time can therefore
depend on which cases ran before it.  Nothing else is memoized: g and C
themselves cost far less than a power and come from base_series each
time they are used.  The certificate checks build every F(n, i)
and G(n, i) they use once per call, in two separate tables, so the two
sides of the telescoping identity share no result.  Closed forms are
never memoized, so each identity still compares two independent
computations, and neither the exp/log route nor the binomial-power
series goes through a memo.

Everything is truncated at an explicit order N and arithmetic never
reads past it; binary operations require equal orders.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, perm
from typing import Iterable

from .exactnum import (
    Polynomial,
    Scalar,
    _IntegerForm,
    binomial,
    exact_rational,
    falling_factorial,
    integer_convolution,
    over_factorial_scales,
    require_count,
)


class NonUnitConstantTermError(ValueError):
    """A series operation requiring constant term 1 got something else."""


class OrderExhaustedError(ValueError):
    """A coefficient or derivative beyond the truncation order was requested."""


class TruncatedSeries(_IntegerForm):
    """Coefficients c_0..c_N of a power series truncated after x^N.

    The integer form of _IntegerForm with trailing zeros kept: _num
    holds all N + 1 numerators, so its length fixes the order.  Equal
    series always compare and hash equal, and binary operations with
    another series require equal orders.
    """

    __slots__ = ()

    def __init__(self, coefficients: Iterable[Scalar]):
        super().__init__(coefficients)
        if not self._num:
            raise ValueError("a truncated series has at least its constant term")

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "TruncatedSeries":
        require_count("order", order)
        return cls((value,) + (0,) * order)

    @property
    def order(self) -> int:
        return len(self._num) - 1

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise OrderExhaustedError(
                f"coefficient {n} of a series truncated at order {self.order}"
            )
        return Fraction(self._num[n], self._den)

    def truncate(self, order: int) -> "TruncatedSeries":
        require_count("order", order)
        if order > self.order:
            raise OrderExhaustedError(
                f"cannot extend order {self.order} to {order}"
            )
        return TruncatedSeries._from_integers(self._num[: order + 1], self._den)

    def _check_operand(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def __mul__(self, other: object) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._check_operand(other)
            a = self._num
            return TruncatedSeries._from_integers(
                integer_convolution(a, other._num, len(a)), self._den * other._den
            )
        return self._scaled(other)

    __rmul__ = __mul__

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        return f"TruncatedSeries(coefficients={self.coefficients!r})"


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
    require_count("order", order)
    if kind == "g":
        value = 1
        coeffs = []
        for n in range(order + 1):
            coeffs.append(value)
            value = value * (4 * n + 2) // (n + 1)
        return TruncatedSeries._from_integers(coeffs, 1)
    if kind == "catalan":
        values = [1]
        for n in range(order):
            values.append(sum(values[i] * values[n - i] for i in range(n + 1)))
        return TruncatedSeries._from_integers(values, 1)
    if kind == "binomial_power":
        if s is None:
            raise ValueError("binomial_power needs the exponent s")
        s = exact_rational(s)
        return TruncatedSeries(
            [Fraction(-4) ** n * binomial(s, n) for n in range(order + 1)]
        )
    raise ValueError(f"unknown base series kind {kind!r}")


def series_log(f: TruncatedSeries) -> TruncatedSeries:
    """log f for a series with constant term 1.

    out = log f solves n*out_n = n*f_n - sum over j = 1..n-1 of
    (n-j)*f_j*out_(n-j).  With D = f's denominator, F_j = f_j*D and
    P_n = n!*D^n*out_n are integers, and

        P_n = n!*F_n*D^(n-1)
              - sum over j of (n-j)*F_j*D^(j-1)*P_(n-j)*(n-1)!/(n-j)!.
    """
    num, den = f._num, f._den
    if num[0] != den:
        raise NonUnitConstantTermError(f"constant term is {f[0]}, need 1")
    # weighted[j] = F_j*D^(j-1) for j >= 1
    weighted = [0] + [c * den**j for j, c in enumerate(num[1:])]
    numerators = [0]  # P_0..P_n
    for n in range(1, f.order + 1):
        acc = factorial(n) * weighted[n]
        falling = 1  # (n-1)!/(n-j)!
        for j in range(1, n):
            acc -= (n - j) * weighted[j] * numerators[n - j] * falling
            falling *= n - j
        numerators.append(acc)
    return TruncatedSeries._from_integers(*over_factorial_scales(numerators, den))


def series_exp(u: TruncatedSeries) -> TruncatedSeries:
    """exp u for a series with constant term 0.

    e = exp u solves n*e_n = sum over k = 1..n of k*u_k*e_(n-k).  With
    E the denominator of the coefficients k*u_k of x*u' in lowest
    terms, V_k = k*u_k*E and Q_n = n!*E^n*e_n are integers, and

        Q_n = sum over k of V_k*E^(k-1)*Q_(n-k)*(n-1)!/(n-k)!.

    E is often far smaller than u's own denominator: for u = t*log g,
    x*u' = 2tx/(1-4x) has integer coefficients over t's denominator.
    """
    num, den = u._num, u._den
    if num[0]:
        raise ValueError(f"constant term is {u[0]}, need 0")
    common = gcd(den, *[k * c for k, c in enumerate(num)])
    scale = den // common  # E
    # weighted[k] = V_k*E^(k-1) for k >= 1
    weighted = [0] + [
        k * num[k] // common * scale ** (k - 1) for k in range(1, len(num))
    ]
    numerators = [1]  # Q_0..Q_n
    for n in range(1, u.order + 1):
        acc = 0
        falling = 1  # (n-1)!/(n-k)!
        for k in range(1, n + 1):
            acc += weighted[k] * numerators[n - k] * falling
            falling *= n - k
        numerators.append(acc)
    return TruncatedSeries._from_integers(*over_factorial_scales(numerators, scale))


def series_pow(f: TruncatedSeries, r: Scalar) -> TruncatedSeries:
    """f**r for rational r; needs constant term 1.

    h = f**r solves f*h' = r*f'*h, which gives J.C.P. Miller's
    recurrence (Knuth, TAOCP vol. 2, 4.7)

        n*h_n = sum over k = 1..n of ((r+1)k - n)*f_k*h_(n-k).

    With r = p/q in lowest terms and D = f's denominator, F_k = f_k*D^k
    and A_n = n!*q^n*D^n*h_n are integers, and

        A_n = sum over k of ((p+q)k - nq)*F_k*q^(k-1)*A_(n-k)*(n-1)!/(n-k)!,

    so the loop runs over integers and h_n is A_n/(n!*q^n*D^n).  This
    route never consults any closed-form coefficient formula, so it can
    serve as one side of a coefficient identity check;
    series_exp(series_log(f)*r) is a second route to the same series.
    """
    r = exact_rational(r)
    if f._num[0] != f._den:
        raise NonUnitConstantTermError(f"constant term is {f[0]}, need 1")
    p, q = r.numerator, r.denominator
    scale = f._den
    # weighted[k-1] = F_k*q^(k-1) = (f_k*D)*(D*q)^(k-1) for k >= 1
    weighted = [c * (scale * q) ** j for j, c in enumerate(f._num[1:])]
    numerators = [1]  # A_0..A_n
    for n in range(1, f.order + 1):
        acc = 0
        falling = 1  # (n-1)!/(n-k)!
        for k in range(1, n + 1):
            acc += ((p + q) * k - n * q) * weighted[k - 1] * numerators[n - k] * falling
            falling *= n - k
        numerators.append(acc)
    return TruncatedSeries._from_integers(
        *over_factorial_scales(numerators, q * scale)
    )


#: Entries kept by _power.  The default series bounds need 53 powers;
#: the limit keeps a long-lived process from growing without bound.
MEMO_SIZE = 256


@lru_cache(maxsize=MEMO_SIZE)
def _power(kind: str, order: int, r: Fraction) -> TruncatedSeries:
    """series_pow of a base series, computed once per exponent for every
    series case (through base_power or the identity checks).

    The key must already be exact: 0.5 == Fraction(1, 2) and both hash
    alike, so an unvalidated float would be handed the cached result.
    A TruncatedSeries is frozen, so every caller can share the result.
    """
    return series_pow(base_series(kind, order), r)


def base_power(kind: str, order: int, r: Scalar) -> TruncatedSeries:
    """series_pow(base_series(kind, order), r) for g or catalan, from
    the memo; order and r are validated before the lookup."""
    require_count("order", order)
    return _power(kind, order, exact_rational(r))


def nth_derivative(f: TruncatedSeries, n: int) -> TruncatedSeries:
    """Term-wise n-th derivative; the truncation order drops by n."""
    require_count("n", n)
    if n > f.order:
        raise OrderExhaustedError(
            f"derivative {n} of a series truncated at order {f.order}"
        )
    num = f._num
    return TruncatedSeries._from_integers(
        [num[k + n] * perm(k + n, n) for k in range(f.order - n + 1)], f._den
    )


def derivative_identity_check(
    variant: str, param: Scalar, n_max: int, order: int
) -> list[int]:
    """Derivative identities for g^t, g*C^l, and C^l; the n in
    1..n_max at which they fail.

    gt: the n-th derivative of g^t, divided by n!, equals
        4^n*binomial(n + t/2 - 1, n)*g^(t+2n).
    gC: the n-th derivative of g*C^l, divided by n!, equals
        sum over i of binomial(2n-i, n-i)*binomial(l+i-1, i)
        * g^(1+2n-i)*C^(l+i).
    C:  the n-th derivative of C^l equals the (n-1)-th derivative of
        l*g*C^(l+1).

    Inputs are computed at the given order and compared at order - n.
    The series every n differentiates (g^t, g*C^l or l*g*C^(l+1)) is
    built once per call; the gC right-hand side's terms
    g^(1+2n-i)*C^(l+i) are multiplied afresh for every n.
    """
    require_count("n_max", n_max, least=1)
    require_count("order", order)
    if order < n_max + 8:
        raise ValueError("order must be at least n_max + 8 for a working margin")
    param = exact_rational(param)
    if variant == "gt":
        power = _power("g", order, param)

        def holds(n: int) -> bool:
            lhs = nth_derivative(power, n) * Fraction(1, factorial(n))
            scale = Fraction(4) ** n * binomial(param / 2 + n - 1, n)
            rhs = _power("g", order, param + 2 * n) * scale
            return lhs == rhs.truncate(order - n)

    elif variant == "C":
        power = _power("catalan", order, param)
        product = base_series("g", order) * _power("catalan", order, param + 1) * param

        def holds(n: int) -> bool:
            rhs = nth_derivative(product, n - 1).truncate(order - n)
            return nth_derivative(power, n) == rhs

    elif variant == "gC":
        product = base_series("g", order) * _power("catalan", order, param)

        def holds(n: int) -> bool:
            lhs = nth_derivative(product, n) * Fraction(1, factorial(n))
            total = TruncatedSeries.constant(0, order)
            for i in range(n + 1):
                scale = binomial(2 * n - i, n - i) * binomial(param + i - 1, i)
                total = total + _power("g", order, 1 + 2 * n - i) * _power(
                    "catalan", order, param + i
                ) * scale
            return lhs == total.truncate(order - n)

    else:
        raise ValueError(f"unknown variant {variant!r}")
    return [n for n in range(1, n_max + 1) if not holds(n)]


def coefficient_identity_check(variant: str, param: Scalar, order: int) -> bool:
    """Coefficient formulas for g^t, g*C^l, and C^l, checked at every
    index up to the truncation order.

    gt: [x^n] g^t = 4^n*binomial(n + t/2 - 1, n).
    gC: [x^n] g*C^l = binomial(2n + l, n).
    C:  [x^0] C^l = 1 and, for n >= 1,
        [x^n] C^l = l*(2n+l-1 falling n-1)/n!, a cancellation-safe form
        that stays finite when 2n + l = 0.
    """
    require_count("order", order)
    param = exact_rational(param)
    if variant == "gt":
        f = _power("g", order, param)
        return all(
            f[n] == Fraction(4) ** n * binomial(param / 2 + n - 1, n)
            for n in range(order + 1)
        )
    if variant == "gC":
        f = base_series("g", order) * _power("catalan", order, param)
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


def wz_certificate_check(n_max: int) -> list[tuple[int, int]]:
    """The telescoping certificate at every lattice point (n, i) with
    n <= n_max and 0 <= i <= n + 1; the points at which it fails.

    A point holds iff, as polynomials in the exponent variable,
    (2n+x+1)(2n+x+2)*F(n,i) - (n+1)(n+x+1)*F(n+1,i) = G(n,i+1) - G(n,i),
    and the boundary values its equation uses vanish: G(n, 0) at i = 0,
    and F(n, n+1) and G(n, n+2) at i = n + 1.

    Every F(n, i) and G(n, i) the points use is built once per call, in
    two separate tables, so the two sides of the equation share no
    result.
    """
    require_count("n_max", n_max)
    f = [
        [certificate_summand(n, i) for i in range(min(n, n_max) + 2)]
        for n in range(n_max + 2)
    ]
    g = [[certificate_multiplier(n, i) for i in range(n + 3)] for n in range(n_max + 1)]
    return [
        (n, i)
        for n in range(n_max + 1)
        for i in range(n + 2)
        if _recurrence_step(f[n][i], f[n + 1][i], n) != g[n][i + 1] - g[n][i]
        or (i == 0 and g[n][0] != 0)
        or (i == n + 1 and (f[n][i] != 0 or g[n][i + 1] != 0))
    ]


def telescoped_sum_check(n_max: int) -> list[int]:
    """Summing the certificate summand telescopes to a single binomial;
    the n in 0..n_max at which it fails.

    An n holds iff sum over i of F(n, i) equals binomial(2n+x, n) as
    polynomials, and both the sum and the closed form satisfy the
    two-term recurrence the certificate encodes from n to n + 1; n = 0
    also needs the sum to be 1.  Each sum and each closed form is built
    once per call, and the closed form never goes through F.
    """
    require_count("n_max", n_max)
    sizes = range(n_max + 2)
    totals = [
        sum((certificate_summand(size, i) for i in range(size + 1)), Polynomial())
        for size in sizes
    ]
    closed = [binomial(Polynomial((2 * size, 1)), size) for size in sizes]
    return [
        n
        for n in range(n_max + 1)
        if totals[n] != closed[n]
        or (n == 0 and totals[0] != 1)
        or _recurrence_step(totals[n], totals[n + 1], n) != 0
        or _recurrence_step(closed[n], closed[n + 1], n) != 0
    ]
