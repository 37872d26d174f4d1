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

A series is stored as integer numerators over one denominator, as a
Polynomial is.  Sums, scalar and series products, truncation,
derivatives, powers, exp and log all run over integers, and a Fraction
is built only where a coefficient is read, so results are the exact,
fully reduced rationals.  exp and log run their own recurrences, never
Miller's, so the two routes to a power share no arithmetic loop.

The series cases ask for the same few powers of g and C over and over
(g^3 serves every parameter of the gC variant, and the route, law and
additivity cases reuse powers the identity checks take), so the base
series g and C and their powers are computed once per process: _base
and _power memoize them, keyed on the series kind, the order and the
exact exponent, after the checks (or base_power) have validated those.
The product g*C^b, which the derivative identities of g*C^l and C^l
differentiate once for every n, is memoized the same way (_g_catalan).
The certificate polynomials F(n, i) and G(n, i) are memoized too, each
in its own memo keyed on the integers (n, i), so the two sides of the
telescoping identity share no result.  A case's wall time can
therefore depend on which cases ran before it.  Closed forms are never
memoized, so each identity still compares two independent
computations, and neither the exp/log route nor the binomial-power
series goes through a memo.

Everything is truncated at an explicit order N and arithmetic never
reads past it; binary operations require equal orders.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, perm
from typing import Iterable, Sequence

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


class TruncatedSeries:
    """Coefficients c_0..c_N of a power series truncated after x^N.

    Stored as integer numerators over one denominator: _num holds all
    N + 1 numerators (zeros included, so its length fixes the order)
    and _den is positive with gcd(_den, *_num) == 1.  The form is
    canonical, so equal series always compare and hash equal, and a
    series is never changed after it is built, so memos can share it.
    Coefficients are read as Fractions, built on demand.

    The public constructor is the only place that validates
    coefficients; every operation builds its result over integers
    through _from_integers.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coefficients: Iterable[Scalar]):
        values = [exact_rational(c) for c in coefficients]
        if not values:
            raise ValueError("a truncated series has at least its constant term")
        self._num, self._den = _reduced(*scaled_to_integers(values))

    @classmethod
    def _from_integers(cls, num: Sequence[int], den: int) -> "TruncatedSeries":
        """The series with numerators num over den > 0, unvalidated."""
        series = object.__new__(cls)
        series._num, series._den = _reduced(num, den)
        return series

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "TruncatedSeries":
        return cls((value,) + (0,) * order)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

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
        if order > self.order:
            raise OrderExhaustedError(
                f"cannot extend order {self.order} to {order}"
            )
        return TruncatedSeries._from_integers(self._num[: order + 1], self._den)

    def _require_same_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def _plus(self, num: Sequence[int], den: int) -> "TruncatedSeries":
        """self plus the series num/den; num may stop before the order."""
        common = lcm(self._den, den)
        scale, other_scale = common // self._den, common // den
        out = [c * scale for c in self._num]
        for k, c in enumerate(num):
            out[k] += c * other_scale
        return TruncatedSeries._from_integers(out, common)

    def __add__(self, other: object) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._require_same_order(other)
            return self._plus(other._num, other._den)
        if isinstance(other, (int, Fraction)):
            return self._plus((other.numerator,), other.denominator)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._from_integers([-c for c in self._num], self._den)

    def __sub__(self, other: object) -> "TruncatedSeries":
        if isinstance(other, (TruncatedSeries, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other: object) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other: object) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._require_same_order(other)
            a = self._num
            return TruncatedSeries._from_integers(
                integer_convolution(a, other._num, len(a)), self._den * other._den
            )
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return TruncatedSeries._from_integers(
                [c * p for c in self._num], self._den * other.denominator
            )
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TruncatedSeries):
            return self._num == other._num and self._den == other._den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        return f"TruncatedSeries(coefficients={self.coefficients!r})"


def _reduced(num: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """num/den with the common factor of den and all numerators divided
    out; unlike a polynomial's form, trailing zeros stay."""
    common = gcd(den, *num)
    if common == 1:
        return tuple(num), den
    return tuple(c // common for c in num), den // common


def _over_factorial_scales(numerators: Sequence[int], scale: int) -> TruncatedSeries:
    """The series with coefficient n equal to numerators[n]/(n!*scale^n),
    brought to the one denominator N!*scale^N."""
    order = len(numerators) - 1
    num = [0] * (order + 1)
    lift = 1  # N!/n! * scale^(N-n)
    for n in range(order, -1, -1):
        num[n] = numerators[n] * lift
        lift *= n * scale
    return TruncatedSeries._from_integers(num, factorial(order) * scale**order)


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
    return _over_factorial_scales(numerators, den)


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
    return _over_factorial_scales(numerators, scale)


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
    return _over_factorial_scales(numerators, q * scale)


@lru_cache(maxsize=MEMO_SIZE)
def _base(kind: str, order: int) -> TruncatedSeries:
    """base_series(kind, order) for g or catalan, built once per order."""
    return base_series(kind, order)


@lru_cache(maxsize=MEMO_SIZE)
def _power(kind: str, order: int, r: Fraction) -> TruncatedSeries:
    """series_pow of a memoized base series, computed once per exponent
    for every series case (through base_power or the identity checks).

    The key must already be exact: 0.5 == Fraction(1, 2) and both hash
    alike, so an unvalidated float would be handed the cached result.
    A TruncatedSeries is frozen, so every caller can share the result.
    """
    return series_pow(_base(kind, order), r)


@lru_cache(maxsize=MEMO_SIZE)
def _g_catalan(order: int, b: Fraction) -> TruncatedSeries:
    """g*C^b from the memoized factors, multiplied once per exponent.

    The gC variant of derivative_identity_check differentiates g*C^l
    and the C variant differentiates g*C^(l+1), for every n; both read
    the product here.  The key must already be exact, as for _power.
    """
    return _base("g", order) * _power("catalan", order, b)


def base_power(kind: str, order: int, r: Scalar) -> TruncatedSeries:
    """series_pow(base_series(kind, order), r) for g or catalan, from
    the memo; order and r are validated before the lookup."""
    _require_order(order)
    return _power(kind, order, exact_rational(r))


def nth_derivative(f: TruncatedSeries, n: int) -> TruncatedSeries:
    """Term-wise n-th derivative; the truncation order drops by n."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("derivative count must be a nonnegative integer")
    if n > f.order:
        raise OrderExhaustedError(
            f"derivative {n} of a series truncated at order {f.order}"
        )
    num = f._num
    return TruncatedSeries._from_integers(
        [num[k + n] * perm(k + n, n) for k in range(f.order - n + 1)], f._den
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
    The product g*C^b is taken once per (order, b) from the _g_catalan
    memo, so it is not rebuilt for every n; the gC right-hand side's
    terms g^(1+2n-i)*C^(l+i) are multiplied afresh on every call.
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
        lhs = nth_derivative(_power("catalan", order, param), n)
        rhs = nth_derivative(_g_catalan(order, param + 1) * param, n - 1).truncate(target)
        return lhs == rhs
    if variant == "gC":
        lhs = nth_derivative(_g_catalan(order, param), n) * Fraction(1, factorial(n))
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


def _require_lattice_point(n: int, i: int) -> None:
    """Certificate memo keys must be ints: 2.0 == 2 and both hash alike."""
    if not (isinstance(n, int) and isinstance(i, int)):
        raise OutOfRangeError("certificate indices must be integers")


def certificate_summand(n: int, i: int) -> Polynomial:
    """F(n, i) = binomial(2n-i, n-i)*binomial(x+i-1, i), polynomial in
    the exponent variable; zero when i > n."""
    _require_lattice_point(n, i)
    return _certificate_summand(n, i)


@lru_cache(maxsize=MEMO_SIZE)
def _certificate_summand(n: int, i: int) -> Polynomial:
    scale = binomial(2 * n - i, n - i)
    return binomial(Polynomial((i - 1, 1)), i) * scale


def certificate_multiplier(n: int, i: int) -> Polynomial:
    """G(n, i) = i(i+1)*binomial(2n+1-i, n+1-i)*binomial(x+i, i+1); the
    telescoping companion of the summand."""
    _require_lattice_point(n, i)
    return _certificate_multiplier(n, i)


@lru_cache(maxsize=MEMO_SIZE)
def _certificate_multiplier(n: int, i: int) -> Polynomial:
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
