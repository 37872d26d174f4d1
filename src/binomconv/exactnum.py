"""Exact arithmetic kernel.

Rationals, dense univariate polynomials over the rationals, falling
factorials, generalized binomial coefficients, and forward finite
differences.  Everything here is exact; floats never appear.

Scalar falling factorials and binomials, and polynomial products, run
their inner loops over integers and build one Fraction per result (per
output coefficient, for a product), so results are the exact, fully
reduced rationals.  integer_convolution is the one integer Cauchy
product loop; series products and convolution sums use it too.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm, prod
from operator import mul
from typing import Callable, Iterable, Sequence, Union

Rational = Fraction

Scalar = Union[int, Fraction]

NEG_INFINITY = float("-inf")


class OutOfRangeError(ValueError):
    """An index or order parameter lies outside its admissible range."""


def exact_rational(value: object) -> Fraction:
    """value as a Fraction; only an int or a Fraction is accepted, so a
    float cannot slip in as its binary expansion."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(
        f"expected an int or a Fraction, got {type(value).__name__} {value!r}"
    )


def scaled_to_integers(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The integers v*D for the lcm D of the values' denominators, and D."""
    # A list, not a generator, feeds lcm: a tuple built from an iterator
    # of unknown length is resized, and CPython's tuple free lists then
    # keep one dead tuple per call until the next full collection.
    scale = lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale


def integer_convolution(a: Sequence[int], b: Sequence[int], length: int) -> list[int]:
    """The first length coefficients of the Cauchy product of the integer
    sequences a and b: entry k is the sum of a[i]*b[k-i] over valid i."""
    last_b = len(b) - 1
    return [
        sum(map(mul, a[max(0, k - last_b) : k + 1], b[min(k, last_b) :: -1]))
        for k in range(length)
    ]


class Polynomial:
    """Dense univariate polynomial with Fraction coefficients.

    Coefficients are stored lowest degree first with no trailing zeros,
    so equal polynomials always compare and hash equal.  The zero
    polynomial has an empty coefficient tuple and degree -inf.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[Scalar] = ()):
        coeffs = [exact_rational(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        return cls((value,))

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> float:
        return len(self._coeffs) - 1 if self._coeffs else NEG_INFINITY

    def coefficient(self, k: int) -> Fraction:
        if k < 0:
            raise OutOfRangeError("coefficient index must be nonnegative")
        return self._coeffs[k] if k < len(self._coeffs) else Fraction(0)

    @property
    def is_constant(self) -> bool:
        return len(self._coeffs) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self!r} is not constant")
        return self._coeffs[0] if self._coeffs else Fraction(0)

    def __call__(self, point: Scalar) -> Fraction:
        point = exact_rational(point)
        value = Fraction(0)
        for c in reversed(self._coeffs):
            value = value * point + c
        return value

    def __add__(self, other: object) -> "Polynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self._coeffs)

    def __sub__(self, other: object) -> "Polynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "Polynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: object) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Polynomial()
            return Polynomial(c * other for c in self._coeffs)
        if isinstance(other, Polynomial):
            if not self._coeffs or not other._coeffs:
                return Polynomial()
            a, scale_a = scaled_to_integers(self._coeffs)
            b, scale_b = scaled_to_integers(other._coeffs)
            scale = scale_a * scale_b
            return Polynomial(
                Fraction(c, scale)
                for c in integer_convolution(a, b, len(a) + len(b) - 1)
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise OutOfRangeError("polynomial powers take nonnegative integer exponents")
        result = Polynomial((1,))
        for _ in range(exponent):
            result = result * self
        return result

    def taylor_shift(self, offset: Scalar) -> "Polynomial":
        """Substitute (variable + offset) for the variable."""
        shift = Polynomial((exact_rational(offset), 1))
        result = Polynomial()
        for c in reversed(self._coeffs):
            result = result * shift + c
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.constant_value() == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_constant:
            return hash(self.constant_value())
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self._coeffs)!r})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for k in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "x" if k == 1 else f"x^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _coerce(value: object) -> Polynomial | None:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial((value,))
    return None


#: The polynomial variable.
X = Polynomial((0, 1))

PolyOrScalar = Union[Polynomial, int, Fraction]


def _falling_numerator(x: Fraction, k: int) -> int:
    """p(p - q)...(p - (k-1)q) for x = p/q: the falling factorial of x
    of length k is this integer over q^k."""
    q = x.denominator
    return prod(range(x.numerator, x.numerator - k * q, -q))


def falling_factorial(x: PolyOrScalar, k: int) -> Union[Fraction, Polynomial]:
    """Product x(x-1)...(x-k+1); the empty product (k=0) is 1."""
    if not isinstance(k, int) or k < 0:
        raise OutOfRangeError("falling factorial length must be a nonnegative integer")
    if isinstance(x, Polynomial):
        result = Polynomial((1,))
        for m in range(k):
            result = result * (x - m)
        return result
    x = exact_rational(x)
    return Fraction(_falling_numerator(x, k), x.denominator**k)


def binomial(x: PolyOrScalar, k: int) -> Union[Fraction, Polynomial]:
    """Generalized binomial coefficient: falling_factorial(x, k) / k!.

    Zero for negative k, matching the summation conventions used
    throughout the identity checkers.
    """
    if not isinstance(k, int):
        raise OutOfRangeError("binomial lower index must be an integer")
    if isinstance(x, Polynomial):
        if k < 0:
            return Polynomial()
        return falling_factorial(x, k) * Fraction(1, factorial(k))
    x = exact_rational(x)
    if k < 0:
        return Fraction(0)
    return Fraction(_falling_numerator(x, k), x.denominator**k * factorial(k))


def finite_difference(
    f: Callable[[int], PolyOrScalar], m: int, i: int
) -> Union[Fraction, Polynomial]:
    """m-fold forward difference of the sequence f, evaluated at index i."""
    if not isinstance(m, int) or m < 0:
        raise OutOfRangeError("difference order must be a nonnegative integer")
    total = None
    for r in range(m + 1):
        term = f(i + r) * comb(m, r)
        if (m - r) % 2:
            term = -term
        total = term if total is None else total + term
    return Fraction(total) if isinstance(total, int) else total
