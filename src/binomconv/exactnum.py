"""Exact arithmetic kernel.

Rationals, dense univariate polynomials over the rationals, falling
factorials, generalized binomial coefficients, and forward finite
differences.  Everything here is exact; floats never appear, and no
operand or parameter takes a bool as 0 or 1.

The storage format is stated once, in _IntegerForm: a tuple of
integer numerators over one positive denominator, in lowest terms.
Polynomial and series.TruncatedSeries both subclass it.  The core owns
validation, coefficients, sums over the lcm of the denominators,
negation, scalar products and equality; each subclass names its normal
form (a Polynomial drops trailing zeros, a series keeps them) and adds
only what differs.  Polynomial products run through
integer_convolution.  _times_linear multiplies integer numerators by
one linear factor c + s*x; Taylor shifts run Horner's rule through it,
and the falling factorial and binomial of a polynomial, which must be
linear, multiply by each factor in turn through it.  Scalar falling
factorials and binomials run over integers and build one Fraction per
result.  A Fraction is built only where a rational is read: a scalar
result or a coefficient.
integer_convolution is the one integer Cauchy product loop; series
products and convolution sums use it too.
over_factorial_scales brings integers over n!*scale^n to one
denominator; the series recurrences and the offset columns of the
convolution sums both use it; no check compares an offset column with
a series, so that sharing makes no cross-check a tautology.
Convolution sums build their offset columns as integers without
binomial, so they share no arithmetic with identities.closed_form.
require_count is the one check of a count (a size, width, order,
sample count or index) here, in identities and series, and in the
bounds of the identities and series suites.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial, gcd, lcm, prod
from operator import mul
from typing import Callable, Iterable, Sequence, Union

Scalar = Union[int, Fraction]

NEG_INFINITY = float("-inf")

class OutOfRangeError(ValueError):
    """An index or order parameter lies outside its admissible range."""


def require_count(name: str, value: object, least: int = 0) -> None:
    """Refuse value unless it is an int >= least (0 or 1), and not a
    bool: the OutOfRangeError says "{name} must be a nonnegative
    integer", or "positive" when least is 1."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        kind = "positive" if least else "nonnegative"
        raise OutOfRangeError(f"{name} must be a {kind} integer")


def exact_rational(value: object) -> Fraction:
    """value as a Fraction; only an int or a Fraction is accepted, so a
    float cannot slip in as its binary expansion, nor a bool as 0 or 1."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
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


def over_factorial_scales(numerators: Sequence[int], scale: int) -> tuple[list[int], int]:
    """numerators[n]/(n!*scale^n) for n = 0..N, brought to the one
    denominator N!*scale^N: the lifted numerators and that denominator."""
    order = len(numerators) - 1
    lifted = list(numerators)
    lift = 1  # N!/n! * scale^(N-n)
    for n in range(order, -1, -1):
        lifted[n] *= lift
        lift *= n * scale
    return lifted, factorial(order) * scale**order


def _lowest_terms(num: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """num/den with the common factor of den and all numerators divided
    out."""
    common = gcd(den, *num)
    if common == 1:
        return tuple(num), den
    return tuple(c // common for c in num), den // common


class _IntegerForm:
    """A sequence of exact rationals stored as integer numerators over
    one denominator: _num is a tuple of integers and _den a positive
    integer with gcd(_den, *_num) == 1.  The form is canonical, so equal
    values always compare equal, and it is never changed after it is
    built, so memos can share it.  Coefficients are read as Fractions,
    built on demand.

    The public constructor is the only place that validates
    coefficients; every operation builds its result over integers
    through _from_integers, which brings it to the class's normal form
    (_normal).  Sums run over the lcm of the denominators.  Equality
    holds only between instances of the same class, so a Polynomial
    never equals a TruncatedSeries with the same numerators.
    """

    __slots__ = ("_num", "_den")

    #: The normal form: lowest terms, with trailing zeros kept.
    _normal = staticmethod(_lowest_terms)

    def __init__(self, coefficients: Iterable[Scalar] = ()):
        num, den = scaled_to_integers([exact_rational(c) for c in coefficients])
        self._num, self._den = self._normal(num, den)

    @classmethod
    def _from_integers(cls, num: Sequence[int], den: int):
        """The instance with numerators num over den > 0, unvalidated."""
        form = object.__new__(cls)
        form._num, form._den = cls._normal(num, den)
        return form

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    def _check_operand(self, other: "_IntegerForm") -> None:
        """Refuse an operand of this class that cannot be combined."""

    def _operand(self, other: object) -> tuple[Sequence[int], int] | None:
        """The numerators and denominator of a scalar or of an instance
        of this class; None for anything else, a bool too."""
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return (other.numerator,), other.denominator
        if type(other) is type(self):
            self._check_operand(other)
            return other._num, other._den
        return None

    def _plus(self, num: Sequence[int], den: int, sign: int):
        """self + sign*(num/den), over the lcm of the two denominators."""
        common = lcm(self._den, den)
        scale, other_scale = common // self._den, sign * (common // den)
        return self._from_integers(
            [c * scale + d * other_scale for c, d in zip_longest(self._num, num, fillvalue=0)],
            common,
        )

    def __add__(self, other: object):
        operand = self._operand(other)
        return NotImplemented if operand is None else self._plus(*operand, 1)

    __radd__ = __add__

    def __sub__(self, other: object):
        operand = self._operand(other)
        return NotImplemented if operand is None else self._plus(*operand, -1)

    def __rsub__(self, other: object):
        operand = self._operand(other)
        return NotImplemented if operand is None else (-self)._plus(*operand, 1)

    def __neg__(self):
        return self._from_integers([-c for c in self._num], self._den)

    def _scaled(self, other: object):
        """self times a scalar; NotImplemented for anything else, a bool too."""
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self._from_integers(
                [c * other.numerator for c in self._num], self._den * other.denominator
            )
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self._num == other._num and self._den == other._den
        return NotImplemented


class Polynomial(_IntegerForm):
    """Dense univariate polynomial with rational coefficients.

    The integer form of _IntegerForm, lowest degree first, with no
    trailing zeros: the zero polynomial is ((), 1) and has degree -inf,
    and equal polynomials always compare and hash equal.  A constant
    polynomial also equals, and hashes as, its scalar value (not a bool).
    """

    __slots__ = ()

    @staticmethod
    def _normal(num: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
        """num/den without trailing zeros, in lowest terms."""
        end = len(num)
        while end and not num[end - 1]:
            end -= 1
        return _lowest_terms(num[:end], den)

    @property
    def degree(self) -> float:
        return len(self._num) - 1 if self._num else NEG_INFINITY

    @property
    def is_constant(self) -> bool:
        return len(self._num) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self!r} is not constant")
        return Fraction(self._num[0], self._den) if self._num else Fraction(0)

    def __mul__(self, other: object) -> "Polynomial":
        if isinstance(other, Polynomial):
            a, b = self._num, other._num
            return Polynomial._from_integers(
                integer_convolution(a, b, len(a) + len(b) - 1), self._den * other._den
            )
        return self._scaled(other)

    __rmul__ = __mul__

    def taylor_shift(self, offset: Scalar) -> "Polynomial":
        """Substitute (variable + offset) for the variable."""
        offset = exact_rational(offset)
        if not self._num:
            return self
        # Horner in (p + q*x) for offset = p/q: the sum of
        # c_k (p + q*x)^k q^(n-k), over q^n.
        p, q = offset.numerator, offset.denominator
        out: list[int] = []
        scale = 1
        for c in reversed(self._num):
            out = _times_linear(out, p, q)
            out[0] += c * scale
            scale *= q
        return Polynomial._from_integers(out, self._den * (scale // q))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.is_constant and self.constant_value() == other
        return _IntegerForm.__eq__(self, other)

    def __hash__(self) -> int:
        if self.is_constant:
            return hash(self.constant_value())
        return hash(self.coefficients)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coefficients)!r})"

    def __str__(self) -> str:
        coeffs = self.coefficients
        if not coeffs:
            return "0"
        parts = []
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
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


PolyOrScalar = Union[Polynomial, int, Fraction]


def _falling_numerator(x: Fraction, k: int) -> int:
    """p(p - q)...(p - (k-1)q) for x = p/q: the falling factorial of x
    of length k is this integer over q^k."""
    q = x.denominator
    return prod(range(x.numerator, x.numerator - k * q, -q))


def _times_linear(num: Sequence[int], c: int, s: int) -> list[int]:
    """Integer numerators, lowest degree first, times c + s*x."""
    return [c * a + s * b for a, b in zip([*num, 0], [0, *num])]


def _falling_numerators(x: Polynomial, k: int) -> list[int]:
    """Integer numerators, lowest degree first, of the falling factorial
    of the linear polynomial x of length k, over x._den**k: with
    numerators (c, s) over d, factor m is (c - m*d) + s*x over d.  A
    polynomial of degree 2 or more is a ValueError."""
    if len(x._num) > 2:
        raise ValueError(f"x must be linear, not of degree {len(x._num) - 1}")
    c, s = (*x._num, 0, 0)[:2]
    out = [1]
    for m in range(k):
        out = _times_linear(out, c - m * x._den, s)
    return out


def falling_factorial(x: PolyOrScalar, k: int) -> Union[Fraction, Polynomial]:
    """Product x(x-1)...(x-k+1); the empty product (k=0) is 1."""
    require_count("k", k)
    if isinstance(x, Polynomial):
        return Polynomial._from_integers(_falling_numerators(x, k), x._den**k)
    x = exact_rational(x)
    return Fraction(_falling_numerator(x, k), x.denominator**k)


def binomial(x: PolyOrScalar, k: int) -> Union[Fraction, Polynomial]:
    """Generalized binomial coefficient: falling_factorial(x, k) / k!.

    Zero for negative k, matching the summation conventions used
    throughout the identity checkers.
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise OutOfRangeError("binomial lower index must be an integer")
    if isinstance(x, Polynomial):
        numerators = _falling_numerators(x, max(k, 0))  # refuses x first
        if k < 0:
            return Polynomial._from_integers((), 1)
        return Polynomial._from_integers(numerators, x._den**k * factorial(k))
    x = exact_rational(x)
    if k < 0:
        return Fraction(0)
    return Fraction(_falling_numerator(x, k), x.denominator**k * factorial(k))


def finite_difference(
    f: Callable[[int], PolyOrScalar], m: int, i: int
) -> Union[Fraction, Polynomial]:
    """m-fold forward difference of the sequence f, evaluated at index i."""
    require_count("m", m)
    total = None
    for r in range(m + 1):
        term = f(i + r) * comb(m, r)
        if (m - r) % 2:
            term = -term
        total = term if total is None else total + term
    return Fraction(total) if isinstance(total, int) else total
