"""Exact checkers for convolution identities of central binomial type.

The central object is the t-fold convolution sum

    S(n; o_1..o_t) = sum over compositions m_1+...+m_t = n of
                     prod_k binomial(2*m_k + o_k, m_k).

With all offsets zero this is 4^n times a binomial in n and t/2; other
offset patterns (a pair summing to zero, a general zero-sum vector)
reduce to the same closed form.  The polynomial checks at the end
establish the offset-shift invariance used to prove the closed form:
the sum is unchanged when a single offset pair (a, 0) is deformed to
(a - x, x), and the finite-difference formula that drives that proof
holds symbolically.

The difference formula is checked for every (i, m) of each (n, a), and
every check reads the same sequence entries and the same bridge to the
convolution sum.  So the entries (_difference_poly) and the bridge
(_bridge_holds) are computed once per process, keyed on n, the
validated exact a and the index; a case's wall time can therefore
depend on which cases ran before it.  Nothing else is memoized: closed
forms, convolution sums and inclusion-exclusion sums are recomputed on
every call.  For integer L the inclusion-exclusion sum runs both of its
rewritings on math.comb, over plain integers, with no Fraction until
the result.  The truncated product behind a convolution sum of size n
holds the sums of every size up to n, so convolution_sums returns a
whole sweep over sizes from one product, not one product per size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Iterable, Union

from .exactnum import (
    MEMO_SIZE,
    OutOfRangeError,
    Polynomial,
    Scalar,
    binomial,
    exact_rational,
    falling_factorial,
    finite_difference,
    integer_convolution,
)


@dataclass(frozen=True)
class ConvolutionSpec:
    """Width n and the offset vector of a convolution sum."""

    n: int
    offsets: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError("n must be a nonnegative integer")
        offsets = tuple(map(exact_rational, self.offsets))
        if not offsets:
            raise ValueError("at least one offset is required")
        object.__setattr__(self, "offsets", offsets)

    @property
    def width(self) -> int:
        return len(self.offsets)


def _offset_column(offset: Fraction, n: int) -> tuple[list[int], int]:
    """binomial(2m + offset, m) for m = 0..n, as integers over one scale.

    For offset = p/q, entry m is the product of (2m - j)q + p over
    j < m, divided by q^m*m!.  For q = 1 that division is exact and the
    scale is 1; otherwise every entry is brought to the scale q^n*n!.
    """
    p, q = offset.numerator, offset.denominator
    tops = [prod(range(2 * m * q + p, m * q + p, -q)) for m in range(n + 1)]
    if q == 1:
        return [top // factorial(m) for m, top in enumerate(tops)], 1
    lift = 1  # q^(n-m)*n!/m!
    for m in range(n, -1, -1):
        tops[m] *= lift
        lift *= q * m
    return tops, q**n * factorial(n)


def _convolution_prefix(
    offsets: tuple[Fraction, ...], n: int
) -> tuple[list[int], int]:
    """The convolution sums of sizes 0..n, as integers over one scale.

    Computed by iterated truncated sequence convolution rather than by
    enumerating compositions, so the cost is t*n^2 exact products.  Each
    distinct offset's column is built once, directly as integers over
    one scale (_offset_column, which never calls exactnum.binomial, so
    closed_form stays a separate route), the convolutions run over
    integers (exactnum.integer_convolution), and the scale is the
    product of the column scales.
    """
    columns = {offset: _offset_column(offset, n) for offset in set(offsets)}
    acc, scale = columns[offsets[0]]
    for offset in offsets[1:]:
        col, col_scale = columns[offset]
        acc = integer_convolution(acc, col, n + 1)
        scale *= col_scale
    return acc, scale


def convolution_sum(spec: ConvolutionSpec) -> Fraction:
    """The t-fold convolution sum of offset central binomial columns,
    at the single size spec.n.

    Builds the whole truncated product up to spec.n and reads its last
    entry; a sweep over sizes 0..N takes all of them from one product
    through convolution_sums instead.
    """
    acc, scale = _convolution_prefix(spec.offsets, spec.n)
    return Fraction(acc[spec.n], scale)


def convolution_sums(offsets: Iterable[Scalar], n_max: int) -> list[Fraction]:
    """The convolution sums S(0; offsets)..S(n_max; offsets), from one
    truncated product.

    Entry m of the product is S(m) over the same scale at every m (for
    an offset p/q, q^n_max*n_max! per factor), so each entry is the
    exact value convolution_sum gives at size m.  Validated as
    ConvolutionSpec(n_max, offsets): a negative or non-integer n_max,
    no offsets or a float offset is refused.
    """
    spec = ConvolutionSpec(n_max, tuple(offsets))
    acc, scale = _convolution_prefix(spec.offsets, n_max)
    return [Fraction(value, scale) for value in acc]


def closed_form(n: int, t: Scalar) -> Fraction:
    """4^n * binomial(n + t/2 - 1, n), the zero-offset sum in closed form."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    t = exact_rational(t)
    return Fraction(4) ** n * binomial(n + t / 2 - 1, n)


def odd_t_forms(n: int, L: int) -> bool:
    """For odd width t = 2L+1 the closed form has two all-integer-binomial
    rewritings; true iff all three expressions agree."""
    if n < 0 or L < 0:
        raise ValueError("n and L must be nonnegative integers")
    lhs = closed_form(n, 2 * L + 1)
    first = binomial(2 * n + 2 * L, 2 * n) / binomial(n + L, n) * binomial(2 * n, n)
    second = binomial(2 * n + 2 * L, n + L) / binomial(2 * L, L) * binomial(n + L, n)
    return lhs == first == second


def recurrence_check(t: int, n: int) -> bool:
    """Zero-offset sums satisfy S_{t+2}(n+1) = S_t(n+1) + 4*S_{t+2}(n).

    Both width-(t+2) sums come from one truncated product."""
    if not isinstance(t, int) or t < 1:
        raise ValueError("t must be a positive integer")
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer")

    wide = convolution_sums((Fraction(0),) * (t + 2), n + 1)
    narrow = convolution_sum(ConvolutionSpec(n + 1, (Fraction(0),) * t))
    return wide[n + 1] == narrow + 4 * wide[n]


PolyOrRational = Union[Polynomial, Fraction, int]


class RewritingMismatchError(ValueError):
    """Two rewritings of one inclusion-exclusion summand disagree."""


def inclusion_exclusion_sum(L: PolyOrRational, p: int) -> PolyOrRational:
    """Alternating sum over i of binomial(L-i, p-i)*binomial(L-p, i).

    Identically 1: as a polynomial when L is symbolic, and numerically
    for any rational L (for integers, L >= p so the subset-counting
    regime applies).  The summand uses the lower index p-i, which is
    polynomial-safe; for integer L the equivalent subset-counting form
    with lower index L-p is evaluated too and must agree.  Integer L
    runs both forms over plain integers (math.comb) and returns the
    total as a Fraction.
    """
    if not isinstance(p, int) or p < 0:
        raise ValueError("p must be a nonnegative integer")
    symbolic = isinstance(L, Polynomial)
    if not symbolic:
        L = exact_rational(L)
        if L.denominator == 1:
            return _integer_inclusion_exclusion_sum(int(L), p)
    total: PolyOrRational = Polynomial() if symbolic else Fraction(0)
    for i in range(p + 1):
        term = binomial(L - i, p - i) * binomial(L - p, i)
        total = total - term if i % 2 else total + term
    return total


def _integer_inclusion_exclusion_sum(L: int, p: int) -> Fraction:
    """inclusion_exclusion_sum for integer L, by both rewritings."""
    if L < p:
        raise ValueError("integer L must be at least p")
    total = counting = 0
    for i in range(p + 1):
        sign = -1 if i % 2 else 1
        total += sign * comb(L - i, p - i) * comb(L - p, i)
        counting += sign * comb(L - i, L - p) * comb(L - p, i)
    if counting != total:
        raise RewritingMismatchError(
            f"L={L}, p={p}: the summand rewritings give {total} and {counting}"
        )
    return Fraction(total)


def opposite_offsets_check(n: int, L: Scalar) -> bool:
    """A cancelling offset pair changes nothing: the two-fold sum with
    offsets [-L, L] equals 4^n for every rational L."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    L = exact_rational(L)
    return convolution_sum(ConvolutionSpec(n, (-L, L))) == Fraction(4) ** n


def shift_invariance_poly(n: int, a: Scalar) -> Polynomial:
    """The two-fold sum with offsets (a - x, x), as a polynomial in x.

    Contract: degree <= 0, with constant value equal to the unshifted
    sum convolution_sum(n, [a, 0]).
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    a = exact_rational(a)
    total = Polynomial()
    for i in range(n + 1):
        j = n - i
        left = binomial(Polynomial((2 * i + a, -1)), i)
        right = binomial(Polynomial((2 * j, 1)), j)
        total = total + left * right
    return total


@lru_cache(maxsize=MEMO_SIZE)
def _difference_poly(n: int, a: Fraction, index: int) -> Polynomial:
    """The polynomial (x - a + index - 1) falling index, times
    (x + 2n) falling (n - index); the sequence the difference formula
    is about."""
    lead = falling_factorial(Polynomial((index - 1 - a, 1)), index)
    tail = falling_factorial(Polynomial((2 * n, 1)), n - index)
    return lead * tail


def delta_formula_check(n: int, a: Scalar, i: int, m: int) -> bool:
    """The m-fold forward difference of the sequence above has the
    closed form (-1)^m (a+n+m)_m (x-a+i-1)_i (x+2n)_{n-i-m}.

    Also checks the companion identity obtained by substituting
    x -> x - 2*index into each sequence entry: its alternating binomial
    sum collapses to n! times the two-fold convolution sum with offsets
    [a, 0], tying the symbolic computation back to the numeric one.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    if not isinstance(i, int) or i < 0:
        raise ValueError("i must be a nonnegative integer")
    if not isinstance(m, int) or m < 1:
        raise OutOfRangeError("m must be a positive integer")
    if m > n - i:
        raise OutOfRangeError(f"m must be at most n - i = {n - i}")
    a = exact_rational(a)
    lhs = finite_difference(lambda index: _difference_poly(n, a, index), m, i)
    rhs = (
        falling_factorial(a + n + m, m)
        * falling_factorial(Polynomial((i - 1 - a, 1)), i)
        * falling_factorial(Polynomial((2 * n, 1)), n - i - m)
    )
    if m % 2:
        rhs = -rhs
    return lhs == rhs and _bridge_holds(n, a)


@lru_cache(maxsize=MEMO_SIZE)
def _bridge_holds(n: int, a: Fraction) -> bool:
    """The companion identity of delta_formula_check, which depends on
    (n, a) alone."""
    bridge = Polynomial()
    for index in range(n + 1):
        term = _difference_poly(n, a, index).taylor_shift(-2 * index) * comb(n, index)
        bridge = bridge - term if index % 2 else bridge + term
    target = factorial(n) * convolution_sum(ConvolutionSpec(n, (a, Fraction(0))))
    return bridge == target
