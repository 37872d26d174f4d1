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

Nothing is memoized, so a case's wall time does not depend on which
cases ran before it; a check that sweeps a family builds the family's
shared inputs once per call instead (the sequence entries of one
(n, a) in delta_formula_check, two truncated products per t in
recurrence_check).  For integer L the inclusion-exclusion sum runs
both of its rewritings on math.comb, over plain integers, with no
Fraction until the result.  The truncated product behind a
convolution sum of size n holds the sums of every size up to n, so
convolution_sums returns a whole sweep over sizes from one product,
not one product per size.  It is the one function that validates
offsets (plain ints or Fractions) and a size and builds a sum;
convolution_sum(offsets, n) reads entry n of its list.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod
from typing import Iterable

from .exactnum import (
    Polynomial,
    PolyOrScalar,
    Scalar,
    binomial,
    exact_rational,
    falling_factorial,
    finite_difference,
    integer_convolution,
    over_factorial_scales,
)


def _offset_column(offset: Fraction, n: int) -> tuple[list[int], int]:
    """binomial(2m + offset, m) for m = 0..n, as integers over one scale.

    For offset = p/q, entry m is the product of (2m - j)q + p over
    j < m, divided by q^m*m!.  For q = 1 that division is exact and the
    scale is 1; otherwise exactnum.over_factorial_scales brings every
    entry to the scale q^n*n!.
    """
    p, q = offset.numerator, offset.denominator
    tops = [prod(range(2 * m * q + p, m * q + p, -q)) for m in range(n + 1)]
    if q == 1:
        return [top // factorial(m) for m, top in enumerate(tops)], 1
    return over_factorial_scales(tops, q)


def convolution_sums(offsets: Iterable[Scalar], n_max: int) -> list[Fraction]:
    """The convolution sums S(0; offsets)..S(n_max; offsets), from one
    truncated product.

    Computed by iterated truncated sequence convolution rather than by
    enumerating compositions, so the cost is t*n_max^2 exact products.
    Each distinct offset's column is built once, directly as integers
    over one scale (_offset_column, which never calls
    exactnum.binomial, so closed_form stays a separate route), the
    convolutions run over integers (exactnum.integer_convolution), and
    the scale is the product of the column scales.  Entry m of the
    product is S(m) over the same scale at every m (for an offset p/q,
    q^n_max*n_max! per factor).  A negative or non-integer n_max or no
    offsets is a ValueError, a float offset a TypeError.
    """
    if not isinstance(n_max, int) or n_max < 0:
        raise ValueError("n must be a nonnegative integer")
    offsets = tuple(map(exact_rational, offsets))
    if not offsets:
        raise ValueError("at least one offset is required")
    columns = {offset: _offset_column(offset, n_max) for offset in set(offsets)}
    acc, scale = columns[offsets[0]]
    for offset in offsets[1:]:
        col, col_scale = columns[offset]
        acc = integer_convolution(acc, col, n_max + 1)
        scale *= col_scale
    return [Fraction(value, scale) for value in acc]


def convolution_sum(offsets: Iterable[Scalar], n: int) -> Fraction:
    """The convolution sum S(n; offsets): the last entry of
    convolution_sums(offsets, n), which a sweep over sizes reads whole."""
    return convolution_sums(offsets, n)[n]


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


def recurrence_check(t: int, n_max: int) -> list[int]:
    """Zero-offset sums satisfy S_{t+2}(n+1) = S_t(n+1) + 4*S_{t+2}(n);
    the n <= n_max at which they do not.

    Each width's sums of sizes 0..n_max+1 come from one truncated
    product."""
    if not isinstance(t, int) or t < 1:
        raise ValueError("t must be a positive integer")
    if not isinstance(n_max, int) or n_max < 0:
        raise ValueError("n_max must be a nonnegative integer")

    wide = convolution_sums((0,) * (t + 2), n_max + 1)
    narrow = convolution_sums((0,) * t, n_max + 1)
    return [
        n for n in range(n_max + 1) if wide[n + 1] != narrow[n + 1] + 4 * wide[n]
    ]


class RewritingMismatchError(ValueError):
    """Two rewritings of one inclusion-exclusion summand disagree."""


def inclusion_exclusion_sum(L: PolyOrScalar, p: int) -> PolyOrScalar:
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
    total: PolyOrScalar = Polynomial() if symbolic else Fraction(0)
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
    return convolution_sum((-L, L), n) == Fraction(4) ** n


def shift_invariance_poly(n: int, a: Scalar) -> Polynomial:
    """The two-fold sum with offsets (a - x, x), as a polynomial in x.

    Contract: degree <= 0, with constant value equal to the unshifted
    sum convolution_sum((a, 0), n).
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


def delta_formula_check(n: int, a: Scalar) -> list[str]:
    """The difference formula behind the offset-shift proof, at one
    size n >= 1 and offset a; the failures found, as strings.

    The sequence is entry(index) = (x - a + index - 1) falling index,
    times (x + 2n) falling (n - index), for index = 0..n.  For every
    (i, m) with 1 <= m <= n - i, its m-fold forward difference at i has
    the closed form (-1)^m (a+n+m)_m (x-a+i-1)_i (x+2n)_{n-i-m}; a
    failure is reported as "i=.., m=..".

    Also checks, once, the companion identity obtained by substituting
    x -> x - 2*index into each entry: its alternating binomial sum
    collapses to n! times the two-fold convolution sum with offsets
    [a, 0], tying the symbolic computation back to the numeric one.
    Its failure is reported as "bridge".  The entries and their factors
    are built once and shared by every check.
    """
    if not isinstance(n, int) or n < 1:
        # Size 0 has no (i, m), so it would pass without checking anything.
        raise ValueError("n must be a positive integer")
    a = exact_rational(a)
    # leads[k] = (x - a + k - 1) falling k, tails[k] = (x + 2n) falling k
    leads = [falling_factorial(Polynomial((k - 1 - a, 1)), k) for k in range(n + 1)]
    tails = [falling_factorial(Polynomial((2 * n, 1)), k) for k in range(n + 1)]
    entries = [leads[index] * tails[n - index] for index in range(n + 1)]
    failures = []
    for i in range(n):
        for m in range(1, n - i + 1):
            rhs = falling_factorial(a + n + m, m) * leads[i] * tails[n - i - m]
            if m % 2:
                rhs = -rhs
            if finite_difference(entries.__getitem__, m, i) != rhs:
                failures.append(f"i={i}, m={m}")

    bridge = Polynomial()
    for index, entry in enumerate(entries):
        term = entry.taylor_shift(-2 * index) * comb(n, index)
        bridge = bridge - term if index % 2 else bridge + term
    target = factorial(n) * convolution_sum((a, 0), n)
    if bridge != target:
        failures.append("bridge")
    return failures
