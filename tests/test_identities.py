"""Convolution-sum identities, checked against a brute-force oracle."""

from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binomconv import identities, suites
from binomconv.exactnum import Polynomial, X, binomial
from binomconv.identities import (
    ConvolutionSpec,
    RewritingMismatchError,
    closed_form,
    convolution_sum,
    convolution_sums,
    delta_formula_check,
    inclusion_exclusion_sum,
    odd_t_forms,
    opposite_offsets_check,
    recurrence_check,
    shift_invariance_poly,
)

rational_offsets = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def weak_compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in weak_compositions(n - head, parts - 1):
            yield (head, *rest)


def composition_oracle(spec: ConvolutionSpec) -> Fraction:
    """Literal sum over compositions; exponential, test-only."""
    total = Fraction(0)
    for combo in weak_compositions(spec.n, spec.width):
        term = Fraction(1)
        for m, offset in zip(combo, spec.offsets):
            term *= binomial(2 * m + offset, m)
        total += term
    return total


# ----------------------------------------------------------- convolution sums


def test_spec_validation():
    with pytest.raises(ValueError):
        ConvolutionSpec(-1, (Fraction(0),))
    with pytest.raises(ValueError):
        ConvolutionSpec(2, ())
    with pytest.raises(ValueError):
        ConvolutionSpec(Fraction(2), (Fraction(0),))
    with pytest.raises(TypeError):
        ConvolutionSpec(2, (0.5, -0.5))
    spec = ConvolutionSpec(2, (1, Fraction(-1, 2)))
    assert spec.offsets == (Fraction(1), Fraction(-1, 2))
    assert all(isinstance(o, Fraction) for o in spec.offsets)
    assert spec.width == 2


def test_convolution_sum_examples():
    assert convolution_sum(ConvolutionSpec(2, (0, 0))) == 16
    assert convolution_sum(ConvolutionSpec(2, (1, -1))) == 16
    assert convolution_sum(ConvolutionSpec(1, (Fraction(-3, 2), Fraction(3, 2)))) == 4
    assert convolution_sum(ConvolutionSpec(3, (0,))) == 20  # central binomial
    assert convolution_sum(ConvolutionSpec(0, (5, -7, Fraction(1, 3)))) == 1


def test_convolution_sum_matches_composition_enumeration():
    offset_menus = [
        (Fraction(0),),
        (Fraction(1),),
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(-1)),
        (Fraction(1, 2), Fraction(-3, 2)),
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(-1), Fraction(-1)),
        (Fraction(1, 3), Fraction(0), Fraction(-1, 3)),
        (Fraction(0), Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(5, 2), Fraction(-1, 2), Fraction(-2), Fraction(0)),
    ]
    for offsets in offset_menus:
        for n in range(7):
            spec = ConvolutionSpec(n, offsets)
            assert convolution_sum(spec) == composition_oracle(spec)


@given(
    n=st.integers(0, 5),
    offsets=st.lists(rational_offsets, min_size=1, max_size=3),
)
@settings(max_examples=50, deadline=None)
def test_convolution_sum_matches_oracle_random(n, offsets):
    spec = ConvolutionSpec(n, tuple(offsets))
    assert convolution_sum(spec) == composition_oracle(spec)


#: Offsets p/q with every denominator q from 1 to 6.
small_denominator_offsets = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@given(
    n_max=st.integers(0, 20),
    offsets=st.lists(small_denominator_offsets, min_size=1, max_size=5),
)
@example(n_max=20, offsets=[Fraction(0)])
@example(
    n_max=20,
    offsets=[Fraction(1, 6), Fraction(-5, 4), Fraction(2, 3), Fraction(7, 5), Fraction(-3, 2)],
)
@settings(max_examples=40, deadline=None)
def test_convolution_sums_match_each_single_sum(n_max, offsets):
    sums = convolution_sums(offsets, n_max)
    assert len(sums) == n_max + 1
    for m, value in enumerate(sums):
        assert type(value) is Fraction
        assert value == convolution_sum(ConvolutionSpec(m, tuple(offsets)))


def test_convolution_sums_validation():
    with pytest.raises(ValueError):
        convolution_sums((Fraction(0),), -1)
    with pytest.raises(ValueError):
        convolution_sums((), 3)
    with pytest.raises(TypeError):
        convolution_sums((0.5, -0.5), 3)
    with pytest.raises(ValueError):
        convolution_sums((Fraction(0),), Fraction(3))
    assert convolution_sums((0, 0), 0) == [1]


def test_convolution_sums_never_call_the_closed_form_route():
    with mock.patch.object(identities, "binomial", side_effect=AssertionError), \
            mock.patch.object(identities, "closed_form", side_effect=AssertionError):
        sums = convolution_sums((Fraction(1, 2), Fraction(-1, 2), Fraction(0)), 12)
    assert sums == [closed_form(n, 3) for n in range(13)]


@given(n=st.integers(0, 5), offsets=st.lists(rational_offsets, min_size=2, max_size=3))
@settings(max_examples=30, deadline=None)
def test_convolution_sum_is_offset_order_invariant(n, offsets):
    forward = convolution_sum(ConvolutionSpec(n, tuple(offsets)))
    backward = convolution_sum(ConvolutionSpec(n, tuple(reversed(offsets))))
    assert forward == backward


def assert_column_matches_binomials(offset, n):
    column, scale = identities._offset_column(offset, n)
    assert all(type(c) is int for c in column) and len(column) == n + 1
    assert [Fraction(c, scale) for c in column] == [
        binomial(2 * m + offset, m) for m in range(n + 1)
    ]
    if offset.denominator == 1:
        assert scale == 1


@given(offset=rational_offsets, n=st.integers(0, 12))
@example(offset=Fraction(-7, 6), n=12)
@example(offset=Fraction(1, 2), n=0)
@settings(max_examples=60)
def test_offset_column_matches_exactnum_binomial(offset, n):
    assert_column_matches_binomials(offset, n)


def test_offset_column_at_negative_integer_offsets():
    # Offsets down to -2n - 2, so 2m + offset <= 0 for some or all m.
    for offset in range(-20, 0):
        assert_column_matches_binomials(Fraction(offset), 9)


def test_an_off_by_one_offset_column_fails_the_closed_form_checks(monkeypatch):
    exact = identities._offset_column

    def perturbed(offset, n):
        column, scale = exact(offset, n)
        if n >= 2:
            column[2] += 1
        return column, scale

    monkeypatch.setattr(identities, "_offset_column", perturbed)
    assert suites.zero_offset_closed_form_failures(2, 3) != []
    assert not identities.opposite_offsets_check(3, 1)
    assert not identities.opposite_offsets_check(3, Fraction(1, 2))


# ----------------------------------------------------------------- closed form


def test_closed_form_examples():
    assert closed_form(2, 3) == 30
    assert closed_form(2, 1) == 6
    assert closed_form(2, 2) == 16
    assert closed_form(0, 9) == 1
    assert closed_form(3, Fraction(1, 2)) == Fraction(4) ** 3 * binomial(
        Fraction(9, 4), 3
    )


def test_closed_form_matches_zero_offset_sums():
    for t in range(1, 6):
        for n in range(9):
            spec = ConvolutionSpec(n, (Fraction(0),) * t)
            assert convolution_sum(spec) == closed_form(n, t)


def test_two_fold_zero_offset_sum_is_a_power_of_four():
    for n in range(20):
        assert closed_form(n, 2) == 4**n


def test_closed_form_rejects_bad_n():
    with pytest.raises(ValueError):
        closed_form(-1, 2)
    with pytest.raises(ValueError):
        closed_form(Fraction(1, 2), 2)


def test_odd_t_forms():
    for n in range(9):
        for L in range(5):
            assert odd_t_forms(n, L)
    with pytest.raises(ValueError):
        odd_t_forms(-1, 0)
    with pytest.raises(ValueError):
        odd_t_forms(0, -1)


def test_recurrence_examples():
    # S_3(1) = 6 splits as S_1(1) + 4*S_3(0) = 2 + 4.
    assert closed_form(1, 3) == 6
    assert closed_form(1, 1) == 2
    assert recurrence_check(1, 0) == []
    for t in range(1, 5):
        assert recurrence_check(t, 5) == []


def test_recurrence_reports_the_failing_sizes(monkeypatch):
    exact = identities.convolution_sums

    def off_at_three(offsets, n_max):
        sums = exact(offsets, n_max)
        if len(offsets) == 3:
            sums[3] += 1
        return sums

    monkeypatch.setattr(identities, "convolution_sums", off_at_three)
    # S_3(3) is off.  For t = 1 it is the wide sum, read at n = 2 (as
    # S_3(n+1)) and at n = 3 (as 4*S_3(n)); for t = 3 it is the narrow
    # sum, read at n = 2 only.
    assert recurrence_check(1, 5) == [2, 3]
    assert recurrence_check(3, 5) == [2]
    assert recurrence_check(2, 5) == []


def test_recurrence_rejects_bad_arguments():
    with pytest.raises(ValueError):
        recurrence_check(0, 3)
    with pytest.raises(ValueError):
        recurrence_check(2, -1)
    with pytest.raises(ValueError):
        recurrence_check(2, 1.0)


# --------------------------------------------------------- inclusion-exclusion


def test_inclusion_exclusion_terms_by_hand():
    # L=5, p=2: 10 - 12 + 3 = 1.
    assert binomial(5, 2) * binomial(3, 0) == 10
    assert binomial(4, 1) * binomial(3, 1) == 12
    assert binomial(3, 0) * binomial(3, 2) == 3
    assert inclusion_exclusion_sum(5, 2) == 1


def test_inclusion_exclusion_integer_grid():
    for L in range(13):
        for p in range(L + 1):
            assert inclusion_exclusion_sum(L, p) == 1


def test_inclusion_exclusion_rational_and_symbolic():
    assert inclusion_exclusion_sum(Fraction(1, 2), 3) == 1
    assert inclusion_exclusion_sum(Fraction(-7, 3), 4) == 1
    for p in range(9):
        total = inclusion_exclusion_sum(X, p)
        assert isinstance(total, Polynomial)
        assert total == 1
    shifted = inclusion_exclusion_sum(2 * X - Fraction(1, 2), 5)
    assert shifted == 1


def test_inclusion_exclusion_rejects_small_integer_upper_index():
    with pytest.raises(ValueError):
        inclusion_exclusion_sum(3, 5)
    with pytest.raises(ValueError):
        inclusion_exclusion_sum(5, -1)


def test_inclusion_exclusion_reports_disagreeing_rewritings(monkeypatch):
    # At L=5, p=2 only the subset-counting form asks for lower index
    # L-p = 3, so skewing that value makes the two rewritings disagree.
    def skewed(x, k):
        return comb(x, k) + (k == 3)

    monkeypatch.setattr(identities, "comb", skewed)
    with pytest.raises(RewritingMismatchError):
        inclusion_exclusion_sum(5, 2)


def textbook_inclusion_exclusion(L: int, p: int) -> Fraction:
    """The alternating sum term by term over exactnum.binomial; test-only."""
    return sum(
        (-1) ** i * binomial(L - i, p - i) * binomial(L - p, i) for i in range(p + 1)
    )


@given(L=st.integers(0, 60), data=st.data())
@settings(max_examples=60, deadline=None)
def test_integer_inclusion_exclusion_matches_the_textbook_loop(L, data):
    p = data.draw(st.integers(0, L))
    # Integer L, given as an int or as an integral Fraction, never
    # reaches the scalar binomial of the rational route.
    with mock.patch.object(identities, "binomial", side_effect=AssertionError):
        values = [inclusion_exclusion_sum(L, p), inclusion_exclusion_sum(Fraction(L), p)]
        with pytest.raises(ValueError):
            inclusion_exclusion_sum(L, L + 1 + data.draw(st.integers(0, 5)))
    for value in values:
        assert type(value) is Fraction
        assert value == textbook_inclusion_exclusion(L, p)


# -------------------------------------------------------------- offset shifts


def test_opposite_offsets_examples():
    assert opposite_offsets_check(2, 5)
    assert opposite_offsets_check(3, Fraction(1, 3))
    assert opposite_offsets_check(4, 0)
    with pytest.raises(ValueError):
        opposite_offsets_check(-2, 1)


@given(n=st.integers(0, 6), L=rational_offsets)
@settings(max_examples=40, deadline=None)
def test_opposite_offsets_random(n, L):
    assert opposite_offsets_check(n, L)


SHIFT_PARAMETERS = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(3, 2),
    Fraction(-5, 2),
)


def test_shift_invariance_is_constant_in_the_shift():
    assert shift_invariance_poly(0, 7) == 1
    assert shift_invariance_poly(1, 0) == 4
    for n in range(6):
        for a in SHIFT_PARAMETERS:
            poly = shift_invariance_poly(n, a)
            assert poly.is_constant
            assert poly == convolution_sum(ConvolutionSpec(n, (a, Fraction(0))))
    with pytest.raises(ValueError):
        shift_invariance_poly(-1, 0)


def test_delta_formula_examples():
    assert delta_formula_check(1, 0) == []
    assert delta_formula_check(5, 1) == []
    assert delta_formula_check(4, Fraction(3, 2)) == []


def test_delta_formula_all_admissible_small_cases():
    for n in range(1, 5):
        for a in SHIFT_PARAMETERS:
            assert delta_formula_check(n, a) == []


def test_delta_formula_rejects_out_of_range_orders():
    # Size 0 has no difference of order m >= 1 to check.
    with pytest.raises(ValueError):
        delta_formula_check(0, 0)
    with pytest.raises(ValueError):
        delta_formula_check(-3, 0)
    with pytest.raises(ValueError):
        delta_formula_check(2.0, 0)


def test_an_off_by_one_convolution_sum_fails_the_difference_formula(monkeypatch):
    exact = identities.convolution_sum
    monkeypatch.setattr(identities, "convolution_sum", lambda spec: exact(spec) + 1)
    assert delta_formula_check(2, Fraction(1, 2)) == ["bridge"]
    # A broken bridge is reported once per (n, a), not at every (i, m).
    failures = suites.difference_formula_failures(3)
    assert len(failures) == 3 * len(suites.SHIFT_PARAMETERS)
    assert all(failure.endswith(", bridge") for failure in failures)


def test_each_difference_bridge_is_computed_once():
    with mock.patch.object(
        identities, "convolution_sum", wraps=identities.convolution_sum
    ) as counted:
        assert suites.difference_formula_failures(4) == []
    # One bridge, and so one convolution sum, per (n, a) with n >= 1.
    assert counted.call_count == 4 * len(suites.SHIFT_PARAMETERS)
