"""The once-per-process memos of series powers and the
bijection's recursive steps and section rewrites, and the family checks
that build their shared inputs once per call: they recompute nothing,
refuse floats (and a bool section variant) even when warm, leave traces
whole, and let an injected fault through to the verdict."""

from fractions import Fraction

import pytest

from binomconv import bijection, cli, exactnum, identities, series, suites

HALF = Fraction(1, 2)


def test_floats_are_refused_after_the_memo_is_warm(cold_memos):
    assert series.derivative_identity_check("gt", HALF, 1, order=32) == []
    assert series.coefficient_identity_check("gC", HALF, order=24)
    # 0.5 == Fraction(1, 2) and both hash alike: only validation before
    # the lookup keeps the cached powers from answering a float.
    with pytest.raises(TypeError):
        series.derivative_identity_check("gt", 0.5, 1, order=32)
    with pytest.raises(TypeError):
        series.coefficient_identity_check("gC", 0.5, order=24)
    # The same holds for a float order equal to a cached one.
    with pytest.raises(ValueError):
        series.derivative_identity_check("gt", HALF, 1, order=32.0)
    with pytest.raises(ValueError):
        series.coefficient_identity_check("gC", HALF, order=24.0)


def test_suite_powers_and_certificate_indices_refuse_floats_when_warm(cold_memos):
    g_cubed = series.series_pow(series.base_series("g", 32), 3)
    assert series.base_power("g", 32, 3) == g_cubed
    with pytest.raises(TypeError):
        series.base_power("g", 32, 3.0)
    with pytest.raises(ValueError):
        series.base_power("g", 32.0, 3)
    with pytest.raises(exactnum.OutOfRangeError):
        series.certificate_summand(2, 1.0)
    with pytest.raises(exactnum.OutOfRangeError):
        series.certificate_multiplier(2.0, 1)


@pytest.mark.parametrize("variant", [True, 1.0])
def test_section_rewrites_refuse_a_bool_or_float_variant_when_warm(cold_memos, variant):
    # True == 1.0 == 1 and all three hash alike: only typed memos and a
    # type check keep a warm variant-1 entry from answering them.
    run = bijection.phi_section_forward("1A.", 1)
    assert bijection.phi_section_inverse(run, 1, "1.") == "1A."
    for rewrite in (
        lambda: bijection.phi_section_forward("1A.", variant),
        lambda: bijection.phi_section_inverse(run, variant, "1."),
    ):
        with pytest.raises(ValueError) as refused:
            rewrite()
        assert str(refused.value) == f"variant must be 1 or 2, got {variant!r}"


def test_a_perturbed_series_power_fails_the_series_checks(cold_memos, monkeypatch):
    exact = series.series_pow

    def perturbed(f, r):
        coefficients = list(exact(f, r).coefficients)
        coefficients[5] += 1
        return series.TruncatedSeries(coefficients)

    monkeypatch.setattr(series, "series_pow", perturbed)
    assert series.derivative_identity_check("gt", HALF, 1, order=32) == [1]
    assert not series.coefficient_identity_check("gC", HALF, order=24)


def test_a_perturbed_catalan_power_fails_the_derivative_identities(
    cold_memos, monkeypatch
):
    exact = series._power

    def perturbed(kind, order, r):
        power = exact(kind, order, r)
        if kind != "catalan":
            return power
        coefficients = list(power.coefficients)
        coefficients[5] += 1
        return series.TruncatedSeries(coefficients)

    # Each check builds its g*C^b from the perturbed powers.
    monkeypatch.setattr(series, "_power", perturbed)
    failures = suites.derivative_identity_failures(32, 3)
    assert any(failure.startswith("gC,") for failure in failures)
    assert any(failure.startswith("C,") for failure in failures)


def count_calls(monkeypatch, module, name) -> list[tuple]:
    """Record the arguments of every call of module.name."""
    calls = []
    exact = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_series_power_is_computed_once(cold_memos, monkeypatch):
    calls = count_calls(monkeypatch, series, "series_pow")
    assert suites.derivative_identity_failures(32, 5) == []
    assert calls
    assert len(calls) == len(set(calls))


def test_each_series_power_of_the_series_suite_is_computed_once(
    cold_memos, monkeypatch
):
    calls = count_calls(monkeypatch, series, "series_pow")
    assert suites.run_cases("series", suites.series_suite(32)).all_passed
    assert calls
    assert len(calls) == len(set(calls))


def test_a_perturbed_binomial_fails_the_certificate_checks(cold_memos, monkeypatch):
    exact = series.binomial
    monkeypatch.setattr(series, "binomial", lambda x, k: exact(x, k) + int(k == 2))
    assert suites.wz_certificate_failures(4) != []
    assert suites.telescoped_sum_failures(4) != []


def test_each_offset_column_is_built_once_per_call(monkeypatch):
    calls = count_calls(monkeypatch, identities, "_offset_column")
    assert identities.convolution_sum((0,) * 5, 6) == identities.closed_form(6, 5)
    assert calls == [(Fraction(0), 6)]


def test_each_sweep_builds_one_truncated_product_per_offset_vector(monkeypatch):
    calls = count_calls(monkeypatch, identities, "convolution_sums")
    zeros = (Fraction(0),) * 3
    assert suites.power_of_four_failures(12) == []
    assert suites.reindexed_offset_pair_failures(12) == []
    assert suites.zero_offset_closed_form_failures(3, 12) == []
    assert suites.shift_invariance_failures(12) == []
    assert calls == [
        (zeros[:2], 12),
        ((Fraction(1), Fraction(-1)), 12),
        (zeros[:1], 12),
        (zeros[:2], 12),
        (zeros, 12),
        *(((a, 0), 12) for a in suites.SHIFT_PARAMETERS),
    ]


def test_each_inner_bijection_step_is_computed_once(cold_memos, monkeypatch):
    forward = count_calls(monkeypatch, bijection, "_phi")
    inverse = count_calls(monkeypatch, bijection, "_phi_inverse")
    assert suites.exhaustive_bijection_failures(6) == []
    for calls in (forward, inverse):
        # Depth 0 is the public call; every deeper call is a recursive step.
        inner = [text for text, _, depth in calls if depth > 0]
        assert inner
        assert len(inner) == len(set(inner))


MAP_TRACES = (
    ["map", ".A11.b2B2..", "--forward", "--trace"],
    ["map", "BbAbabBaAbA", "--inverse", "--trace"],
    ["map", "aBBAaaBbABBBb", "--inverse", "--trace"],
)


def map_traces(capsys) -> list[str]:
    texts = []
    for argv in MAP_TRACES:
        assert cli.main(argv) == 0
        texts.append(capsys.readouterr().out)
    return texts


def test_traces_keep_every_level_after_warm_memos(cold_memos, capsys):
    cold = map_traces(capsys)
    for text in cold:
        # A whole trace records the recursion down to its fixed point.
        assert "fixed point: " in text
    assert suites.exhaustive_bijection_failures(6) == []
    for argv in MAP_TRACES:
        assert cli.main(argv[:-1]) == 0  # the same maps, untraced
    capsys.readouterr()
    assert map_traces(capsys) == cold


def test_a_perturbed_section_rewrite_fails_the_sweep(cold_memos, monkeypatch):
    exact = bijection.phi_section_forward
    swap_towers = str.maketrans("12", "21")
    # Every section is rewritten as if its tower had the other color.
    monkeypatch.setattr(
        bijection,
        "phi_section_forward",
        lambda section, variant: exact(section.translate(swap_towers), variant),
    )
    assert suites.exhaustive_bijection_failures(4) != []
