"""The default suites against named mutants of the code they check.

Each mutant replaces one module-level function with a wrong version
that wraps the real one, and names the exact set of cases that fail
under it.  For the bijection suite, every case id of bijection_suite(5)
fails under at least one mutant, so no case of the suite is vacuous.
The identities and series table pins the failing ids of both default
suites under each of its mutants, and every case id of the two fails
under at least one of them.  The memos are cleared before and after
each mutant, so a warm memo can neither hide a mutant nor keep its
results.
"""

import itertools

import pytest

from binomconv import bijection, configuration, exactnum, identities, series, suites
from binomconv.exactnum import Polynomial

N_MAX = 5

SWAP_DESCENTS = {"ba": "bA", "bA": "ba"}
SWAP_TOWERS = str.maketrans("12", "21")
SWAP_COLORS = str.maketrans("AaBb12", "BbAa21")
EXHAUSTIVE_FROM_2 = {f"exhaustive/n={n}" for n in range(2, N_MAX + 1)}

#: (name, module, function, mutant of the exact function, the cases it
#: fails).  Reversing expand and flipping compress each swap the two
#: pair seeds "1." and ".1" on both sides of the map, so the sweep at
#: n <= 3 sees another bijection and only a golden case tells them apart.
MUTANTS = [
    (
        "decode_pairs reads ba as bA",
        bijection,
        "decode_pairs",
        lambda exact: lambda descents: exact([SWAP_DESCENTS.get(d, d) for d in descents]),
        {"golden/inverse-ba"} | EXHAUSTIVE_FROM_2,
    ),
    (
        "phi_section_inverse with its ends reversed",
        bijection,
        "phi_section_inverse",
        lambda exact: lambda run, variant, ends: exact(run, variant, ends[::-1]),
        {"golden/inverse-ba", "golden/inverse-BAbA", "golden/inverse-aBBAaaBbABBBb"}
        | EXHAUSTIVE_FROM_2,
    ),
    (
        "phi_section_forward with tower colors swapped",
        bijection,
        "phi_section_forward",
        lambda exact: lambda section, variant: exact(section.translate(SWAP_TOWERS), variant),
        {"golden/forward"} | EXHAUSTIVE_FROM_2,
    ),
    (
        "expand reversed",
        bijection,
        "expand",
        lambda exact: lambda compressed: exact(compressed)[::-1],
        {"golden/forward", "golden/inverse-ba", "exhaustive/n=4", "exhaustive/n=5"},
    ),
    (
        "compress with rows flipped",
        bijection,
        "compress",
        lambda exact: lambda skeleton: exact(skeleton).translate(bijection._FLIP),
        {
            "golden/forward",
            "golden/skeleton-chain",
            "golden/inverse-ba",
            "golden/inverse-BAbA",
            "golden/inverse-aBBAaaBbABBBb",
            "exhaustive/n=4",
            "exhaustive/n=5",
        },
    ),
    (
        "the ordered rule with colors swapped",
        bijection,
        "_ordered_width",
        lambda exact: lambda text: exact(text.translate(SWAP_COLORS)),
        {"golden/forward", "golden/inverse-aBBAaaBbABBBb", "golden/fixed-point"}
        | EXHAUSTIVE_FROM_2,
    ),
    (
        "enumerate_ordered drops its first item",
        configuration,
        "enumerate_ordered",
        lambda exact: lambda n: itertools.islice(exact(n), 1, None),
        {f"exhaustive/n={n}" for n in range(N_MAX + 1)},
    ),
]


def _failing_cases() -> set[str]:
    report = suites.run_cases("bijection", suites.bijection_suite(N_MAX))
    return {case.id.removeprefix("bijection/") for case in report.cases if not case.passed}


def test_the_suite_passes_without_a_mutant(cold_memos):
    assert _failing_cases() == set()


@pytest.mark.parametrize(
    "module, function, mutate, failing",
    [mutant[1:] for mutant in MUTANTS],
    ids=[mutant[0] for mutant in MUTANTS],
)
def test_each_mutant_fails_exactly_its_cases(
    module, function, mutate, failing, cold_memos, monkeypatch
):
    monkeypatch.setattr(module, function, mutate(getattr(module, function)))
    assert _failing_cases() == failing


def test_every_case_fails_under_some_mutant():
    ids = {case.id.removeprefix("bijection/") for case in suites.bijection_suite(N_MAX)}
    caught = set().union(*[mutant[-1] for mutant in MUTANTS])
    assert len(ids) == 12
    assert caught == ids


# ------------------------------------------------- identities and series


def scaled_by_index_plus_one(exact):
    def mutant(numerators, scale):
        lifted, den = exact(numerators, scale)
        return [value * (k + 1) for k, value in enumerate(lifted)], den

    return mutant


def polynomial_variable_shifted_by_one(exact):
    def mutant(x, k):
        return exact(x.taylor_shift(1) if isinstance(x, Polynomial) else x, k)

    return mutant


#: The identities cases that build a column at a non-integer offset.
RATIONAL_OFFSET_CASES = {
    "identities/difference-formula",
    "identities/opposite-offsets-rational",
    "identities/shift-invariance",
    "identities/zero-sum-offsets",
}

#: (name, module, function, mutant of the exact function, the identities
#: and series cases it fails).  Each mutant is patched only in the module
#: named, whose own functions look the name up there, so an exactnum name
#: is mutated for one importer at a time.  Integer-offset columns have
#: scale 1 and never reach over_factorial_scales.  The shifted binomial
#: moves both sides of the telescoped sum to x + 1 together, so that
#: comparison still holds; the two certificate cases fail through the
#: clauses that spell x out.  In identities the shifted binomial fails
#: nothing: its polynomial identities hold at every x, so at x + 1 too.
ALGEBRA_MUTANTS = [
    (
        "over_factorial_scales in identities with entry k scaled by k + 1",
        identities,
        "over_factorial_scales",
        scaled_by_index_plus_one,
        RATIONAL_OFFSET_CASES,
    ),
    (
        "over_factorial_scales in series with entry k scaled by k + 1",
        series,
        "over_factorial_scales",
        scaled_by_index_plus_one,
        {
            "series/catalan-closed-form",
            "series/coefficient-identities",
            "series/derivative-identities",
            "series/derivative-laws",
            "series/power-additivity",
            "series/route-independence",
        },
    ),
    (
        "the polynomial binomial in series with its variable shifted by 1",
        series,
        "binomial",
        polynomial_variable_shifted_by_one,
        {"series/telescoped-sum", "series/wz-certificate"},
    ),
    (
        "_offset_column building the column of offset + 1",
        identities,
        "_offset_column",
        lambda exact: lambda offset, n: exact(offset + 1, n),
        RATIONAL_OFFSET_CASES
        | {
            "identities/power-of-four",
            "identities/enumeration-count",
            "identities/zero-offset-closed-form",
            "identities/reindexed-offset-pair",
            "identities/recurrence",
            "identities/opposite-offsets-integer",
        },
    ),
    (
        "closed_form at width t + 1",
        identities,
        "closed_form",
        lambda exact: lambda n, t: exact(n, t + 1),
        {
            "identities/odd-width-forms",
            "identities/zero-offset-closed-form",
            "identities/zero-sum-offsets",
        },
    ),
    (
        "comb in identities with a nonzero lower index raised by 1",
        identities,
        "comb",
        lambda exact: lambda n, k: exact(n, k + 1 if k else k),
        {"identities/inclusion-exclusion-integer", "identities/difference-formula"},
    ),
    (
        "_falling_numerators one factor short",
        exactnum,
        "_falling_numerators",
        lambda exact: lambda x, k: exact(x, k - 1),
        {
            "identities/inclusion-exclusion-polynomial",
            "identities/shift-invariance",
            "identities/difference-formula",
            "series/telescoped-sum",
            "series/wz-certificate",
        },
    ),
]

#: The default cases that no mutant of the table fails.
NOT_YET_CAUGHT: set[str] = set()


def _failing_algebra_cases() -> set[str]:
    failing = set()
    for name in ("identities", "series"):
        report = suites.run_cases(name, getattr(suites, f"{name}_suite")())
        failing |= {case.id for case in report.cases if not case.passed}
    return failing


@pytest.mark.parametrize(
    "module, function, mutate, failing",
    [mutant[1:] for mutant in ALGEBRA_MUTANTS],
    ids=[mutant[0] for mutant in ALGEBRA_MUTANTS],
)
def test_each_algebra_mutant_fails_exactly_its_cases(
    module, function, mutate, failing, cold_memos, monkeypatch
):
    monkeypatch.setattr(module, function, mutate(getattr(module, function)))
    assert _failing_algebra_cases() == failing


def test_the_algebra_cases_not_yet_caught_are_named():
    ids = {
        case.id
        for name in ("identities", "series")
        for case in getattr(suites, f"{name}_suite")()
    }
    caught = set().union(*[mutant[-1] for mutant in ALGEBRA_MUTANTS])
    assert caught <= ids
    assert ids - caught == NOT_YET_CAUGHT
