"""Acceptance gate: the eight headline checks at their full pinned bounds.

Each criterion runs its cases, by id, from the suites' default case
lists, prints one [criterion k] PASS/FAIL line (visible under pytest -s)
and then asserts; every default case belongs to exactly one criterion.
The bounds are the contract: test_contract_bounds states them once and
holds the bounds table and every default case to them.  The other test
modules cover the same code at unit granularity.
"""

from binomconv import suites

DEFAULT_CASES = {
    case.id: case
    for name in suites.SUITE_NAMES
    for case in getattr(suites, f"{name}_suite")()
}

GOLDEN_IDS = [
    "bijection/golden/forward",
    "bijection/golden/skeleton-chain",
    "bijection/golden/inverse-ba",
    "bijection/golden/inverse-BAbA",
    "bijection/golden/inverse-aBBAaaBbABBBb",
    "bijection/golden/fixed-point",
]
EXHAUSTIVE_IDS = [f"bijection/exhaustive/n={n}" for n in range(9)]


def test_contract_bounds():
    assert suites.DEFAULT_BOUNDS == {
        "bijection": {"n_max": 8},
        "identities": {"n_max": 64, "t_max": 8, "seed": 0},
        "series": {"order": 64},
    }
    # id: (keyword arguments, expected value of an exact case)
    contract = {
        "bijection/golden/forward": ({"config": ".A11.b2B2.."}, "BbAbabBaAbA"),
        "bijection/golden/skeleton-chain": (
            {"config": ".A11.b2B2.."}, ".11.22.. -> aA2. -> B"
        ),
        "bijection/golden/inverse-ba": ({"config": "ba"}, "1."),
        "bijection/golden/inverse-BAbA": ({"config": "BAbA"}, "11.."),
        "bijection/golden/inverse-aBBAaaBbABBBb": (
            {"config": "aBBAaaBbABBBb"}, "a1A1aa.A.BBBb"
        ),
        "bijection/golden/fixed-point": ({"config": "AB"}, "AB"),
        **{case_id: ({"n": n}, None) for n, case_id in enumerate(EXHAUSTIVE_IDS)},
        "identities/power-of-four": ({"n_max": 64}, None),
        "identities/enumeration-count": ({"n_max": 8}, None),
        "identities/zero-offset-closed-form": ({"t_max": 8, "n_max": 32}, None),
        "identities/reindexed-offset-pair": ({"n_max": 16}, None),
        "identities/odd-width-forms": ({"n_max": 12, "L_max": 6}, None),
        "identities/recurrence": ({"t_max": 6, "n_max": 16}, None),
        "identities/opposite-offsets-integer": ({"n_max": 16}, None),
        "identities/opposite-offsets-rational": (
            {"n_max": 16, "seed": 0, "samples": 20}, None
        ),
        "identities/zero-sum-offsets": (
            {"samples": 100, "t_max": 5, "n_max": 12, "seed": 0}, None
        ),
        "identities/inclusion-exclusion-integer": ({"L_max": 30}, None),
        "identities/inclusion-exclusion-polynomial": ({"p_max": 12}, None),
        "identities/shift-invariance": ({"n_max": 8}, None),
        "identities/difference-formula": ({"n_max": 6}, None),
        "series/route-independence": ({"order": 64}, None),
        "series/catalan-closed-form": ({"order": 64}, None),
        "series/derivative-laws": ({"order": 64}, None),
        "series/derivative-identities": ({"order": 64, "n_max": 5}, None),
        "series/coefficient-identities": ({"order": 64}, None),
        "series/power-additivity": ({"order": 64}, None),
        "series/wz-certificate": ({"n_max": 16}, None),
        "series/telescoped-sum": ({"n_max": 16}, None),
    }
    actual = {
        case_id: (case.kwargs, case.expected) for case_id, case in DEFAULT_CASES.items()
    }
    assert actual == contract


CRITERIA = {
    1: ("golden forward/chain/inverse vectors match exactly", GOLDEN_IDS),
    2: ("bijection exhaustive for n <= 8, both directions", EXHAUSTIVE_IDS),
    3: (
        "two-fold zero-offset sums equal 4^n (n <= 64) and match counts",
        ["identities/power-of-four", "identities/enumeration-count"],
    ),
    4: (
        "closed form (t <= 8, n <= 32), odd-width forms, recurrence",
        [
            "identities/zero-offset-closed-form",
            "identities/odd-width-forms",
            "identities/recurrence",
        ],
    ),
    5: (
        "opposite, reindexed and zero-sum offsets and inclusion-exclusion sums",
        [
            "identities/reindexed-offset-pair",
            "identities/opposite-offsets-integer",
            "identities/opposite-offsets-rational",
            "identities/zero-sum-offsets",
            "identities/inclusion-exclusion-integer",
            "identities/inclusion-exclusion-polynomial",
        ],
    ),
    6: (
        "shift-invariance polynomials constant, difference formula symbolic",
        ["identities/shift-invariance", "identities/difference-formula"],
    ),
    7: (
        "series routes, coefficient and derivative identities at order 64",
        [
            "series/route-independence",
            "series/catalan-closed-form",
            "series/coefficient-identities",
            "series/derivative-identities",
            "series/derivative-laws",
            "series/power-additivity",
        ],
    ),
    8: (
        "telescoping certificate and telescoped sums for n <= 16",
        ["series/wz-certificate", "series/telescoped-sum"],
    ),
}


def test_every_default_case_in_exactly_one_criterion():
    assigned = sorted(
        case_id for _, case_ids in CRITERIA.values() for case_id in case_ids
    )
    assert assigned == sorted(DEFAULT_CASES)


def check(number: int) -> None:
    description, case_ids = CRITERIA[number]
    result = suites.run_cases(
        f"criterion {number}", [DEFAULT_CASES[case_id] for case_id in case_ids]
    )
    failed = [(c.id, c.actual) for c in result.cases if not c.passed]
    mark = "PASS" if result.all_passed else "FAIL"
    print(f"[criterion {number}] {mark} - {description}")
    assert result.all_passed, failed[:5]


def test_criterion_1_golden_vectors():
    check(1)


def test_criterion_2_exhaustive_bijection():
    check(2)


def test_criterion_3_power_of_four():
    check(3)


def test_criterion_4_zero_offset_closed_form():
    check(4)


def test_criterion_5_offset_variations():
    check(5)


def test_criterion_6_symbolic_shift():
    check(6)


def test_criterion_7_series_identities():
    check(7)


def test_criterion_8_certificate():
    check(8)
