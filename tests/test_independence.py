"""Which code a run reaches, as a checked contract.

Three contracts are checked under sys.setprofile.  A sweep reaches the
code it checks only through the entry points it names.  Two routes to
one identity share only the pinned helpers, each with the reason that
sharing it cannot make the routes agree; a shared helper that computes
is pinned only with a mutant of it, from the table of test_mutants,
that fails a default case.  Every public name, and every method and
property of an exported class and of the binomconv classes it inherits
from, is reached by CI's console-script commands or a default suite,
except those pinned with their reason, so the public surface cannot
grow back without a caller.  Those commands and suites are profiled
once per test session.

The profile hook sees Python frames only.  A C builtin that both sides
call (math.comb, the ordered_count oracle), the regular expression that
scans descents, and C wrappers such as functools.lru_cache never
appear, so these tests speak only of Python functions.  A
comprehension's frame is left out: the function that runs it was
called first, so it is counted there, and Python 3.12 inlines list
comprehensions anyway (PEP 709).  Routes are compared by code object,
and named afterwards by their qualified name: co_qualname, or, on
Python 3.10, which lacks it, the __qualname__ of the module-level
function or method that owns the code.
"""

import contextlib
import functools
import io
import sys
from fractions import Fraction
from pathlib import Path

from conftest import MEMOS
from test_mutants import ALGEBRA_MUTANTS

import binomconv
from binomconv import cli, exactnum, identities, series, suites
from binomconv.exactnum import Polynomial

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"

COMPREHENSIONS = {"<genexpr>", "<listcomp>", "<setcomp>", "<dictcomp>"}

#: The default cases that each mutant of test_mutants' algebra table fails.
CAUGHT = {name: failing for name, *_, failing in ALGEBRA_MUTANTS}


def profiled_calls(run) -> set:
    """Each distinct call of a binomconv function while run() runs, as
    (module of the calling frame, module of the function, its code)."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name not in COMPREHENSIONS:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("binomconv."):
                back = frame.f_back
                caller = back.f_globals.get("__name__") if back is not None else None
                seen.add((caller, module, frame.f_code))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return seen


def reached(run) -> set:
    """The binomconv functions that run() reaches, as (module, code)."""
    return {(module, code) for _, module, code in profiled_calls(run)}


def _members(owner) -> dict:
    """The functions that a module or class holds, by attribute name: a
    property's getter, the function of a static or class method, and
    the function that a memo wraps."""
    members = {}
    for name, value in vars(owner).items():
        value = getattr(value, "__func__", getattr(value, "fget", value))
        value = getattr(value, "__wrapped__", value)
        if hasattr(value, "__code__"):
            members[name] = value
    return members


def _qualname(code) -> str:
    """The qualified name of code; co_name for a nested function on 3.10."""
    if hasattr(code, "co_qualname"):
        return code.co_qualname
    for name, module in list(sys.modules.items()):
        if name.startswith("binomconv."):
            owners = [module, *[v for v in vars(module).values() if isinstance(v, type)]]
            for owner in owners:
                for function in _members(owner).values():
                    if function.__code__ is code:
                        return function.__qualname__
    return code.co_name


def names(functions) -> set[str]:
    """module.qualname of each (module, code), without the package."""
    return {f"{module.removeprefix('binomconv.')}.{_qualname(code)}" for module, code in functions}


def test_the_sweep_reaches_the_bijection_only_through_phi_and_phi_inverse():
    failures = []
    calls = profiled_calls(lambda: failures.extend(suites.exhaustive_bijection_failures(4)))
    assert failures == []
    assert {
        code.co_name
        for caller, module, code in calls
        if (caller, module) == ("binomconv.suites", "binomconv.bijection")
    } == {"phi", "phi_inverse"}


# ---------------------------------------------------------------- route pairs


def _zero_offset_sums():
    identities.convolution_sums((0,) * 3, 12)


def _zero_offset_closed_forms():
    for n in range(13):
        identities.closed_form(n, 3)


def test_zero_offset_sums_and_their_closed_form_share_only_input_checks():
    shared = reached(_zero_offset_sums) & reached(_zero_offset_closed_forms)
    assert names(shared) == {
        # Passes an int or a Fraction through as a Fraction: each route's
        # offsets or width, never a term.
        "exactnum.exact_rational",
        # Refuses a bad size; it returns nothing.
        "exactnum.require_count",
    }


def test_miller_power_and_the_binomial_power_series_share_only_storage():
    g = series.base_series("g", 32)
    shared = reached(lambda: series.series_pow(g, 3)) & reached(
        lambda: series.base_series("binomial_power", 32, Fraction(-3, 2))
    )
    assert names(shared) == {
        # Divides a finished series' numerators and denominator by their
        # gcd, the stored normal form: the value is already fixed.
        "exactnum._lowest_terms",
        # Passes the exponent through as a Fraction.
        "exactnum.exact_rational",
    }


def test_miller_power_and_the_exp_log_route_share_storage_and_one_caught_rescaling():
    catalan, r = series.base_series("catalan", 32), Fraction(7, 2)
    shared = reached(lambda: series.series_pow(catalan, r)) & reached(
        lambda: series.series_exp(series.series_log(catalan) * r)
    )
    assert names(shared) == {
        # Store a finished series in lowest terms: the value is fixed.
        "exactnum._IntegerForm._from_integers",
        "exactnum._lowest_terms",
        # Reads the length of the input series.
        "series.TruncatedSeries.order",
        # Brings each route's integers over n!*scale^n to one
        # denominator.  It computes, so a mutant of it must fail a
        # default case: the power route goes through it once and the
        # exp/log route twice, and route-independence fails.
        "exactnum.over_factorial_scales",
    }
    assert "series/route-independence" in CAUGHT[
        "over_factorial_scales in series with entry k scaled by k + 1"
    ]


def test_g_times_a_catalan_power_and_its_binomial_coefficients_share_only_input_checks():
    g, catalan, half = series.base_series("g", 32), series.base_series("catalan", 32), Fraction(1, 2)
    shared = reached(lambda: g * series.series_pow(catalan, half)) & reached(
        lambda: [exactnum.binomial(2 * n + half, n) for n in range(33)]
    )
    # Passes the exponent and each upper index through as a Fraction.
    assert names(shared) == {"exactnum.exact_rational"}


def test_a_power_of_g_and_the_t_fold_closed_form_share_only_input_checks():
    # The two sides of both g^t checks of the series suite.
    g, t = series.base_series("g", 32), Fraction(7, 2)
    shared = reached(lambda: series.series_pow(g, t)) & reached(
        lambda: [identities.closed_form(n, t) for n in range(33)]
    )
    # Passes the exponent and the width through as a Fraction.
    assert names(shared) == {"exactnum.exact_rational"}


def test_the_shifted_polynomial_sum_and_the_unshifted_sums_share_input_checks_and_the_product():
    # The two sides of identities/shift-invariance.
    offsets = suites.SHIFT_PARAMETERS
    shared = reached(
        lambda: [identities.shift_invariance_poly(n, a) for n in range(9) for a in offsets]
    ) & reached(lambda: [identities.convolution_sums((a, 0), 8) for a in offsets])
    assert names(shared) == {
        # Passes the offset through as a Fraction.
        "exactnum.exact_rational",
        # Refuses a bad size; it returns nothing.
        "exactnum.require_count",
        # The integer Cauchy product: every Polynomial product of the
        # shifted sum and every column product of the unshifted sums.
        # It computes, so a mutant of it in every importer must fail the
        # case: the shifted sum stays a constant with the same value,
        # since the mutant's rescaling fixes the constant term, while
        # the unshifted sums move.
        "exactnum.integer_convolution",
    }
    assert "identities/shift-invariance" in CAUGHT[
        "integer_convolution in every importer with entry k scaled by k + 1"
    ]


def test_the_telescoped_sum_and_its_closed_form_share_storage_and_the_product_dispatch():
    sizes = range(18)
    shared = reached(
        lambda: [
            sum((series.certificate_summand(s, i) for i in range(s + 1)), Polynomial())
            for s in sizes
        ]
    ) & reached(lambda: [series._telescoped_closed_form(s) for s in sizes])
    assert names(shared) == {
        # Dispatches a product: by a scalar on the sum's side, where F
        # scales its polynomial binomial, and of two polynomials through
        # integer_convolution on the closed form's side, so the two sides
        # share no arithmetic in it.
        "exactnum.Polynomial.__mul__",
        # Validate and store an input polynomial.
        "exactnum._IntegerForm.__init__",
        "exactnum.scaled_to_integers",
        "exactnum.exact_rational",
        # Store a finished polynomial in its normal form.
        "exactnum._IntegerForm._from_integers",
        "exactnum.Polynomial._normal",
        "exactnum._lowest_terms",
    }
    # A fault in the polynomial binomial moves the sum alone, so the
    # comparison itself sees it.
    for mutant in (
        "the polynomial binomial in series with its variable shifted by 1",
        "_falling_numerators one factor short",
    ):
        assert "series/telescoped-sum" in CAUGHT[mutant]


def _difference_formula_bridge(n, a):
    """The bridge side of identities.delta_formula_check: its entries,
    built by falling_factorial and moved by taylor_shift."""
    a = Fraction(a)
    leads = [exactnum.falling_factorial(Polynomial((k - 1 - a, 1)), k) for k in range(n + 1)]
    tails = [exactnum.falling_factorial(Polynomial((2 * n, 1)), k) for k in range(n + 1)]
    entries = [leads[index] * tails[n - index] for index in range(n + 1)]
    return [entry.taylor_shift(-2 * index) for index, entry in enumerate(entries)]


def test_the_difference_formula_bridge_and_the_unshifted_sums_share_input_checks_and_the_product():
    # The two sides of identities/difference-formula's bridge.
    points = [(n, a) for n in range(1, 7) for a in suites.SHIFT_PARAMETERS]
    shared = reached(lambda: [_difference_formula_bridge(n, a) for n, a in points]) & reached(
        lambda: [identities.convolution_sum((a, 0), n) for n, a in points]
    )
    assert names(shared) == {
        # Passes the offset through as a Fraction.
        "exactnum.exact_rational",
        # Refuses a bad size or length; it returns nothing.
        "exactnum.require_count",
        # The integer Cauchy product: each entry is the product of its
        # two falling factorials, and the unshifted sum is the product of
        # its two columns.  It computes, so a mutant of it in every
        # importer must fail the case.
        "exactnum.integer_convolution",
    }
    assert "identities/difference-formula" in CAUGHT[
        "integer_convolution in every importer with entry k scaled by k + 1"
    ]


# ------------------------------------------------------- the public surface

#: The console-script commands of CI's 3.10 and 3.13 legs, with the exit
#: code each must give.
CI_COMMANDS = (
    ("map .A11.b2B2.. --forward --trace", 0),
    ("map 1.2. --forward --trace", 0),
    ("map BbAbabBaAbA --inverse", 0),
    ("map aBBAaaBbABBBb --inverse --trace", 0),
    ("render .A11.b2B2..", 0),
    ("enumerate ordered 3 --limit 5", 0),
    ("verify --suite bijection --n-max 6", 0),
    ("verify --suite bijection --n-max 6 --format json", 0),
    ("verify --suite identities --n-max 8 --t-max 2", 0),
    ("verify --suite series --order 16", 0),
    ("verify --suite bijection --n-max 11", 2),
    ("verify --suite identities --n-max 0", 2),
    ("enumerate ordered -1", 2),
    ("render AB --mode grid", 2),
    ("verify --suite bijection --n-max 1 --out r.json", 2),
)

#: The public names that no command of CI and no default suite reaches,
#: each with its reason.
UNREACHED = {
    "analyze": "a tracer target only; it goes with Profile once the benchmark "
    "drops its analyze metrics (ROADMAP items 1 and 7)",
}

#: The methods and properties of the exported classes, and of the
#: binomconv classes they inherit from, that no command of CI and no
#: default suite reaches, each with its reason.
UNREACHED_METHODS = {
    "Polynomial.__bool__": "the zero polynomial is falsy",
    "Polynomial.__hash__": "a hash must agree with __eq__",
    "TruncatedSeries.__hash__": "a hash must agree with __eq__, and the benchmark's "
    "tracer hashes series_pow's arguments",
    "Polynomial.__repr__": "formats failure text only",
    "Polynomial.__str__": "formats failure text only",
    "TruncatedSeries.__repr__": "formats failure text only",
    "Polynomial.degree": "formats failure text only",
    "_IntegerForm.coefficients": "formats failure text only",
    "_IntegerForm.__rsub__": "the reflected half of -, kept to match __radd__",
}


def _commands_and_default_suites():
    for command, code in CI_COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            try:
                assert cli.main(command.split()) == code, command
            except SystemExit as refused:  # argparse refuses a usage error
                assert refused.code == code, command
    for name, cases in (
        ("bijection", suites.bijection_suite(4)),
        ("identities", suites.identities_suite(n_max=8, t_max=2)),
        ("series", suites.series_suite(16)),
    ):
        assert all(case.passed for case in suites.run_cases(name, cases).cases), name


@functools.cache
def _reached_by_commands_and_default_suites() -> frozenset:
    """The code of each binomconv function that CI's commands and the
    default suites reach, from cold memos, so that a function that a
    memo stands in front of runs."""
    for memo in MEMOS:
        memo.cache_clear()
    return frozenset(code for _, _, code in profiled_calls(_commands_and_default_suites))


def _own_code(value) -> set:
    """The code of a function, or of each method that a class defines."""
    if not isinstance(value, type):
        return {value.__code__}
    return {function.__code__ for function in _members(value).values()}


def test_the_ci_commands_are_the_workflow_commands():
    workflow = WORKFLOW.read_text()
    for command, _ in CI_COMMANDS:
        assert f"binomconv {command}" in workflow, command


def test_every_public_name_is_reached_by_a_command_or_a_default_suite():
    ran = _reached_by_commands_and_default_suites()
    unreached = {
        name for name in binomconv.__all__ if not _own_code(getattr(binomconv, name)) & ran
    }
    assert unreached == set(UNREACHED)


def test_every_method_of_an_exported_class_is_reached_by_a_command_or_a_default_suite():
    ran = _reached_by_commands_and_default_suites()
    exported = [getattr(binomconv, name) for name in binomconv.__all__]
    classes = {
        cls
        for value in exported
        if isinstance(value, type)
        for cls in value.__mro__
        if cls.__module__.startswith("binomconv.")
    }
    unreached = {
        f"{cls.__name__}.{name}"
        for cls in classes
        for name, function in _members(cls).items()
        if function.__code__ not in ran
    }
    assert unreached == set(UNREACHED_METHODS)
