"""Which code a run reaches, as a checked contract.

Three contracts are checked under sys.setprofile.  A sweep reaches the
code it checks only through the entry points it names.  Two routes to
one identity share only the pinned helpers, each with the reason that
sharing it cannot make the routes agree.  Every public name is reached
by CI's console-script commands or a default suite, except the names
pinned with their reason, so the public surface cannot grow back
without a caller.

The profile hook sees Python frames only.  A C builtin that both sides
call (math.comb, the ordered_count oracle), the regular expression that
scans descents, and C wrappers such as functools.lru_cache never
appear, so these tests speak only of Python functions.  Routes are
compared by code object, and named afterwards by co_qualname, which
Python 3.10 lacks; there a function is named by its co_name, which
is the same for a module-level function.
"""

import contextlib
import io
import sys
from fractions import Fraction
from pathlib import Path

import binomconv
from binomconv import bijection, cli, identities, series, suites

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"


def profiled_calls(run) -> set:
    """Each distinct call of a binomconv function while run() runs, as
    (module of the calling frame, module of the function, its code)."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
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


def names(functions) -> set[str]:
    """module.qualname of each (module, code), without the package."""
    return {
        f"{module.removeprefix('binomconv.')}.{getattr(code, 'co_qualname', code.co_name)}"
        for module, code in functions
    }


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


# ------------------------------------------------------- the public surface

#: The console-script commands of CI's 3.10 and 3.13 legs, with the exit
#: code each must give.
CI_COMMANDS = (
    ("map .A11.b2B2.. --forward --trace", 0),
    ("map 1.2. --forward --trace", 0),
    ("map BbAbabBaAbA --inverse", 0),
    ("map aBBAaaBbABBBb --inverse --trace", 0),
    ("render .A11.b2B2.. --mode grid", 0),
    ("enumerate ordered 3 --limit 5", 0),
    ("verify --suite bijection --n-max 6", 0),
    ("verify --suite bijection --n-max 6 --format json", 0),
    ("verify --suite identities --n-max 8 --t-max 2", 0),
    ("verify --suite series --order 16", 0),
    ("verify --suite bijection --n-max 11", 2),
    ("verify --suite identities --n-max 0", 2),
    ("enumerate ordered -1", 2),
)

#: The public names that no command of CI and no default suite reaches,
#: each with its reason.
UNREACHED = {
    "analyze": "a tracer target only; it goes with Profile once the benchmark "
    "drops its analyze metrics (ROADMAP items 1 and 7)",
}

MEMOS = (
    bijection._phi_memo,
    bijection._phi_inverse_memo,
    bijection.phi_section_forward,
    bijection.phi_section_inverse,
    series._power,
)


def _commands_and_default_suites():
    for command, code in CI_COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            assert cli.main(command.split()) == code, command
    for name, cases in (
        ("bijection", suites.bijection_suite(4)),
        ("identities", suites.identities_suite(n_max=8, t_max=2)),
        ("series", suites.series_suite(16)),
    ):
        assert all(case.passed for case in suites.run_cases(name, cases).cases), name


def _own_code(value) -> set:
    """The code of a function, or of each method that a class defines."""
    if not isinstance(value, type):
        return {value.__code__}
    members = [getattr(m, "__func__", getattr(m, "fget", m)) for m in vars(value).values()]
    return {member.__code__ for member in members if hasattr(member, "__code__")}


def test_the_ci_commands_are_the_workflow_commands():
    workflow = WORKFLOW.read_text()
    for command, _ in CI_COMMANDS:
        assert f"binomconv {command}" in workflow, command


def test_every_public_name_is_reached_by_a_command_or_a_default_suite():
    # Cold memos, so a function that a memo stands in front of runs.
    for memo in MEMOS:
        memo.cache_clear()
    ran = {code for _, _, code in profiled_calls(_commands_and_default_suites)}
    unreached = {
        name for name in binomconv.__all__ if not _own_code(getattr(binomconv, name)) & ran
    }
    assert unreached == set(UNREACHED)
