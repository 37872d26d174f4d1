"""Independence as a checked contract: a sweep reaches the code it
checks only through the entry points it names.

The profile hook of sys.setprofile sees Python frames only.  A C
builtin that both sides call (math.comb, the ordered_count oracle),
the regular expression that scans descents, and C wrappers such as
functools.lru_cache never appear, so these tests speak only of the
Python functions that one Python frame calls.
"""

import sys

from binomconv import suites


def python_calls(caller: str, callee: str, run) -> set[str]:
    """The names of the functions of module callee that a frame of
    module caller calls while run() runs."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__") == callee:
            back = frame.f_back
            if back is not None and back.f_globals.get("__name__") == caller:
                seen.add(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return seen


def test_the_sweep_reaches_the_bijection_only_through_phi_and_phi_inverse():
    failures = []
    reached = python_calls(
        "binomconv.suites",
        "binomconv.bijection",
        lambda: failures.extend(suites.exhaustive_bijection_failures(4)),
    )
    assert failures == []
    assert reached == {"phi", "phi_inverse"}
