"""Command-line interface: plumbing, formats, and exit codes."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from binomconv import cli, suites
from binomconv.configuration import parse_compact, render

GOLDEN = ".A11.b2B2.."
GOLDEN_IMAGE = "BbAbabBaAbA"


def run_cli(argv, capsys):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------------ map


def test_map_forward_golden(capsys):
    code, out, err = run_cli(["map", GOLDEN, "--forward"], capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == GOLDEN_IMAGE
    assert lines[1:] == render(parse_compact(GOLDEN_IMAGE), "grid").splitlines()


def test_map_inverse_golden(capsys):
    code, out, _ = run_cli(["map", "BAbA", "--inverse"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "11.."


def test_map_trace(capsys):
    code, out, _ = run_cli(["map", GOLDEN, "--forward", "--trace"], capsys)
    assert code == 0
    assert "tower configuration: aA2." in out
    assert f"image: {GOLDEN_IMAGE}" in out
    assert GOLDEN_IMAGE in out.splitlines()


TRACE_FORWARD = """\
input: .A11.b2B2..
tower configuration: aA2.
  input: aA2.
  tower configuration: B
    fixed point: B
  expanded image: 2.
  section 3..4: variant 2: 2. -> Ba
  image: aABa
expanded image: .11.2..1
section 1..3: variant 1: .A1 -> BbA
section 4..5: variant 1: 1. -> ba
section 7..9: variant 2: 2B. -> BaA
section 10..11: variant 2: .1 -> bA
image: BbAbabBaAbA
BbAbabBaAbA
X.O...X.O.O
.X.XOX.O.X.
"""

TRACE_INVERSE = """\
input: aBBAaaBbABBBb
pair seed: .2.1
  input: ba
  pair seed: 1.
    fixed point: A
  skeleton: 1.
  section 1..2: variant 1: ba -> 1.
  preimage: 1.
skeleton: 11..
section 2..4: variant 1: BBA -> 1A1
section 7..9: variant 1: BbA -> .A.
preimage: a1A1aa.A.BBBb
a1A1aa.A.BBBb
.OOO...O.XXX.
OO.OOO......X
"""


def test_map_trace_full_text(capsys):
    code, out, err = run_cli(["map", GOLDEN, "--forward", "--trace"], capsys)
    assert (code, out, err) == (0, TRACE_FORWARD, "")
    code, out, err = run_cli(["map", "aBBAaaBbABBBb", "--inverse", "--trace"], capsys)
    assert (code, out, err) == (0, TRACE_INVERSE, "")


def test_map_rejects_bad_input(capsys):
    for argv in (
        ["map", "1x", "--forward"],  # alphabet
        ["map", "11", "--forward"],  # balance
        ["map", "BA", "--forward"],  # order
        ["map", "1.", "--inverse"],  # towers in inverse input
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


def test_map_requires_direction(capsys):
    code, _, err = run_cli(["map", "1."], capsys)
    assert code == 2
    assert "required" in err


def test_map_rejects_both_directions(capsys):
    code, _, _ = run_cli(["map", "1.", "--forward", "--inverse"], capsys)
    assert code == 2


# --------------------------------------------------------------------- render


def test_render_defaults_to_grid(capsys):
    code, out, _ = run_cli(["render", "1."], capsys)
    assert code == 0
    assert out == "O.\nO.\n"


def test_render_compact(capsys):
    code, out, _ = run_cli(["render", GOLDEN, "--mode", "compact"], capsys)
    assert code == 0
    assert out.strip() == GOLDEN


def test_render_rejects_bad_configuration(capsys):
    code, _, err = run_cli(["render", "zz"], capsys)
    assert code == 2 and "error:" in err
    code, _, err = run_cli(["render", "1"], capsys)
    assert code == 2


# ------------------------------------------------------------------ enumerate


def test_enumerate_tower_free(capsys):
    code, out, _ = run_cli(["enumerate", "tower-free", "2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 16
    assert lines[0] == "AA"
    assert lines[-1] == "bb"


def test_enumerate_ordered_with_limit(capsys):
    code, out, _ = run_cli(["enumerate", "ordered", "2", "--limit", "3"], capsys)
    assert code == 0
    assert out.splitlines() == ["BB", "2.", "Bb"]


def test_enumerate_limit_zero(capsys):
    code, out, _ = run_cli(["enumerate", "ordered", "4", "--limit", "0"], capsys)
    assert code == 0
    assert out == ""


def test_enumerate_bounds(capsys):
    for n in ("-1", "11"):
        code, _, err = run_cli(["enumerate", "ordered", n], capsys)
        assert code == 2 and err == "error: n must be an integer from 0 to 10\n"
    code, _, err = run_cli(["enumerate", "ordered", "3", "--limit", "-2"], capsys)
    assert code == 2


def test_enumerate_rejects_unknown_kind(capsys):
    code, _, _ = run_cli(["enumerate", "mixed", "2"], capsys)
    assert code == 2


# --------------------------------------------------------------------- verify


def test_verify_bijection_text(capsys):
    code, out, _ = run_cli(["verify", "--suite", "bijection", "--n-max", "3"], capsys)
    assert code == 0
    assert "PASS bijection/golden/forward" in out
    assert "PASS bijection/exhaustive/n=3" in out
    assert "0 failed" in out.splitlines()[-1]


def test_verify_series_json(capsys):
    argv = ["verify", "--suite", "series", "--order", "16", "--format", "json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "series"
    assert payload["totals"]["fail"] == 0
    assert payload["cases"]
    assert all(case["id"].startswith("series/") for case in payload["cases"])
    assert all(case["pass"] for case in payload["cases"])
    assert isinstance(payload["wall_time"], float)


def test_verify_identities_with_bounds(capsys):
    argv = [
        "verify", "--suite", "identities",
        "--n-max", "6", "--t-max", "3", "--seed", "7",
    ]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "0 failed" in out.splitlines()[-1]


def test_verify_all_small(capsys):
    argv = [
        "verify", "--n-max", "3", "--t-max", "3",
        "--order", "16", "--format", "json",
    ]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "all"
    prefixes = {case["id"].split("/")[0] for case in payload["cases"]}
    assert prefixes == {"bijection", "identities", "series"}


def test_verify_json_is_deterministic(capsys):
    argv = [
        "verify", "--suite", "identities",
        "--n-max", "5", "--t-max", "3", "--seed", "3", "--format", "json",
    ]
    first = json.loads(run_cli(argv, capsys)[1])
    second = json.loads(run_cli(argv, capsys)[1])
    first.pop("wall_time")
    second.pop("wall_time")
    assert first == second


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    argv = [
        "verify", "--suite", "series", "--order", "16",
        "--format", "json", "--out", str(target),
    ]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert f"report written to {target}" in out
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["totals"]["fail"] == 0


def test_verify_out_to_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    argv = ["verify", "--suite", "bijection", "--n-max", "1", "--out", str(target)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert not target.exists()


def test_verify_passes_under_python_optimize():
    # python -O strips assert; every suite must still run and pass without it.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for bounds in (
        ["--suite", "series", "--order", "16"],
        ["--suite", "identities", "--n-max", "8", "--t-max", "3"],
        ["--suite", "bijection", "--n-max", "5"],
    ):
        done = subprocess.run(
            [sys.executable, "-O", "-m", "binomconv.cli", "verify", *bounds],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr


def test_verify_rejects_bad_bounds(capsys):
    for n_max in ("-1", "11"):
        code, _, err = run_cli(["verify", "--suite", "bijection", "--n-max", n_max], capsys)
        assert code == 2 and err == "error: n_max must be an integer from 0 to 10\n"
    # The difference formula has nothing to check at n_max = 0.
    for suite in ("identities", "all"):
        code, out, err = run_cli(["verify", "--suite", suite, "--n-max", "0"], capsys)
        assert code == 2 and out == ""
        assert err == "error: n_max must be a positive integer\n"
    code, _, _ = run_cli(
        ["verify", "--suite", "series", "--order", "8"], capsys
    )
    assert code == 2
    code, _, _ = run_cli(["verify", "--suite", "unknown"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "build, bounds, message",
    [
        (suites.bijection_suite, {"n_max": 2.5}, "n_max must be an integer from 0 to 10"),
        (suites.identities_suite, {"n_max": 8.5}, "n_max must be a positive integer"),
        (suites.identities_suite, {"t_max": 2.5}, "t_max must be a positive integer"),
        (suites.series_suite, {"order": 16.5}, "order must be a nonnegative integer"),
    ],
    ids=["bijection-n_max", "identities-n_max", "identities-t_max", "series-order"],
)
def test_a_suite_refuses_a_bound_that_is_not_an_int(build, bounds, message):
    # Refused when the cases are built, not by every case when it runs.
    with pytest.raises(ValueError) as refused:
        build(**bounds)
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "suite, flag",
    [
        ("series", "--n-max"),
        ("series", "--t-max"),
        ("series", "--seed"),
        ("bijection", "--order"),
        ("bijection", "--seed"),
        ("identities", "--order"),
    ],
)
def test_verify_refuses_a_bound_its_suite_does_not_take(suite, flag, capsys):
    code, out, err = run_cli(["verify", "--suite", suite, flag, "3"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and flag in err and suite in err


def test_verify_reports_failures_with_exit_one(monkeypatch, capsys):
    # Exercise the failure path through a synthetic case; the math
    # itself has no failing inputs to offer.
    synthetic = [
        suites.Case("synthetic/broken", str, {"object": 2}, expected="1"),
        suites.Case("synthetic/fine", str, {"object": "x"}, expected="x"),
    ]
    monkeypatch.setattr(suites, "bijection_suite", lambda n_max: synthetic)
    code, out, _ = run_cli(["verify", "--suite", "bijection"], capsys)
    assert code == 1
    assert "FAIL synthetic/broken" in out
    assert "expected: 1" in out
    assert "actual:   2" in out
    assert "PASS synthetic/fine" in out
    assert "1 passed, 1 failed" in out.splitlines()[-1]


def test_verify_reports_raising_case_and_runs_the_rest(monkeypatch, capsys):
    def broken():
        raise ZeroDivisionError("division by zero")

    synthetic = [
        suites.Case("synthetic/first", str, {"object": "x"}, expected="x"),
        suites.Case("synthetic/raises", broken, {}),
        suites.Case("synthetic/last", str, {"object": "y"}, expected="y"),
    ]
    monkeypatch.setattr(suites, "bijection_suite", lambda n_max: synthetic)
    code, out, _ = run_cli(["verify", "--suite", "bijection", "--format", "json"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert [case["id"] for case in payload["cases"]] == [
        "synthetic/first", "synthetic/raises", "synthetic/last",
    ]
    assert [case["pass"] for case in payload["cases"]] == [True, False, True]
    assert payload["cases"][1]["actual"] == "ZeroDivisionError: division by zero"
    assert payload["totals"] == {"pass": 2, "fail": 1}


def nonnegative(name):
    """A case's actual value when its count name is refused below 0."""
    return f"OutOfRangeError: {name} must be a nonnegative integer"


def positive(name):
    """A case's actual value when its count name is refused below 1."""
    return f"OutOfRangeError: {name} must be a positive integer"


@pytest.mark.parametrize(
    "family, bound",
    [
        (suites.wz_certificate_failures, "n_max"),
        (suites.telescoped_sum_failures, "n_max"),
        (suites.shift_invariance_failures, "n_max"),
        (suites.difference_formula_failures, "n_max"),
        (suites.inclusion_exclusion_polynomial_failures, "p_max"),
    ],
)
def test_polynomial_family_with_negative_bound_fails(family, bound):
    # An empty sweep checks nothing, so it must not report a pass.
    report = suites.run_cases("synthetic", [suites.Case("synthetic/empty", family, {bound: -1})])
    (result,) = report.cases
    assert not result.passed
    # The difference formula's sizes start at 1.
    refused = positive if family is suites.difference_formula_failures else nonnegative
    assert result.actual == refused(bound)


@pytest.mark.parametrize(
    "family, kwargs, message",
    [
        pytest.param(family, kwargs, message, id=f"{family.__name__}-{message.split()[1]}")
        for family, kwargs, message in (
            (suites.exhaustive_bijection_failures, {"n": -1},
             "ValueError: n must be an integer from 0 to 10"),
            (suites.power_of_four_failures, {"n_max": -1}, nonnegative("n_max")),
            (suites.enumeration_count_failures, {"n_max": -1}, nonnegative("n_max")),
            (suites.zero_offset_closed_form_failures, {"t_max": 0, "n_max": 2},
             positive("t_max")),
            (suites.zero_offset_closed_form_failures, {"t_max": 2, "n_max": -1},
             nonnegative("n_max")),
            (suites.reindexed_offset_pair_failures, {"n_max": -1}, nonnegative("n_max")),
            (suites.odd_width_failures, {"n_max": -1, "L_max": 2}, nonnegative("n_max")),
            (suites.odd_width_failures, {"n_max": 2, "L_max": -1}, nonnegative("L_max")),
            (suites.recurrence_failures, {"t_max": 0, "n_max": 2}, positive("t_max")),
            (suites.recurrence_failures, {"t_max": 1, "n_max": -1}, nonnegative("n_max")),
            (suites.opposite_offsets_integer_failures, {"n_max": -1},
             nonnegative("n_max")),
            (suites.opposite_offsets_rational_failures, {"n_max": -1, "seed": 0, "samples": 2},
             nonnegative("n_max")),
            (suites.opposite_offsets_rational_failures, {"n_max": 2, "seed": 0, "samples": 0},
             positive("samples")),
            (suites.zero_sum_offsets_failures,
             {"seed": 0, "samples": 0, "t_max": 2, "n_max": 2}, positive("samples")),
            (suites.zero_sum_offsets_failures,
             {"seed": 0, "samples": 2, "t_max": 0, "n_max": 2}, positive("t_max")),
            (suites.zero_sum_offsets_failures,
             {"seed": 0, "samples": 2, "t_max": 2, "n_max": -1}, nonnegative("n_max")),
            (suites.inclusion_exclusion_integer_failures, {"L_max": -1},
             nonnegative("L_max")),
            (suites.derivative_identity_failures, {"order": 16, "n_max": 0},
             positive("n_max")),
            (suites.difference_formula_failures, {"n_max": 0}, positive("n_max")),
        )
    ],
)
def test_family_with_a_bound_below_its_range_fails(family, kwargs, message):
    # A bound that empties the sweep checks nothing, so it must not pass.
    report = suites.run_cases("synthetic", [suites.Case("synthetic/empty", family, kwargs)])
    (result,) = report.cases
    assert not result.passed
    assert result.actual == message


def test_verify_defaults_come_from_the_bounds_table(monkeypatch, capsys):
    built = []

    def record(suite, cases):
        built.extend(cases)
        return suites.Report(suite=suite, cases=(), wall_time=0.0)

    monkeypatch.setattr(suites, "run_cases", record)
    code, _, _ = run_cli(["verify"], capsys)
    assert code == 0
    expected = [
        case
        for name in suites.SUITE_NAMES
        for case in getattr(suites, f"{name}_suite")(**suites.DEFAULT_BOUNDS[name])
    ]
    assert [(c.id, c.inputs) for c in built] == [(c.id, c.inputs) for c in expected]


def test_cases_survive_pickling():
    for name in suites.SUITE_NAMES:
        for case in getattr(suites, f"{name}_suite")(**suites.DEFAULT_BOUNDS[name]):
            copy = pickle.loads(pickle.dumps(case))
            assert (copy.id, copy.kwargs, copy.expected) == (
                case.id, case.kwargs, case.expected
            )
            assert copy.run is case.run


def test_enumerate_into_closed_pipe_exits_two():
    # 4^8 lines are far more than a pipe buffers, so the writer is still
    # writing when the reader goes away after one line.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "binomconv.cli", "enumerate", "ordered", "8"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline().strip()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.stderr.close()
    assert b"Traceback" not in err and b"Error" not in err


def test_main_requires_subcommand(capsys):
    code, _, _ = run_cli([], capsys)
    assert code == 2
