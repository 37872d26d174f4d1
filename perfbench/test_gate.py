"""Tests of the benchmark's own gate, counts and tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import gate
import run
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ".A11.b2B2.."
GOLDEN_IMAGE = "BbAbabBaAbA"


def report(cases, **extra) -> bytes:
    return json.dumps({"suite": "series", "cases": cases, "totals": {}, "wall_time": 1.0, **extra}).encode()


def series_cases(failing=()):
    return [{"id": case_id, "pass": case_id not in failing} for case_id in gate.SERIES_CASES]


def test_passing_report_has_no_failures():
    failed, payload, problems = gate.check_cli_report(0, report(series_cases()), ("series",))
    assert (failed, problems) == (0, [])
    assert "wall_time" not in json.loads(payload)


def test_fail_case_counts_as_failed():
    bad = series_cases(failing={"series/power-additivity"})
    assert gate.check_cli_report(0, report(bad), ("series",))[0] == 1
    # The CLI exits 1 when a case fails: then every case of the launch counts.
    assert gate.check_cli_report(1, report(bad), ("series",))[0] == len(gate.SERIES_CASES)


def test_nonzero_exit_timeout_and_garbage_fail_every_case():
    everything = len(gate.SERIES_CASES)
    assert gate.check_cli_report(2, report(series_cases()), ("series",))[0] == everything
    assert gate.check_cli_report(-9, b"", ("series",))[0] == everything
    assert gate.check_cli_report(None, b"", ("series",))[0] == everything
    assert gate.check_cli_report(0, b"Traceback (most recent call last)", ("series",))[0] == everything


def test_case_list_must_be_the_default_one():
    short = series_cases()[:-1]
    assert gate.check_cli_report(0, report(short), ("series",))[0] == len(gate.SERIES_CASES)


def test_payload_ignores_only_timing():
    first = gate.check_cli_report(0, report(series_cases()), ("series",))[1]
    slower = gate.check_cli_report(0, report(series_cases(), wall_time=9.0), ("series",))[1]
    other = gate.check_cli_report(0, report(series_cases(), extra=1), ("series",))[1]
    assert first == slower != other


def test_long_output_known_answers():
    inputs = [GOLDEN, "AB"]
    good = f"{GOLDEN_IMAGE}\t{GOLDEN}\nAB\tAB\n".encode()
    assert gate.check_long_output(0, good, inputs) == (0, [])
    wrong_round_trip = f"{GOLDEN_IMAGE}\t{GOLDEN[::-1]}\nAB\tAB\n".encode()
    assert gate.check_long_output(0, wrong_round_trip, inputs)[0] == 1
    tower_in_image = f"BbAbab1aAbA\t{GOLDEN}\nAB\tAB\n".encode()
    assert gate.check_long_output(0, tower_in_image, inputs)[0] == 1
    too_few_descents = f"BbbbbbBbbbA\t{GOLDEN}\nAB\tAB\n".encode()
    assert gate.check_long_output(0, too_few_descents, inputs)[0] == 1
    assert gate.check_long_output(1, good, inputs)[0] == 2
    assert gate.check_long_output(None, good, inputs)[0] == 2
    assert gate.check_long_output(0, good[:20], inputs)[0] == 2


def test_golden_vector_towers_become_descents():
    assert gate.towers(GOLDEN) == gate.descents(GOLDEN_IMAGE) == 4


def test_exact_sweep_counts():
    counts = gate.expected_counts(("bijection",))
    assert counts["bijection.phi.top_calls"] == 174_762 + 2
    assert counts["bijection.phi_inverse.top_calls"] == 174_762 + 3
    assert counts["configuration.enumerate_ordered.items"] == 87_381
    assert gate.expected_counts(("identities", "series")) == {
        "configuration.enumerate_ordered.items": 87_381
    }
    assert gate.expected_counts(("series",)) == {}


def test_reports_of_one_launch_are_checked_in_suite_order():
    identities = [{"id": case_id, "pass": True} for case_id in gate.IDENTITIES_CASES]
    both = report(identities, suite="identities") + b"\n" + report(series_cases()) + b"\n"
    failed, payload, problems = gate.check_cli_report(0, both, ("identities", "series"))
    assert (failed, problems) == (0, [])
    assert [part["suite"] for part in json.loads(payload)] == ["identities", "series"]
    everything = len(gate.IDENTITIES_CASES) + len(gate.SERIES_CASES)
    assert gate.check_cli_report(0, both, ("series", "identities"))[0] == everything
    assert gate.check_cli_report(0, report(series_cases()), ("identities", "series"))[0] == everything
    assert gate.check_cli_report(0, both + b"{}", ("identities", "series"))[0] == everything
    bad = report(identities, suite="identities") + report(series_cases({"series/wz-certificate"}))
    assert gate.check_cli_report(0, bad, ("identities", "series"))[0] == 1


def test_generated_inputs_are_ordered_and_balanced():
    rng = random.Random(7)
    for n in (0, 1, 5, 64):
        text = run.ordered_string(rng, n)
        assert len(text) == n
        assert re.fullmatch(r"[.aA1]*[.bB2]*", text)
        slots = sum({".": 0, "1": 2, "2": 2}.get(char, 1) for char in text)
        assert slots == n
    assert run.long_inputs(3) == run.long_inputs(3) != run.long_inputs(4)


def test_launch_kills_at_deadline_and_reports_exit_codes():
    run.WORK.mkdir(exist_ok=True)
    env = dict(os.environ)
    slow = run.launch([sys.executable, "-c", "import time; time.sleep(30)"], b"", 0.5, env)
    assert slow.returncode is None and slow.wall_s < 10
    failing = run.launch([sys.executable, "-c", "import sys; sys.exit(3)"], b"", 30.0, env)
    assert failing.returncode == 3 and failing.rss_mb > 0


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert listed == gate.per_layer_units()
    for name in listed:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert gate.metric_name("bijection/exhaustive/n=8") == "bijection.exhaustive.n8"


def test_tracer_separates_top_level_from_recursive_calls():
    tracer = Tracer()
    table = {}

    def countdown(k):
        return 0 if k == 0 else 1 + table["countdown"](k - 1)

    table["countdown"] = tracer.wrap("demo.countdown", countdown, "scope")
    assert table["countdown"](3) == 3
    assert tracer.top["demo.countdown"][0] == 1
    spans = {(fn, parent): calls for (fn, parent, _), (calls, _, _) in tracer.spans.items()}
    assert spans == {("demo.countdown", None): 1, ("demo.countdown", "demo.countdown"): 3}
    total = sum(agg[1] for key, agg in tracer.spans.items() if key[1] is None)
    self_time = sum(agg[2] for agg in tracer.spans.values())
    assert abs(total - self_time) < 1e-6


def test_traced_long_launch_reports_counts(tmp_path):
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--trace-out", str(out), "long"],
        input=f"{GOLDEN}\nAB\n", capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout == f"{GOLDEN_IMAGE}\t{GOLDEN}\nAB\tAB\n"
    trace = json.loads(out.read_text())
    assert trace["missing"] == []
    values = gate.layer_metrics(trace, 0.0)
    for name, expected in gate.expected_counts((), 2).items():
        assert values[name] == expected
    # The golden vector recurses: phi on it, then on its compressed skeleton.
    assert values["bijection.phi.calls"] > values["bijection.phi.top_calls"]
    assert values["exactnum.fraction_ops"] == 0


def test_missing_target_is_listed_not_fatal(monkeypatch):
    import tracer as tracer_module

    monkeypatch.setattr(
        tracer_module, "TARGETS",
        (("demo.gone", "binomconv.no_such_module", "gone", "span"),),
    )
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    tracer = Tracer()
    monkeypatch.setattr(tracer, "_install_json", lambda: None)
    monkeypatch.setattr(tracer, "_count_fraction_ops", lambda: None)
    monkeypatch.setattr(tracer, "_install_cases", lambda: None)
    tracer.install()
    assert tracer.missing == ["demo.gone"]
