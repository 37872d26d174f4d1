"""Correctness gate, tracer self-checks and per-layer metrics.

Everything here is computed without the program's code: known answers
come from the compact strings themselves, from math.comb, and from the
case-id lists of the suites at their default bounds.
"""

from __future__ import annotations

import json
import re
from math import comb

BIJECTION_CASES = (
    "bijection/golden/forward",
    "bijection/golden/skeleton-chain",
    "bijection/golden/inverse-ba",
    "bijection/golden/inverse-BAbA",
    "bijection/golden/inverse-aBBAaaBbABBBb",
    "bijection/golden/fixed-point",
) + tuple(f"bijection/exhaustive/n={n}" for n in range(9))

IDENTITIES_CASES = tuple(
    f"identities/{name}"
    for name in (
        "power-of-four", "enumeration-count", "zero-offset-closed-form",
        "reindexed-offset-pair", "odd-width-forms", "recurrence",
        "opposite-offsets-integer", "opposite-offsets-rational",
        "zero-sum-offsets", "inclusion-exclusion-integer",
        "inclusion-exclusion-polynomial", "shift-invariance",
        "difference-formula",
    )
)

SERIES_CASES = tuple(
    f"series/{name}"
    for name in (
        "route-independence", "catalan-closed-form", "derivative-laws",
        "derivative-identities", "coefficient-identities",
        "power-additivity", "wz-certificate", "telescoped-sum",
    )
)

CASES = {
    "bijection": BIJECTION_CASES,
    "identities": IDENTITIES_CASES,
    "series": SERIES_CASES,
}

_SPACE = re.compile(r"\s*")

#: Keys of a report that hold timings, not verdicts.
TIMING_KEYS = ("wall_time", "timing")

SWEEP_N_MAX = 8
#: Top-level phi calls of the golden cases: forward and fixed-point.
GOLDEN_PHI_CALLS = 2
#: Top-level phi_inverse calls of the golden cases: the three inverse vectors.
GOLDEN_PHI_INVERSE_CALLS = 3


# ---------------------------------------------------------------- verdicts


def check_cli_report(returncode: int | None, stdout: bytes, suites: tuple[str, ...]):
    """Gate one launch that ran `binomconv verify --format json` once per
    suite in `suites`, in that order, printing one report each.

    Returns (failed cases, canonical payload or None, problems).  A
    timeout or crash (returncode None or negative), a non-zero exit, a
    missing or unparsable report or a case list other than the default
    one counts every case of the launch as failed; otherwise each case
    not marked pass fails.
    """
    everything = sum(len(CASES[suite]) for suite in suites)
    if returncode is None:
        return everything, None, ["timed out"]
    if returncode != 0:
        return everything, None, [f"exit code {returncode}"]
    decoder = json.JSONDecoder()
    text = stdout.decode("utf-8", "replace")
    position = 0
    failed: list[str] = []
    canonical = []
    for suite in suites:
        try:
            payload, position = decoder.raw_decode(text, _SPACE.match(text, position).end())
            ids = tuple(case["id"] for case in payload["cases"])
        except (ValueError, KeyError, TypeError) as error:
            return everything, None, [f"unparsable {suite} report: {error!r}"]
        if ids != CASES[suite]:
            return everything, None, [f"case list {list(ids)} is not the default one"]
        failed += [case["id"] for case in payload["cases"] if case.get("pass") is not True]
        canonical.append({k: v for k, v in payload.items() if k not in TIMING_KEYS})
    if text[position:].strip():
        return everything, None, ["output after the last report"]
    return len(failed), json.dumps(canonical), [f"{case_id} failed" for case_id in failed]


def towers(text: str) -> int:
    return sum(1 for char in text if char in "12")


def descents(text: str) -> int:
    return sum(1 for left, right in zip(text, text[1:]) if left in "Bb" and right in "Aa")


def check_long_output(returncode: int | None, stdout: bytes, inputs: list[str]):
    """Gate one long-input launch; returns (failed inputs, problems).

    Each input must come back unchanged from the round trip, and its
    image must use only AaBb, keep the length, and have one descent per
    tower of the input.
    """
    if returncode is None:
        return len(inputs), ["timed out"]
    if returncode != 0:
        return len(inputs), [f"exit code {returncode}"]
    lines = stdout.decode("ascii", "replace").splitlines()
    if len(lines) != len(inputs):
        return len(inputs), [f"{len(lines)} output lines for {len(inputs)} inputs"]
    problems = []
    for index, (text, line) in enumerate(zip(inputs, lines)):
        image, _, back = line.partition("\t")
        if back != text:
            problems.append(f"input {index}: round trip differs")
        elif len(image) != len(text) or set(image) - set("AaBb"):
            problems.append(f"input {index}: image is not tower-free of length {len(text)}")
        elif descents(image) != towers(text):
            problems.append(f"input {index}: {descents(image)} descents for {towers(text)} towers")
    return len(problems), problems


# ------------------------------------------------------------ exact counts


def ordered_count(n: int) -> int:
    return sum(comb(2 * i, i) * comb(2 * (n - i), n - i) for i in range(n + 1))


def expected_counts(suites: tuple[str, ...], inputs: int = 0) -> dict[str, int]:
    """Counts a traced run must reproduce exactly: for a launch that runs
    the verify suites `suites` in one process, or round-trips `inputs`
    long strings."""
    ordered = sum(ordered_count(n) for n in range(SWEEP_N_MAX + 1))
    tower_free = sum(4**n for n in range(SWEEP_N_MAX + 1))
    counts: dict[str, int] = {}
    if "bijection" in suites:
        counts["bijection.phi.top_calls"] = ordered + tower_free + GOLDEN_PHI_CALLS
        counts["bijection.phi_inverse.top_calls"] = ordered + tower_free + GOLDEN_PHI_INVERSE_CALLS
        counts["configuration.enumerate_tower_free.items"] = tower_free
    # The sweep and the identities enumeration-count case each list every
    # ordered configuration up to the default bound once.
    enumerations = ("bijection" in suites) + ("identities" in suites)
    if enumerations:
        counts["configuration.enumerate_ordered.items"] = enumerations * ordered
    if inputs:
        counts["bijection.phi.top_calls"] = inputs
        counts["bijection.phi_inverse.top_calls"] = inputs
        counts["configuration.parse_compact.calls"] = inputs
    return counts


# -------------------------------------------------------- layer metrics


def metric_name(case_id: str) -> str:
    """A case id as a metric-name component: bijection/exhaustive/n=8
    becomes bijection.exhaustive.n8."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", case_id.replace("/", ".").replace("=", ""))


CASE_METRICS = {
    f"suites.case_s.{metric_name(case_id)}": case_id
    for suite in ("bijection", "identities", "series")
    for case_id in CASES[suite]
}

#: Per-layer metrics besides the per-case times: name -> (unit, better).
LAYER_METRICS = {
    "suites.slowest_case_s": ("s", "lower"),
    "suites.report_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "configuration.analyze.calls": ("count", "lower"),
    "configuration.analyze.self_s": ("s", "lower"),
    "configuration.analyze.per_phi": ("ratio", "lower"),
    "configuration.enumerate_ordered.items": ("count", "lower"),
    "configuration.enumerate_ordered.self_s": ("s", "lower"),
    "configuration.enumerate_tower_free.items": ("count", "lower"),
    "configuration.enumerate_tower_free.self_s": ("s", "lower"),
    "configuration.parse_compact.calls": ("count", "lower"),
    "configuration.parse_compact.self_s": ("s", "lower"),
    "bijection.phi.top_calls": ("count", "lower"),
    "bijection.phi.calls": ("count", "lower"),
    "bijection.phi.self_s": ("s", "lower"),
    "bijection.phi.us_per_column": ("us", "lower"),
    "bijection.phi_inverse.top_calls": ("count", "lower"),
    "bijection.phi_inverse.calls": ("count", "lower"),
    "bijection.phi_inverse.self_s": ("s", "lower"),
    "bijection.phi_section_forward.self_s": ("s", "lower"),
    "bijection.phi_section_inverse.self_s": ("s", "lower"),
    "bijection.compress.self_s": ("s", "lower"),
    "bijection.expand.self_s": ("s", "lower"),
    "bijection.decode_pairs.self_s": ("s", "lower"),
    "identities.convolution_sum.calls": ("count", "lower"),
    "identities.convolution_sum.distinct_ratio": ("ratio", "higher"),
    "identities.convolution_sum.self_s": ("s", "lower"),
    "identities.recurrence_check.self_s": ("s", "lower"),
    "identities.inclusion_exclusion_sum.self_s": ("s", "lower"),
    "identities.shift_invariance_poly.self_s": ("s", "lower"),
    "identities.delta_formula_check.self_s": ("s", "lower"),
    "identities.closed_form.self_s": ("s", "lower"),
    "series.series_pow.calls": ("count", "lower"),
    "series.series_pow.distinct_ratio": ("ratio", "higher"),
    "series.series_pow.self_s": ("s", "lower"),
    "series.series_log.self_s": ("s", "lower"),
    "series.series_exp.self_s": ("s", "lower"),
    "series.base_series.calls": ("count", "lower"),
    "series.base_series.self_s": ("s", "lower"),
    "series.mul.calls": ("count", "lower"),
    "series.mul.self_s": ("s", "lower"),
    "series.nth_derivative.self_s": ("s", "lower"),
    "series.wz_certificate_check.self_s": ("s", "lower"),
    "series.telescoped_sum_check.self_s": ("s", "lower"),
    "exactnum.poly_mul.calls": ("count", "lower"),
    "exactnum.poly_mul.self_s": ("s", "lower"),
    "exactnum.binomial.calls": ("count", "lower"),
    "exactnum.binomial.self_s": ("s", "lower"),
    "exactnum.falling_factorial.calls": ("count", "lower"),
    "exactnum.falling_factorial.self_s": ("s", "lower"),
    "exactnum.finite_difference.self_s": ("s", "lower"),
    "exactnum.fraction_ops": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    units = {name: ("s", "lower") for name in CASE_METRICS}
    units.update(LAYER_METRICS)
    return units


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace: dict, overhead_s: float) -> dict[str, float]:
    """Per-layer values from one traced launch's span record.

    A function the tracer found missing reads 0 for every metric.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    case_s: dict[str, float] = {}
    for span in trace["spans"]:
        fn = span["fn"]
        calls[fn] = calls.get(fn, 0) + span["calls"]
        self_s[fn] = self_s.get(fn, 0.0) + span["self_s"]
        if fn == "suites.case":
            case_s[span["request"]] = case_s.get(span["request"], 0.0) + span["total_s"]
    top = trace["top"]

    def top_calls(fn: str) -> int:
        return top.get(fn, {}).get("calls", 0)

    values: dict[str, float] = {}
    for name, case_id in CASE_METRICS.items():
        values[name] = case_s.get(case_id, 0.0)
    phi_top = top_calls("bijection.phi") + top_calls("bijection.phi_inverse")
    phi = top.get("bijection.phi", {})
    total_s = {
        fn: sum(s["total_s"] for s in trace["spans"] if s["fn"] == fn)
        for fn in ("suites.to_dict", "cli.json_dumps")
    }
    special = {
        "suites.slowest_case_s": max(case_s.values(), default=0.0),
        "suites.report_s": total_s["suites.to_dict"] + total_s["cli.json_dumps"],
        "configuration.analyze.per_phi": _ratio(
            trace["scoped"].get("configuration.analyze", 0), phi_top
        ),
        "bijection.phi.us_per_column": _ratio(
            1e6 * phi.get("total_s", 0.0), phi.get("columns", 0)
        ),
        "exactnum.fraction_ops": trace["fraction_ops"],
        "trace.overhead_s": overhead_s,
    }
    for name in LAYER_METRICS:
        if name in special:
            values[name] = special[name]
            continue
        fn, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls.get(fn, 0)
        elif stat == "self_s":
            values[name] = self_s.get(fn, 0.0)
        elif stat == "top_calls":
            values[name] = top_calls(fn)
        elif stat == "items":
            values[name] = trace["items"].get(fn, 0)
        elif stat == "distinct_ratio":
            values[name] = _ratio(trace["distinct"].get(fn, 0), calls.get(fn, 0))
        else:
            raise ValueError(f"no rule for per-layer metric {name}")
    return values


def count_metrics(values: dict[str, float]) -> dict[str, float]:
    """The values that must repeat exactly between traced runs."""
    return {
        name: value
        for name, value in values.items()
        if per_layer_units()[name][0] in ("count", "ratio")
        and not name.startswith("trace.")
    }
