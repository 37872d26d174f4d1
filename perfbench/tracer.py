"""In-process span tracer for the benchmark's traced runs.

The tracer wraps public functions of the binomconv modules from outside
the package: nothing under src/ changes.  Every wrapped call is one
span.  Spans are aggregated in memory per (function, parent function,
request id) into call count, total time and self time (total minus the
time covered by child spans), and written out once at the end.  The
request id is the verification case id, or the input index on the
long-input workload.

A function is wrapped at every name through which callers look it up:
each binomconv module and class attribute that holds the same object is
replaced, so aliases such as ``bijection.analyze`` or ``__rmul__`` are
covered.  A target that no longer exists is listed as missing instead of
failing the run, so internals may be renamed without editing the
benchmark.
"""

from __future__ import annotations

import dataclasses
import fractions
import importlib
import json
import sys
from collections.abc import Iterator
from time import perf_counter

#: (span name, module, attribute path, kind).  "span" times each call;
#: "scope" also marks the calls made while it is open (phi and
#: phi_inverse, for analyze.per_phi); "distinct" also counts distinct
#: argument tuples; "items" times a generator per item and counts items.
TARGETS = (
    ("configuration.analyze", "binomconv.configuration", "analyze", "span"),
    ("configuration.enumerate_ordered", "binomconv.configuration", "enumerate_ordered", "items"),
    ("configuration.enumerate_tower_free", "binomconv.configuration", "enumerate_tower_free", "items"),
    ("configuration.parse_compact", "binomconv.configuration", "parse_compact", "span"),
    ("bijection.phi", "binomconv.bijection", "phi", "scope"),
    ("bijection.phi_inverse", "binomconv.bijection", "phi_inverse", "scope"),
    ("bijection.phi_section_forward", "binomconv.bijection", "phi_section_forward", "span"),
    ("bijection.phi_section_inverse", "binomconv.bijection", "phi_section_inverse", "span"),
    ("bijection.compress", "binomconv.bijection", "compress", "span"),
    ("bijection.expand", "binomconv.bijection", "expand", "span"),
    ("bijection.decode_pairs", "binomconv.bijection", "decode_pairs", "span"),
    ("identities.convolution_sum", "binomconv.identities", "convolution_sum", "distinct"),
    ("identities.recurrence_check", "binomconv.identities", "recurrence_check", "span"),
    ("identities.inclusion_exclusion_sum", "binomconv.identities", "inclusion_exclusion_sum", "span"),
    ("identities.shift_invariance_poly", "binomconv.identities", "shift_invariance_poly", "span"),
    ("identities.delta_formula_check", "binomconv.identities", "delta_formula_check", "span"),
    ("identities.closed_form", "binomconv.identities", "closed_form", "span"),
    ("series.series_pow", "binomconv.series", "series_pow", "distinct"),
    ("series.series_log", "binomconv.series", "series_log", "span"),
    ("series.series_exp", "binomconv.series", "series_exp", "span"),
    ("series.base_series", "binomconv.series", "base_series", "span"),
    ("series.mul", "binomconv.series", "TruncatedSeries.__mul__", "span"),
    ("series.nth_derivative", "binomconv.series", "nth_derivative", "span"),
    ("series.wz_certificate_check", "binomconv.series", "wz_certificate_check", "span"),
    ("series.telescoped_sum_check", "binomconv.series", "telescoped_sum_check", "span"),
    ("exactnum.poly_mul", "binomconv.exactnum", "Polynomial.__mul__", "span"),
    ("exactnum.binomial", "binomconv.exactnum", "binomial", "span"),
    ("exactnum.falling_factorial", "binomconv.exactnum", "falling_factorial", "span"),
    ("exactnum.finite_difference", "binomconv.exactnum", "finite_difference", "span"),
    ("suites.to_dict", "binomconv.suites", "Report.to_dict", "span"),
)

#: Fraction arithmetic dunders, counted (not timed) for exactnum.fraction_ops.
FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__",
    "__rpow__", "__neg__", "__pos__", "__abs__",
)

NO_REQUEST = "-"


def _resolve(module_name: str, path: str):
    """Import a module and follow a dotted attribute path; None if gone."""
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _owners() -> list:
    """Every binomconv module and every class defined in one."""
    owners = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "binomconv" or name.startswith("binomconv.")):
            continue
        owners.append(module)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                owners.append(value)
    return owners


def _length(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _distinct_key(args: tuple, kwargs: dict):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


class Tracer:
    def __init__(self) -> None:
        self.request = NO_REQUEST
        self.stack: list[list] = []  # open spans: [name, time covered by children]
        self.spans: dict[tuple, list] = {}  # (name, parent, request) -> [calls, total_s, self_s]
        self.depth: dict[str, int] = {}
        self.top: dict[str, list] = {}  # name -> [outermost calls, their total_s, their input length]
        self.scope_open = 0
        self.scoped: dict[str, int] = {}  # name -> calls made while a "scope" span is open
        self.items: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self.fraction_ops = [0]
        self.missing: list[str] = []
        self._dumps = json.dumps  # kept unwrapped for writing the record

    # ------------------------------------------------------------ spans

    def wrap(self, name: str, fn, kind: str = "span"):
        """Return fn wrapped in a span named name."""
        tracer = self
        spans = self.spans
        stack = self.stack
        depth = self.depth
        depth.setdefault(name, 0)
        top = self.top.setdefault(name, [0, 0.0, 0])
        scoped = self.scoped
        scoped.setdefault(name, 0)
        is_scope = kind == "scope"
        distinct = self.distinct.setdefault(name, set()) if kind == "distinct" else None

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            outer = depth[name] == 0
            if tracer.scope_open:
                scoped[name] += 1
            if distinct is not None:
                distinct.add(_distinct_key(args, kwargs))
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            tracer.scope_open += is_scope
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer.scope_open -= is_scope
                depth[name] -= 1
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                key = (name, parent, tracer.request)
                agg = spans.get(key)
                if agg is None:
                    agg = spans[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
                if outer:
                    top[0] += 1
                    top[1] += elapsed
                    if is_scope and args:
                        top[2] += _length(args[0])

        return traced

    def wrap_items(self, name: str, fn):
        """Wrap a function returning an iterable: time the call and each
        next() as spans of one name, and count the items."""
        items = self.items
        items.setdefault(name, 0)
        timed = self.wrap(name, lambda call, *args, **kwargs: call(*args, **kwargs))

        def generate(iterator):
            while True:
                try:
                    item = timed(next, iterator)
                except StopIteration:
                    return
                items[name] += 1
                yield item

        def wrapper(*args, **kwargs):
            result = timed(fn, *args, **kwargs)
            if isinstance(result, Iterator):
                return generate(result)
            items[name] += _length(result)
            return result

        return wrapper

    def case(self, case_id: str, run):
        """Wrap a verification case's run in a span that sets the request id."""
        traced = self.wrap("suites.case", run)

        def wrapper(*args, **kwargs):
            self.request = case_id
            try:
                return traced(*args, **kwargs)
            finally:
                self.request = NO_REQUEST

        return wrapper

    # ------------------------------------------------------- installing

    def replace_everywhere(self, original, wrapper) -> None:
        for owner in _owners():
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapper)

    def install(self, entry_module: str | None = None, entry_attr: str | None = None) -> None:
        """Wrap every target that exists, the suites' case runner and the
        command-line entry point, and count Fraction arithmetic."""
        importlib.import_module("binomconv")
        for name, module, path, kind in TARGETS:
            original = _resolve(module, path)
            if original is None:
                self.missing.append(name)
                continue
            if kind == "items":
                wrapper = self.wrap_items(name, original)
            else:
                wrapper = self.wrap(name, original, kind)
            self.replace_everywhere(original, wrapper)
        self._install_cases()
        if entry_module and entry_attr:
            entry = _resolve(entry_module, entry_attr)
            if entry is None:
                self.missing.append("cli.main")
            else:
                self.replace_everywhere(entry, self.wrap("cli.main", entry))
        self._install_json()
        self._count_fraction_ops()

    def _install_cases(self) -> None:
        run_cases = _resolve("binomconv.suites", "run_cases")
        if run_cases is None:
            self.missing.append("suites.case")
            return
        tracer = self

        def traced_run_cases(suite, cases, *args, **kwargs):
            wrapped = []
            for case in cases:
                if dataclasses.is_dataclass(case) and callable(getattr(case, "run", None)):
                    case = dataclasses.replace(case, run=tracer.case(str(case.id), case.run))
                elif "suites.case" not in tracer.missing:
                    tracer.missing.append("suites.case")
                wrapped.append(case)
            return run_cases(suite, wrapped, *args, **kwargs)

        self.replace_everywhere(run_cases, traced_run_cases)

    def _install_json(self) -> None:
        """Span json.dumps, the other half of serializing the report."""
        json.dumps = self.wrap("cli.json_dumps", json.dumps)

    def _count_fraction_ops(self) -> None:
        counter = self.fraction_ops
        for op in FRACTION_OPS:
            original = fractions.Fraction.__dict__.get(op)
            if original is None:
                continue

            def counted(*args, _original=original):
                counter[0] += 1
                return _original(*args)

            setattr(fractions.Fraction, op, counted)

    # ---------------------------------------------------------- output

    def dump(self, path: str) -> None:
        record = {
            "spans": [
                {"fn": fn, "parent": parent, "request": request,
                 "calls": calls, "total_s": total, "self_s": self_s}
                for (fn, parent, request), (calls, total, self_s) in self.spans.items()
            ],
            "top": {name: {"calls": c, "total_s": t, "columns": n}
                    for name, (c, t, n) in self.top.items()},
            "scoped": self.scoped,
            "items": self.items,
            "distinct": {name: len(keys) for name, keys in self.distinct.items()},
            "fraction_ops": self.fraction_ops[0],
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self._dumps(record))
