"""The package loads its algebraic and analytic layers only on first use:
the bijection commands run without them, and every public name still
resolves through the package and through suites.  The combinatorial,
algebraic and analytic layers load no dataclasses, suites loads it for
Case alone, the one dataclass in the package, and json loads only for
verify --format json."""

import ast
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import binomconv
from binomconv import bijection, cli, configuration, suites

#: The modules that only the identities and series suites need.
LATER_LAYERS = (
    "fractions",
    "decimal",
    "binomconv.exactnum",
    "binomconv.identities",
    "binomconv.series",
    "binomconv.identity_suites",
)

BIJECTION_COMMANDS = (
    ["map", ".A11.b2B2..", "--forward"],
    ["render", "AB"],
    ["enumerate", "ordered", "3"],
    ["verify", "--suite", "bijection", "--n-max", "3", "--format", "text"],
)


def loaded(script: str, watched) -> list[str]:
    """Which of the watched modules a fresh interpreter holds after
    running script.  The interpreter starts without site, and the
    harnesses here import only sys, io and contextlib, so a watched
    module found loaded was loaded by binomconv."""
    script += f"\nimport sys\nprint([m for m in {tuple(watched)!r} if m in sys.modules])\n"
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return ast.literal_eval(done.stdout)


def loaded_after(commands, watched=LATER_LAYERS) -> list[str]:
    """Which of the watched modules a fresh interpreter holds after
    running the commands through cli.main."""
    script = (
        "import contextlib, io, sys\n"
        "from binomconv import cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        if cli.main(argv) != 0:\n"
        "            sys.exit(f'{argv} failed')\n"
    )
    return loaded(script, watched)


def test_bijection_commands_load_only_the_combinatorial_layer():
    assert loaded_after(BIJECTION_COMMANDS) == []


def test_bijection_commands_load_no_json():
    assert loaded_after(BIJECTION_COMMANDS, ["json"]) == []
    json_report = ["verify", "--suite", "bijection", "--n-max", "3", "--format", "json"]
    assert loaded_after([json_report], ["json"]) == ["json"]


@pytest.mark.parametrize("module", ["binomconv.configuration", "binomconv.bijection"])
def test_the_combinatorial_layer_loads_no_dataclasses(module):
    assert loaded(f"import {module}", ["dataclasses"]) == []


@pytest.mark.parametrize(
    "module", ["binomconv.exactnum", "binomconv.identities", "binomconv.series"]
)
def test_the_algebraic_and_analytic_layers_load_no_dataclasses(module):
    assert loaded(f"import {module}", ["dataclasses"]) == []


def test_suites_loads_dataclasses_for_its_case():
    assert loaded("import binomconv.suites", ["dataclasses"]) == ["dataclasses"]


def dataclasses_defined_in(modules) -> list[str]:
    """The dataclasses that the given modules define, by qualified name."""
    return [
        f"{module.__name__}.{name}"
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, type)
        and value.__module__ == module.__name__
        and dataclasses.is_dataclass(value)
    ]


def test_case_is_the_only_dataclass_on_the_bijection_path():
    modules = (configuration, bijection, suites, cli)
    assert dataclasses_defined_in(modules) == ["binomconv.suites.Case"]


def test_case_is_the_only_dataclass_in_the_package():
    modules = [
        importlib.import_module(f"binomconv.{info.name}")
        for info in pkgutil.iter_modules(binomconv.__path__)
    ]
    assert {module.__name__ for module in modules} >= set(LATER_LAYERS[2:])
    found = dataclasses_defined_in([binomconv, *modules])
    assert found == ["binomconv.suites.Case"]


def test_records_are_immutable():
    report = suites.run_cases("bijection", suites.bijection_suite(0))
    records = [configuration.analyze("AB"), report, report.cases[0]]
    for record, field in zip(records, ["towers", "wall_time", "passed"]):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


# The benchmark's tracer (perfbench/tracer.py) wraps each case with
# dataclasses.replace(case, run=...), and it spans Report.to_dict by
# replacing that attribute on the class.  Tier-1 does not collect
# perfbench/, so these two tests pin what the tracer relies on.


def test_every_default_case_is_a_dataclass_the_tracer_can_rewrap():
    for name in suites.SUITE_NAMES:
        cases = getattr(suites, f"{name}_suite")(**suites.DEFAULT_BOUNDS[name])
        assert cases
        assert all(dataclasses.is_dataclass(case) for case in cases), name
    cases = suites.bijection_suite(0)
    for case in (cases[0], cases[-1]):  # a golden case and a sweep
        seen = []

        def spy(**kwargs):
            seen.append(kwargs)
            return case.run(**kwargs)

        report = suites.run_cases("bijection", [dataclasses.replace(case, run=spy)])
        assert seen == [case.kwargs]
        assert report.all_passed
        assert report.cases[0].inputs == case.inputs


def test_report_to_dict_is_a_class_attribute_of_suites():
    assert suites.Report.__module__ == "binomconv.suites"
    assert suites.Report.to_dict is vars(suites.Report)["to_dict"]


def test_identities_suite_loads_the_later_layers():
    command = ["verify", "--suite", "identities", "--n-max", "4", "--t-max", "2"]
    assert loaded_after([command]) == list(LATER_LAYERS)


def test_every_public_name_resolves():
    for name in binomconv.__all__:
        assert getattr(binomconv, name) is not None, name
    namespace = {}
    exec("from binomconv import *", namespace)
    assert set(binomconv.__all__) <= set(namespace)
    assert binomconv.Polynomial is binomconv.exactnum.Polynomial
    assert binomconv.series_pow is binomconv.series.series_pow


def test_suites_resolves_the_identities_and_series_names():
    from binomconv import identity_suites

    assert suites.identities_suite is identity_suites.identities_suite
    assert suites.series_suite is identity_suites.series_suite
    assert suites.power_of_four_failures is identity_suites.power_of_four_failures


@pytest.mark.parametrize("module", [binomconv, suites], ids=["binomconv", "suites"])
@pytest.mark.parametrize("name", ["no_such_name", "__no_such_dunder__"])
def test_an_unknown_name_is_an_attribute_error(module, name):
    with pytest.raises(AttributeError):
        getattr(module, name)
