"""The package loads its algebraic and analytic layers only on first use:
the bijection commands run without them, and every public name still
resolves through the package and through suites."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import binomconv
from binomconv import suites

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
    ["verify", "--suite", "bijection", "--n-max", "3"],
)


def loaded_after(commands) -> list[str]:
    """Which of LATER_LAYERS a fresh interpreter holds after running the
    commands through cli.main."""
    script = (
        "import contextlib, io, json, sys\n"
        "from binomconv import cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        if cli.main(argv) != 0:\n"
        "            sys.exit(f'{argv} failed')\n"
        f"print(json.dumps([m for m in {LATER_LAYERS!r} if m in sys.modules]))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout)


def test_bijection_commands_load_only_the_combinatorial_layer():
    assert loaded_after(BIJECTION_COMMANDS) == []


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
