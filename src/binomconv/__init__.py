"""Exact-arithmetic workbench for central binomial convolution identities.

The package has three layers: a combinatorial one (2-row grid
configurations and the bijection that carries ordered configurations to
tower-free ones, realizing sum-of-products counting as 4^n), an
algebraic one (exact convolution sums, their closed forms, and the
polynomial identities behind them), and an analytic one (truncated
power series for the central binomial and Catalan generating functions,
with derivative, coefficient, and telescoping-certificate checks).

Importing the package loads no submodule.  Every public name is listed
once, in _LAZY, by the module that defines it, and that module is
imported the first time the name (or the module) is looked up
(PEP 562), so the bijection commands never load the algebraic and
analytic layers.
The algebraic layer takes plain offsets, ints or Fractions:
convolution_sums(offsets, n_max) validates them and builds the sums of
sizes 0..n_max, and convolution_sum(offsets, n) reads the one at n.
The algebraic and analytic layers load no dataclasses.
"""

import importlib

#: The public names, by the module that defines them; each module is
#: imported on first lookup.
_LAZY = {
    "bijection": ("phi", "phi_inverse", "tower_configuration"),
    "configuration": (
        "analyze",
        "enumerate_ordered",
        "enumerate_tower_free",
        "parse_compact",
        "render",
    ),
    "exactnum": ("Polynomial", "binomial", "falling_factorial"),
    "identities": ("closed_form", "convolution_sum", "convolution_sums"),
    "series": ("TruncatedSeries", "base_series", "series_pow"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
