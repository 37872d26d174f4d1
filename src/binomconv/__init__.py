"""Exact-arithmetic workbench for central binomial convolution identities.

The package has three layers: a combinatorial one (2-row grid
configurations and the bijection that carries ordered configurations to
tower-free ones, realizing sum-of-products counting as 4^n), an
algebraic one (exact convolution sums, their closed forms, and the
polynomial identities behind them), and an analytic one (truncated
power series for the central binomial and Catalan generating functions,
with derivative, coefficient, and telescoping-certificate checks).

Importing the package loads only the combinatorial layer.  The modules
exactnum, identities and series, and the names taken from them below,
are imported the first time they are looked up (PEP 562), so the
bijection commands never load the algebraic and analytic layers.
"""

import importlib

from .bijection import phi, phi_inverse, tower_configuration
from .configuration import (
    Configuration,
    analyze,
    enumerate_ordered,
    enumerate_tower_free,
    from_subset_pair,
    parse_compact,
    render,
    to_subset_pair,
)

#: The public names of the algebraic and analytic layers, by the module
#: that defines them; each module is imported on first lookup.
_LAZY = {
    "exactnum": ("Polynomial", "Rational", "binomial", "falling_factorial"),
    "identities": ("ConvolutionSpec", "closed_form", "convolution_sum", "convolution_sums"),
    "series": ("TruncatedSeries", "base_series", "series_pow"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "Configuration",
    "ConvolutionSpec",
    "Polynomial",
    "Rational",
    "TruncatedSeries",
    "analyze",
    "base_series",
    "binomial",
    "closed_form",
    "convolution_sum",
    "convolution_sums",
    "enumerate_ordered",
    "enumerate_tower_free",
    "falling_factorial",
    "from_subset_pair",
    "parse_compact",
    "phi",
    "phi_inverse",
    "render",
    "series_pow",
    "to_subset_pair",
    "tower_configuration",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
