"""Exact-arithmetic workbench for central binomial convolution identities.

The package has three layers: a combinatorial one (2-row grid
configurations and the bijection that carries ordered configurations to
tower-free ones, realizing sum-of-products counting as 4^n), an
algebraic one (exact convolution sums, their closed forms, and the
polynomial identities behind them), and an analytic one (truncated
power series for the central binomial and Catalan generating functions,
with derivative, coefficient, and telescoping-certificate checks).
"""

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
from .exactnum import Polynomial, Rational, binomial, falling_factorial
from .identities import ConvolutionSpec, closed_form, convolution_sum, convolution_sums
from .series import TruncatedSeries, base_series, series_pow

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
