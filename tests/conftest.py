"""The package's memos, and a fixture that empties them around a test."""

import importlib
import pkgutil

import pytest

import binomconv

#: Every memo of the package: each attribute of a binomconv module that
#: has cache_clear.  The list is found, not kept by hand, so a memo that
#: is added or renamed later is cleared too.
MEMOS = [
    value
    for module in pkgutil.iter_modules(binomconv.__path__, "binomconv.")
    for value in vars(importlib.import_module(module.name)).values()
    if hasattr(value, "cache_clear")
]


@pytest.fixture
def cold_memos():
    """Empty memos before and after the test, so no test sees results
    another one left behind, and a warm memo can neither hide an injected
    fault nor keep its results."""
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()
