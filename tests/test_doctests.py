"""The ``>>>`` examples in the package docstrings run as part of the suite."""

import doctest
import importlib

import pytest

MODULES = ["wsegre"] + [
    f"wsegre.{name}"
    for name in ("bounds", "checks", "chow", "cli", "combinatorics", "jets", "oracles")
]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0
