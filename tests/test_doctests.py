"""Run the examples in the module docstrings."""

import doctest
import importlib

import pytest


@pytest.mark.parametrize(
    "name",
    [
        "perms", "classes", "campaigns", "polynomials", "factoring", "algebraics", "sequences",
        "constructions", "insertion", "tables", "search",
    ],
)
def test_docstring_examples(name):
    module = importlib.import_module("permgrowth." + name)
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
