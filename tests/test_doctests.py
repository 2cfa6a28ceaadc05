"""The docstring examples of every survcmp module run and hold."""

import doctest
import importlib
import pkgutil

import pytest

import survcmp

MODULES = sorted(f"survcmp.{info.name}" for info in pkgutil.iter_modules(survcmp.__path__))


@pytest.mark.parametrize("name", ["survcmp"] + MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name), optionflags=doctest.ELLIPSIS)
    assert result.failed == 0


def test_examples_are_collected():
    # the count guards against a silent skip of every module
    total = sum(doctest.testmod(importlib.import_module(name)).attempted
                for name in MODULES)
    assert total >= 3
