"""The public names the package and its modules export all resolve."""

import importlib
import pkgutil

import pytest

import hyperfill

# hyperfill.__main__ runs the command line when imported
MODULES = ["hyperfill"] + sorted(
    "hyperfill." + m.name for m in pkgutil.iter_modules(hyperfill.__path__)
    if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []

