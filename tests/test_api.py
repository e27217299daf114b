"""The public API: each name has one import path, the module that defines it."""

import importlib
import inspect

import pytest

import maskrd

MODULES = ("gf2", "masks", "spectra", "response", "montecarlo", "metrics")


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_names_of_its_module(name):
    module = importlib.import_module(f"maskrd.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    # every public function and class defined here is listed
    defined = [n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__]
    assert sorted(set(defined) - set(module.__all__)) == []


def test_package_root_holds_only_its_version_and_submodules():
    for module in MODULES:
        importlib.import_module(f"maskrd.{module}")
    held = [n for n, obj in vars(maskrd).items()
            if not n.startswith("__") and not inspect.ismodule(obj)]
    assert held == []
    assert isinstance(maskrd.__version__, str)
