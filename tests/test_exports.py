"""Export lists name only what each module defines, and the package re-exports them."""
import importlib
import pkgutil

import pytest

import proxlab

# __main__ is the `python -m proxlab` entry point; it defines nothing to export.
MODULES = sorted(m.name for m in pkgutil.iter_modules(proxlab.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"proxlab.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"proxlab.{name}.__all__ names undefined {missing}"


# The modules whose export lists the package re-exports, in order.
REEXPORTED = ("core", "scalar_ops", "rowl", "erowl", "transform", "solver", "experiments")


def test_package_reexports_each_module_list_once():
    modules = [importlib.import_module(f"proxlab.{name}") for name in REEXPORTED]
    assert proxlab.__all__ == [n for m in modules for n in m.__all__] + ["__version__"]
    assert len(proxlab.__all__) == len(set(proxlab.__all__))
    for module in modules:
        for name in module.__all__:
            assert getattr(proxlab, name) is getattr(module, name), name
