"""Export lists name only what the package defines and imports."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import proxlab

# __main__ is the `python -m proxlab` entry point; it defines nothing to export.
MODULES = sorted(m.name for m in pkgutil.iter_modules(proxlab.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"proxlab.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"proxlab.{name}.__all__ names undefined {missing}"


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse(Path(proxlab.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(proxlab.__all__) == imported | {"__version__"}
    assert len(proxlab.__all__) == len(set(proxlab.__all__))
    assert all(hasattr(proxlab, n) for n in proxlab.__all__)
