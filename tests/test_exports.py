"""Every exported name resolves, so a deleted helper cannot leave a stale
export behind: each module's ``__all__`` and the names the package
re-exports at its top level."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import drawdown_ctmc

MODULES = sorted(info.name for info in pkgutil.iter_modules(drawdown_ctmc.__path__))


def package_imports():
    """(module, name) for every name that __init__.py imports from a module."""
    tree = ast.parse(Path(drawdown_ctmc.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"drawdown_ctmc.{name}")
    assert module.__all__, f"{name} declares no exports"
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_names_import():
    pairs = package_imports()
    assert ("models", "levy_bin_mass") in pairs
    for module, name in pairs:
        source = importlib.import_module(f"drawdown_ctmc.{module}")
        assert getattr(drawdown_ctmc, name) is getattr(source, name), name
        assert name in source.__all__, f"{module}.{name} is not in its __all__"
