"""Every exported name resolves: each module's ``__all__`` and the names the
package ``__init__`` re-exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mmtc_outage

MODULES = sorted(info.name for info in pkgutil.iter_modules(mmtc_outage.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"mmtc_outage.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(mmtc_outage.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"mmtc_outage.{node.module}")
        for alias in node.names:
            assert hasattr(mmtc_outage, alias.name), alias.name
            assert alias.name in module.__all__, (node.module, alias.name)
