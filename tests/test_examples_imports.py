"""Every ``repro`` name an example imports still exists.

The examples are not run here (several take minutes); each script is
parsed and every ``from repro... import name`` / ``import repro...`` it
contains, nested ones included, is resolved through :mod:`importlib`.
A deletion in ``src/`` that strands an example then fails this test.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def _repro_imports(path):
    """``(module, name)`` pairs; ``name`` is ``None`` for a bare import."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.name for p in EXAMPLES])
def test_example_imports_resolve(path):
    imports = list(_repro_imports(path))
    assert imports, f"{path.name} imports nothing from repro"
    for module, name in imports:
        imported = importlib.import_module(module)
        if name is not None:
            assert hasattr(imported, name) or importlib.util.find_spec(
                f"{module}.{name}"
            ), f"{path.name}: {module} has no {name!r}"
