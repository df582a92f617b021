"""Library code raises on bad input; it never asserts.

``python -O`` strips ``assert`` statements, so a check written as one
vanishes from an optimised run.  Raise ``ValueError`` / ``RuntimeError``
instead.
"""

import ast
from pathlib import Path

import repro


def test_library_code_has_no_assert():
    root = Path(repro.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
