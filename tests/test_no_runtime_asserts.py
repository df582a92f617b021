"""Rules every library module keeps, checked on its syntax tree.

``python -O`` strips ``assert`` statements, so a check written as one
vanishes from an optimised run.  Raise ``ValueError`` / ``RuntimeError``
instead.

Time is read only through :mod:`repro.obs` (docs/observability.md,
"Monotonic clocks only"): outside ``src/repro/obs/`` no module calls or
imports a raw clock of :mod:`time` or :mod:`datetime`.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent

TIME_CLOCKS = {
    f"{name}{suffix}"
    for name in ("time", "perf_counter", "monotonic", "process_time")
    for suffix in ("", "_ns")
}
DATETIME_CLOCKS = {"now", "utcnow", "today"}


def library_modules():
    """``(path relative to src/repro, every AST node)`` per module."""
    for path in sorted(ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        yield path.relative_to(ROOT), list(ast.walk(tree))


def test_library_code_has_no_assert():
    found = [
        f"{path}:{node.lineno}"
        for path, nodes in library_modules()
        for node in nodes
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _names_datetime(node) -> bool:
    """``datetime`` or ``<anything>.datetime``: the class, or its module."""
    return (isinstance(node, ast.Name) and node.id == "datetime") or (
        isinstance(node, ast.Attribute) and node.attr == "datetime"
    )


def _time_aliases(nodes) -> set[str]:
    """Names the ``time`` module is bound to by ``import time [as x]``."""
    return {
        alias.asname or alias.name
        for node in nodes
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "time"
    }


def _clock_reads(nodes) -> list:
    """The nodes among one module's *nodes* that reach a raw clock."""
    aliases = _time_aliases(nodes)
    found = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            found += [node for alias in node.names if alias.name in TIME_CLOCKS]
        elif isinstance(node, ast.Attribute):
            value = node.value
            if (
                node.attr in TIME_CLOCKS
                and isinstance(value, ast.Name)
                and value.id in aliases
            ) or (node.attr in DATETIME_CLOCKS and _names_datetime(value)):
                found.append(node)
    return found


def test_library_code_reads_no_clock_outside_obs():
    found = [
        f"{path}:{node.lineno}"
        for path, nodes in library_modules()
        if path.parts[0] != "obs"
        for node in _clock_reads(nodes)
    ]
    assert found == []
