"""Rules every library module keeps, checked on its syntax tree.

``python -O`` strips ``assert`` statements, so a check written as one
vanishes from an optimised run.  Raise ``ValueError`` / ``RuntimeError``
instead.

Time is read only through :mod:`repro.obs` (docs/observability.md,
"Monotonic clocks only"): outside ``src/repro/obs/`` no module calls or
imports a raw clock of :mod:`time` or :mod:`datetime`.

A power grid's columns change only through its mutators
(``pin_pad``/``unpin_pad``/``set_load``), which start its memo over: outside
``src/repro/grid/netlist.py`` no module assigns into, augments or rebinds
``.load_current``, ``.pad_voltage`` or a wire column.  A write anywhere else
would leave a memoised analysis of the old state in place.
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
GRID_COLUMNS = {"load_current", "pad_voltage", "_wire_a", "_wire_b", "_wire_r"}


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


def _targets(node) -> list:
    """The assignment targets of *node*, tuples and starred names unpacked."""
    if isinstance(node, ast.Assign):
        pending = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        pending = [node.target]
    else:
        return []
    targets = []
    while pending:
        target = pending.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            pending += target.elts
        elif isinstance(target, ast.Starred):
            pending.append(target.value)
        else:
            targets.append(target)
    return targets


def _column_writes(nodes) -> list:
    """The nodes among one module's *nodes* that write a grid column."""
    found = []
    for node in nodes:
        for target in _targets(node):
            while isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Attribute) and target.attr in GRID_COLUMNS:
                found.append(node)
    return found


def test_grid_columns_are_written_only_by_the_grid():
    found = [
        f"{path}:{node.lineno}"
        for path, nodes in library_modules()
        if path != Path("grid", "netlist.py")
        for node in _column_writes(nodes)
    ]
    assert found == []
