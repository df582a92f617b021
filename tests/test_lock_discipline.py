"""Lock discipline of the shared tables, checked on the syntax tree.

The daemon runs one executor thread next to its HTTP handler threads, a
pool worker runs its heartbeat thread next to task execution, and a
``WorkerPool`` may be mapped on and shut down from several threads.  What
those threads share is a handful of tables, each guarded by one lock:

- (a) every write to a shared table sits lexically inside a ``with`` on
  that table's lock.  A write is a subscript store or delete, a rebinding,
  or a call of a mutating method.  A private helper counts as guarded when
  every call to it is (``AMGSetupCache._evict``).  ``__init__`` is exempt:
  no other thread can see the object yet.
- (b) the metrics lock is a leaf: the bodies of ``MetricsRegistry``'s
  ``with self._lock:`` blocks call only builtins and dict methods, and
  take no other lock.  Every other lock's critical section reaches at
  most ``counter_add``/``gauge_set``, so with (b) no lock cycle can form.
"""

import ast
import builtins
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent

#: Method calls that mutate a dict, an ``OrderedDict`` or a deque.
WRITE_METHODS = {
    "pop",
    "popitem",
    "clear",
    "setdefault",
    "move_to_end",
    "update",
    "append",
    "appendleft",
    "popleft",
    "extend",
    "remove",
}

#: (module under src/repro, owning class or None for module state, table,
#: lock).  A class table is ``self.<table>`` guarded by ``self.<lock>``; a
#: module table is the global ``<table>`` guarded by the global ``<lock>``.
TABLES = [
    ("obs/metrics.py", "MetricsRegistry", "_counters", "_lock"),
    ("obs/metrics.py", "MetricsRegistry", "_gauges", "_lock"),
    ("solvers/cache.py", "AMGSetupCache", "_entries", "_lock"),
    ("core/batch.py", None, "_PIPELINE_CACHE", "_PIPELINE_CACHE_LOCK"),
    ("core/pool.py", "WorkerPool", "_workers", "_map_lock"),
    ("serve/registry.py", "ModelRegistry", "_entries", "_lock"),
    ("serve/service.py", "AnalysisService", "_jobs", "_cond"),
    ("serve/service.py", "AnalysisService", "_queue", "_cond"),
]


def _names(node, owned: bool, name: str) -> bool:
    """Whether *node* is ``self.<name>`` (*owned*) or the global *name*."""
    if owned:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == name
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )
    return isinstance(node, ast.Name) and node.id == name


def _writes(node, owned: bool, table: str) -> bool:
    """Whether *node* itself writes *table*."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return _names(node.value, owned, table)
    if isinstance(node, (ast.Attribute, ast.Name)) and isinstance(
        node.ctx, (ast.Store, ast.Del)
    ):
        return _names(node, owned, table)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in WRITE_METHODS and _names(
            node.func.value, owned, table
        )
    return False


def _calls(node, owned: bool) -> str | None:
    """The private helper *node* calls (``self._x()`` or ``_x()``), if any."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if owned and isinstance(func, ast.Attribute) and _names(func, True, func.attr):
        name = func.attr
    elif not owned and isinstance(func, ast.Name):
        name = func.id
    else:
        return None
    return name if name.startswith("_") and not name.startswith("__") else None


def _visit(node, guarded: bool, owned: bool, lock: str, found: list) -> None:
    """Append ``(node, guarded)`` for every node under *node* in its body.

    *guarded* is whether the node sits lexically inside ``with <lock>``.
    A nested function or lambda runs later, outside any ``with`` around it.
    """
    for child in ast.iter_child_nodes(node):
        inner = guarded
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inner = False
        elif isinstance(child, (ast.With, ast.AsyncWith)) and any(
            _names(item.context_expr, owned, lock) for item in child.items
        ):
            found.append((child, guarded))
            for item in child.items:
                _visit(item, guarded, owned, lock, found)
            for statement in child.body:
                found.append((statement, True))
                _visit(statement, True, owned, lock, found)
            continue
        found.append((child, inner))
        _visit(child, inner, owned, lock, found)


def _scope(path: str, owner: str | None) -> list:
    """The functions that can touch the table: the class's methods, or
    every function of the module."""
    tree = ast.parse((ROOT / path).read_text(), path)
    if owner is None:
        nodes = ast.walk(tree)
    else:
        (cls,) = [
            node
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == owner
        ]
        nodes = cls.body
    return [node for node in nodes if isinstance(node, ast.FunctionDef)]


def _unguarded_writes(path: str, owner: str | None, table: str, lock: str):
    """``(writes, unguarded)``: every write's location, and the ones that
    hold no lock, lexically or through guarded helper calls."""
    owned = owner is not None
    functions = [f for f in _scope(path, owner) if f.name != "__init__"]
    bodies = {}
    for function in functions:
        found = []
        _visit(function, False, owned, lock, found)
        bodies[function.name] = found

    # A helper is guarded once every call to it is: start from none and
    # grow, so mutual recursion cannot vouch for itself.
    guarded_helpers: set[str] = set()
    while True:
        sites: dict[str, list[bool]] = {}
        for name, found in bodies.items():
            for node, guarded in found:
                helper = _calls(node, owned)
                if helper in bodies:
                    sites.setdefault(helper, []).append(
                        guarded or name in guarded_helpers
                    )
        grown = {name for name, locked in sites.items() if all(locked)}
        if grown <= guarded_helpers:
            break
        guarded_helpers |= grown

    writes, unguarded = [], []
    for name, found in bodies.items():
        for node, guarded in found:
            if _writes(node, owned, table):
                where = f"{path}:{node.lineno} in {name}"
                writes.append(where)
                if not (guarded or name in guarded_helpers):
                    unguarded.append(where)
    return writes, unguarded


@pytest.mark.parametrize(
    "path, owner, table, lock",
    TABLES,
    ids=[f"{owner or Path(path).stem}.{table}" for path, owner, table, _ in TABLES],
)
def test_shared_table_is_written_under_its_lock(path, owner, table, lock):
    writes, unguarded = _unguarded_writes(path, owner, table, lock)
    assert writes, f"no write to {table} found: is the table list stale?"
    assert unguarded == []


BUILTINS = set(dir(builtins))
DICT_METHODS = set(dir(dict))


def test_metrics_lock_is_a_leaf():
    """Inside the metrics lock: builtins and dict methods only."""
    blocks = [
        node
        for function in _scope("obs/metrics.py", "MetricsRegistry")
        for node in ast.walk(function)
        if isinstance(node, ast.With)
        and any(_names(item.context_expr, True, "_lock") for item in node.items)
    ]
    assert blocks, "MetricsRegistry takes its lock nowhere: is the check stale?"
    found = []
    for block in blocks:
        for statement in block.body:
            for node in ast.walk(statement):
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    found.append(f"line {node.lineno}: nested with")
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name) and func.id in BUILTINS:
                    continue
                if isinstance(func, ast.Attribute) and func.attr in DICT_METHODS:
                    continue
                found.append(f"line {node.lineno}: {ast.unparse(func)}()")
    assert found == []
