"""``fork-unsafe-closure``: no fork-hostile state in ``parallel_map`` workers.

``repro.core.batch.parallel_map`` ships worker callables to a process
pool.  Two patterns break there:

- a ``lambda`` worker — it drags the whole enclosing frame along and is
  not picklable under the spawn start method;
- a nested worker function whose free variables are bound to
  per-process resources (open file handles, ``threading``/
  ``multiprocessing`` locks, ``Workspace`` scratch buffers) in the
  enclosing scope — those objects are either unpicklable or silently
  duplicated per child.

Module-level functions, ``functools.partial`` over them, and bound
methods are fine: their state is explicit arguments, not captured frame.

A third pattern is legal but wasteful: a worker that reads a **large
module-level ndarray** by name.  Every spawn worker re-creates the
array at import (a private copy per process), so the data bypasses the
zero-copy shared-memory plane (:mod:`repro.core.shm`) that arrays
passed *through the pool* ride automatically.  Such workers are
flagged: pass the array per-item or through the task object instead.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Finding, ModuleSource, Rule
from repro.analysis.rules._util import build_parent_map, call_name, enclosing

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_UNSAFE_LAST_PARTS = {
    "Lock", "RLock", "Semaphore", "BoundedSemaphore", "Event", "Condition",
    "Workspace",
}
#: Pool entry points whose first argument ships to worker processes.
_POOL_ENTRY_POINTS = {"parallel_map", "parallel_map_ex"}
#: numpy constructors whose module-level results are whole data arrays
#: (as opposed to small constants) when read from a pool worker.
_NDARRAY_FACTORIES = {
    "zeros", "ones", "empty", "full", "array", "load", "loadtxt",
    "frombuffer", "arange", "linspace",
}


def _is_ndarray_binding(value: ast.AST) -> str | None:
    """If *value* builds an ndarray via a numpy factory, say which."""
    if not isinstance(value, ast.Call):
        return None
    name = call_name(value)
    if name is None:
        return None
    parts = name.split(".")
    if (
        len(parts) >= 2
        and parts[0] in ("np", "numpy")
        and parts[-1] in _NDARRAY_FACTORIES
    ):
        return name
    return None


def _is_unsafe_binding(value: ast.AST) -> str | None:
    """If *value* constructs fork-hostile state, say what it is."""
    if not isinstance(value, ast.Call):
        return None
    name = call_name(value)
    if name is None:
        return None
    if name == "open":
        return "an open file handle"
    last = name.split(".")[-1]
    if last in _UNSAFE_LAST_PARTS:
        return f"a {last} object"
    return None


def _free_names(fn: ast.AST) -> set[str]:
    """Names loaded in *fn* that it neither binds nor receives."""
    bound: set[str] = set()
    args = fn.args
    for arg in (
        *args.posonlyargs, *args.args, *args.kwonlyargs,
        *( [args.vararg] if args.vararg else [] ),
        *( [args.kwarg] if args.kwarg else [] ),
    ):
        bound.add(arg.arg)
    loaded: set[str] = set()
    for sub in ast.walk(fn):
        if isinstance(sub, ast.Name):
            if isinstance(sub.ctx, ast.Load):
                loaded.add(sub.id)
            else:
                bound.add(sub.id)
        elif isinstance(sub, _FUNCTION_NODES + (ast.ClassDef,)) and sub is not fn:
            bound.add(sub.name)
    return loaded - bound


class ForkUnsafeClosureRule(Rule):
    rule_id = "fork-unsafe-closure"
    title = "fork-unsafe state captured by a parallel_map worker"

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/")

    def check(self, module: ModuleSource) -> list[Finding]:
        parents = build_parent_map(module.tree)
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None or name.split(".")[-1] not in _POOL_ENTRY_POINTS:
                continue
            if not node.args:
                continue
            entry = name.split(".")[-1]
            worker = node.args[0]
            if isinstance(worker, ast.Lambda):
                findings.append(
                    module.finding(
                        self.rule_id,
                        worker,
                        f"lambda passed to {entry} captures the "
                        "enclosing frame and is not picklable under spawn; "
                        "use a module-level function or functools.partial",
                    )
                )
                continue
            if isinstance(worker, ast.Name):
                findings.extend(
                    self._check_nested_worker(module, node, worker, parents)
                )
                findings.extend(
                    self._check_module_arrays(module, worker)
                )
        return findings

    def _check_module_arrays(
        self, module: ModuleSource, worker: ast.Name
    ) -> list[Finding]:
        """Flag workers reading module-level ndarrays by name.

        The array never travels through the pool's payload, so the
        shared-memory transport cannot externalise it — every worker
        process materialises a private copy instead.
        """
        worker_def = next(
            (
                sub
                for sub in ast.walk(module.tree)
                if isinstance(sub, _FUNCTION_NODES) and sub.name == worker.id
            ),
            None,
        )
        if worker_def is None:
            return []
        free = _free_names(worker_def)
        findings: list[Finding] = []
        for stmt in module.tree.body:
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                if not (isinstance(target, ast.Name) and target.id in free):
                    continue
                what = _is_ndarray_binding(stmt.value)
                if what is not None:
                    findings.append(
                        module.finding(
                            self.rule_id,
                            worker_def,
                            f"worker '{worker_def.name}' reads module-level "
                            f"ndarray '{target.id}' ({what}(...)) by value; "
                            "every pool worker materialises a private copy "
                            "that bypasses the shared-memory transport — "
                            "pass it per-item or via the task object",
                        )
                    )
        return findings

    def _check_nested_worker(
        self,
        module: ModuleSource,
        call: ast.Call,
        worker: ast.Name,
        parents: dict[ast.AST, ast.AST],
    ) -> list[Finding]:
        scope = enclosing(call, parents, _FUNCTION_NODES)
        if scope is None:
            return []
        worker_def = next(
            (
                sub
                for sub in ast.walk(scope)
                if isinstance(sub, _FUNCTION_NODES) and sub.name == worker.id
            ),
            None,
        )
        if worker_def is None:
            return []
        free = _free_names(worker_def)
        findings: list[Finding] = []
        for sub in ast.walk(scope):
            if not isinstance(sub, ast.Assign):
                continue
            for target in sub.targets:
                if not (isinstance(target, ast.Name) and target.id in free):
                    continue
                what = _is_unsafe_binding(sub.value)
                if what is not None:
                    findings.append(
                        module.finding(
                            self.rule_id,
                            worker_def,
                            f"worker '{worker_def.name}' closes over "
                            f"'{target.id}' ({what}); pass it per-item or "
                            "construct it inside the worker",
                        )
                    )
        return findings
