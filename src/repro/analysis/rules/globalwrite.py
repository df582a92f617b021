"""``unlocked-global-write``: module state is written under a lock.

Every function in ``src/`` can run beside another thread: pool workers
run the heartbeat thread next to the task, the pool parent runs the
supervisor beside its callers, and the serving daemon runs one thread
per connection.  So the rule is applied to the whole tree rather than
to what some entry point reaches.  A function may not

- rebind a module global (``global X`` then ``X = ...``), or
- mutate a module-level container in place (``X[k] = v``,
  ``del X[k]``, ``X.update(...)``)

outside a ``with <lock>:`` block.  Module-level statements are exempt
(imports run once, under the import lock), and so is a name the
function binds itself without declaring it ``global``.

Lock detection is lexical: a write inside a ``with`` statement whose
context expression mentions a name containing ``lock`` (any case) is
considered guarded.  That is deliberately generous — the rule exists to
catch *missing* locking, not to audit lock correctness (the runtime
race sanitizer, :mod:`repro.analysis.racecheck`, covers that half).
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Finding, ModuleSource, Rule
from repro.analysis.rules._util import build_parent_map, call_name, enclosing

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
#: Container constructors whose module-level instances count as shared
#: mutable state.
_CONTAINER_CALLS = {
    "dict", "list", "set", "OrderedDict", "defaultdict", "deque",
    "collections.OrderedDict", "collections.defaultdict",
    "collections.deque",
}
#: Method names that mutate a container in place.
_MUTATING_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "appendleft", "extendleft",
    "move_to_end",
}


def _module_containers(tree: ast.Module) -> set[str]:
    """Module-level names bound to mutable containers."""
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        is_container = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
            isinstance(value, ast.Call)
            and (call_name(value) or "") in _CONTAINER_CALLS
        )
        if is_container:
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _under_lock(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> bool:
    """True when *node* sits inside a ``with <...lock...>:`` block."""
    current = parents.get(node)
    while current is not None and not isinstance(current, _FUNCTION_NODES):
        if isinstance(current, (ast.With, ast.AsyncWith)) and any(
            "lock" in ast.dump(item.context_expr).lower()
            for item in current.items
        ):
            return True
        current = parents.get(current)
    return False


def _local_names(func: ast.AST, declared_global: set[str]) -> set[str]:
    """Names *func* (or a function nested in it) binds for itself."""
    bound: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
    return bound - declared_global


class UnlockedGlobalWriteRule(Rule):
    rule_id = "unlocked-global-write"
    title = "module global written without holding a lock"

    def check(self, module: ModuleSource) -> list[Finding]:
        containers = _module_containers(module.tree)
        parents = build_parent_map(module.tree)
        findings: list[Finding] = []
        for func in ast.walk(module.tree):
            # outermost functions and methods; nested ones ride along
            if isinstance(func, _FUNCTION_NODES) and not enclosing(
                func, parents, _FUNCTION_NODES
            ):
                findings.extend(
                    self._check_function(module, func, containers, parents)
                )
        return findings

    def _check_function(
        self,
        module: ModuleSource,
        func: ast.AST,
        containers: set[str],
        parents: dict[ast.AST, ast.AST],
    ) -> list[Finding]:
        declared_global = {
            name
            for node in ast.walk(func)
            if isinstance(node, ast.Global)
            for name in node.names
        }
        shared = containers - _local_names(func, declared_global)
        findings: list[Finding] = []

        def flag(node: ast.AST, what: str) -> None:
            if not _under_lock(node, parents):
                findings.append(
                    module.finding(
                        self.rule_id,
                        node,
                        f"'{func.name}' {what} without holding a lock; "
                        "another thread (pool heartbeat/supervisor, serve "
                        "handler) can interleave with the write",
                    )
                )

        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in shared
            ):
                flag(
                    node,
                    f"mutates module-level container '{node.func.value.id}' "
                    f"via .{node.func.attr}()",
                )
                continue
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id in declared_global:
                    flag(node, f"rebinds module global '{target.id}'")
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in shared
                ):
                    flag(
                        node,
                        "writes module-level container "
                        f"'{target.value.id}'",
                    )
        return findings
