"""``metrics-contract``: emit-site names must exist in the registry.

``counter_add("amg_setup_cache.hit")`` — note the missing ``s`` — is
valid Python, runs fine, and feeds a dashboard series nobody reads
while the real ``amg_setup_cache.hits`` flatlines.  This rule resolves
every metric/span name *literal* in ``src/`` against the declared
contract in :mod:`repro.obs.registry` at lint time, so the typo is a
strict CI failure instead of a silent observability hole.

Covered call shapes:

- ``counter_add("name")`` / ``gauge_set("name", v)`` — plain literals;
- ``counter_add("a" if cond else "b")`` — conditional emits check both
  branches (the incremental solver uses this shape);
- ``span("name")`` / ``trace("name")`` / any ``*span`` helper whose
  first argument is a literal (``_record_span`` in ``repro.core.shm``);
- ``counter_add(f"family.{suffix}")`` — the literal prefix must match a
  registered ``family.*`` wildcard; a dynamic name outside any declared
  family is flagged, because the runtime trace validator would reject
  it anyway.

Non-literal first arguments (variables, attribute reads) are skipped
here — those names are caught at runtime by the registry cross-check in
``python -m repro.obs --validate``, which CI runs on real traces.  The
two checks are intentionally the same contract applied at both ends.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Finding, ModuleSource, Rule
from repro.analysis.rules._util import call_name
from repro.obs import registry

#: call-name last part -> registry kind
_EMITTERS = {
    "counter_add": "counter",
    "gauge_set": "gauge",
    "span": "span",
    "trace": "span",
}


def _emitter_kind(callee: str) -> str | None:
    last = callee.split(".")[-1]
    if last in _EMITTERS:
        return _EMITTERS[last]
    # helper wrappers like _span / _record_span / record_attempt_span
    if last.endswith("_span") or last.endswith("span"):
        return "span"
    return None


class MetricsContractRule(Rule):
    rule_id = "metrics-contract"
    title = "metric/span name not declared in repro.obs.registry"

    def applies_to(self, path: str) -> bool:
        # the registry itself and the trace plumbing pass names through
        # variables; everything else in src/ is an emit site
        return path.startswith("src/") and path not in (
            "src/repro/obs/registry.py",
            "src/repro/obs/trace.py",
            "src/repro/obs/export.py",
        )

    def check(self, module: ModuleSource) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            callee = call_name(node)
            if callee is None:
                continue
            kind = _emitter_kind(callee)
            if kind is None:
                continue
            findings.extend(self._check_name_arg(module, node, node.args[0], kind))
        return findings

    def _check_name_arg(
        self, module: ModuleSource, call: ast.Call, arg: ast.expr, kind: str
    ) -> list[Finding]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return self._check_literal(module, call, arg.value, kind)
        if isinstance(arg, ast.IfExp):
            findings: list[Finding] = []
            for branch in (arg.body, arg.orelse):
                findings.extend(self._check_name_arg(module, call, branch, kind))
            return findings
        if isinstance(arg, ast.JoinedStr):
            return self._check_fstring(module, call, arg, kind)
        return []  # dynamic name: the runtime trace validator owns it

    def _check_literal(
        self, module: ModuleSource, call: ast.Call, name: str, kind: str
    ) -> list[Finding]:
        if registry.is_registered(kind, name):
            return []
        hint = registry.suggest(kind, name)
        suffix = f"; did you mean '{hint}'?" if hint else ""
        return [
            module.finding(
                self.rule_id,
                call,
                f"{kind} name '{name}' is not declared in "
                f"repro.obs.registry{suffix} — declare it or fix the typo",
            )
        ]

    def _check_fstring(
        self, module: ModuleSource, call: ast.Call, arg: ast.JoinedStr, kind: str
    ) -> list[Finding]:
        prefix_parts: list[str] = []
        for value in arg.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                prefix_parts.append(value.value)
            else:
                break
        prefix = "".join(prefix_parts)
        families = {
            "counter": registry.COUNTER_FAMILIES,
            "gauge": registry.GAUGE_FAMILIES,
            "span": registry.SPAN_FAMILIES,
        }[kind]
        for pattern in families:
            family_prefix = pattern[:-1]  # strip the trailing "*"
            if prefix.startswith(family_prefix):
                return []
        return [
            module.finding(
                self.rule_id,
                call,
                f"dynamic {kind} name f'{prefix}{{...}}' matches no "
                "registered wildcard family in repro.obs.registry — "
                f"declare '{prefix}*' (or a parent family) there",
            )
        ]
