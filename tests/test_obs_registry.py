"""Declared telemetry names: every module loads, and the docs list them all.

Emit sites import their handles from :mod:`repro.obs.registry` by name
at module level, so importing every module is what turns a misspelt
handle into a tier-1 failure.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import repro
from repro.obs import registry
from repro.obs.registry import Counter, Gauge, SpanName

DOCS = Path(__file__).resolve().parent.parent / "docs" / "observability.md"

#: First header cell of each docs table -> the handle kind it lists.
_TABLES = {"span": SpanName, "counter": Counter, "gauge": Gauge}


def _declared() -> dict[str, dict[str, str]]:
    """kind -> {handle variable: emitted name}."""
    return {
        kind: {
            var: value.name
            for var, value in vars(registry).items()
            if type(value) is cls
        }
        for kind, cls in _TABLES.items()
    }


def _documented() -> dict[str, set[str]]:
    """kind -> backticked names in the first column of its docs table."""
    found: dict[str, set[str]] = {kind: set() for kind in _TABLES}
    kind = None
    for line in DOCS.read_text().splitlines():
        if not line.startswith("|"):
            kind = None
            continue
        first = line.split("|")[1].strip()
        if kind is None:  # a table's header row
            kind = first if first in _TABLES else ""
        elif kind:
            found[kind] |= set(re.findall(r"`([^`]+)`", first))
    return found


def test_every_module_imports():
    failures = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        try:
            importlib.import_module(info.name)
        except Exception as exc:  # noqa: BLE001 - report every module
            failures.append(f"{info.name}: {type(exc).__name__}: {exc}")
    assert failures == []


def test_handles_are_named_after_their_strings():
    for kind, handles in _declared().items():
        assert handles, kind
        for var, name in handles.items():
            assert var == name.upper().replace(".", "_"), (kind, var, name)


def test_docs_tables_list_exactly_the_declared_names():
    documented = _documented()
    for kind, handles in _declared().items():
        declared = set(handles.values())
        assert documented[kind] - declared == set(), f"undeclared {kind}s"
        assert declared - documented[kind] == set(), f"undocumented {kind}s"
