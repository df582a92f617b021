"""Structured trace export: JSONL files and the human summary tree.

File schema (one JSON object per line):

- line 1 — ``{"kind": "header", "version": 1, "root": "<name>"}``
- one ``{"kind": "span", "id": int, "parent": int | null, "name": str,
  "start": float, "duration": float, "attrs": {...}}`` per span, ids
  assigned in preorder so a parent always precedes its children;
  ``start`` is the offset in seconds from the root span's start (the
  absolute monotonic reading never leaves the process);
- optionally one final ``{"kind": "metrics", "counters": {...},
  "gauges": {...}}`` line.

``python -m repro.obs --validate PATH`` checks a file against this
schema; the CI bench-smoke job runs it on a traced ``analyze``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.trace import Span

#: Schema version stamped into (and demanded from) trace headers.
TRACE_VERSION = 1


def trace_lines(root: Span, metrics: dict | None = None) -> list[str]:
    """Serialize a span tree (plus optional metrics) to JSONL lines."""
    lines = [
        json.dumps(
            {"kind": "header", "version": TRACE_VERSION, "root": root.name}
        )
    ]
    origin = root.start
    counter = 0

    def emit(span: Span, parent: int | None) -> None:
        nonlocal counter
        span_id = counter
        counter += 1
        lines.append(
            json.dumps(
                {
                    "kind": "span",
                    "id": span_id,
                    "parent": parent,
                    "name": span.name,
                    "start": max(span.start - origin, 0.0),
                    "duration": span.duration,
                    "attrs": span.attrs,
                }
            )
        )
        for child in span.children:
            emit(child, span_id)

    emit(root, None)
    if metrics is not None:
        lines.append(
            json.dumps(
                {
                    "kind": "metrics",
                    "counters": metrics.get("counters", {}),
                    "gauges": metrics.get("gauges", {}),
                }
            )
        )
    return lines


def write_trace(path, root: Span, metrics: dict | None = None) -> None:
    """Write the JSONL trace file for *root* (and optional metrics)."""
    Path(path).write_text("\n".join(trace_lines(root, metrics)) + "\n")


# -- validation ---------------------------------------------------------------


def _check_span(record: dict, seen_ids: set, lineno: int) -> list[str]:
    errors = []
    for key, types in (
        ("id", int),
        ("name", str),
        ("start", (int, float)),
        ("duration", (int, float)),
        ("attrs", dict),
    ):
        if not isinstance(record.get(key), types) or isinstance(
            record.get(key), bool
        ):
            errors.append(f"line {lineno}: span field {key!r} missing or wrong type")
    span_id = record.get("id")
    parent = record.get("parent")
    if isinstance(span_id, int):
        if span_id in seen_ids:
            errors.append(f"line {lineno}: duplicate span id {span_id}")
        seen_ids.add(span_id)
    if parent is None:
        if span_id != 0:
            errors.append(f"line {lineno}: only span 0 may be the root")
    elif not isinstance(parent, int) or parent == span_id or parent not in seen_ids:
        errors.append(
            f"line {lineno}: parent {parent!r} does not precede this span"
        )
    if isinstance(record.get("duration"), (int, float)) and record["duration"] < 0:
        errors.append(f"line {lineno}: negative duration")
    if isinstance(record.get("start"), (int, float)) and record["start"] < 0:
        errors.append(f"line {lineno}: negative start offset")
    return errors


def validate_trace_lines(lines: list[str]) -> list[str]:
    """Schema errors in the given JSONL lines (empty list = valid)."""
    errors: list[str] = []
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append((lineno, json.loads(line)))
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: not valid JSON ({exc.msg})")
    if not records:
        return errors + ["empty trace file"]

    lineno, header = records[0]
    if not isinstance(header, dict) or header.get("kind") != "header":
        errors.append(f"line {lineno}: first record must be the header")
    elif header.get("version") != TRACE_VERSION:
        errors.append(
            f"line {lineno}: unsupported trace version {header.get('version')!r}"
        )

    seen_ids: set[int] = set()
    metrics_seen = False
    for lineno, record in records[1:]:
        if not isinstance(record, dict):
            errors.append(f"line {lineno}: not a JSON object")
            continue
        kind = record.get("kind")
        if kind == "span":
            if metrics_seen:
                errors.append(f"line {lineno}: span after the metrics record")
            errors.extend(_check_span(record, seen_ids, lineno))
        elif kind == "metrics":
            if metrics_seen:
                errors.append(f"line {lineno}: more than one metrics record")
            metrics_seen = True
            for key in ("counters", "gauges"):
                if not isinstance(record.get(key), dict):
                    errors.append(
                        f"line {lineno}: metrics field {key!r} missing or wrong type"
                    )
        else:
            errors.append(f"line {lineno}: unknown record kind {kind!r}")
    if 0 not in seen_ids:
        errors.append("no root span (id 0)")
    return errors


def validate_trace_file(path) -> list[str]:
    """Schema errors for a trace file on disk (empty list = valid)."""
    errors: list[str] = []
    lines: list[str] = []
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            errors.append(f"line {lineno}: not valid UTF-8")
            lines.append("")
    return errors + validate_trace_lines(lines)


# -- human summary ------------------------------------------------------------


def _format_span(span: Span, root_duration: float, depth: int) -> str:
    indent = "  " * depth
    label = f"{indent}{span.name}"
    if span.attrs:
        detail = ",".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
        label += f"[{detail}]"
    share = ""
    if depth > 0 and root_duration > 0:
        share = f"  {100.0 * span.duration / root_duration:5.1f}%"
    return f"{label:<40s} {span.duration * 1e3:9.2f}ms{share}"


def summary_lines(
    root: Span, metrics: dict | None = None, max_depth: int = 6
) -> list[str]:
    """Indented per-span timing tree (CLI ``--debug`` output).

    Percentages are of the root span, so a stage's share of the whole
    run can be read straight off any line.
    """
    lines = ["trace:"]
    root_duration = root.duration

    def walk(span: Span, depth: int) -> None:
        if depth > max_depth:
            return
        lines.append("  " + _format_span(span, root_duration, depth))
        for child in span.children:
            walk(child, depth + 1)

    walk(root, 0)
    if metrics:
        counters = metrics.get("counters", {})
        if counters:
            lines.append("  counters:")
            for name in sorted(counters):
                value = counters[name]
                rendered = f"{value:g}"
                lines.append(f"    {name} = {rendered}")
    return lines
