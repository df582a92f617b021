"""Command-line entry: ``python -m repro.analysis``.

Runs the project static checks over ``src/`` and ``tests/``: the lint
rules of :mod:`repro.analysis.rules` and — unless ``--no-models`` — the
symbolic shape verification of every registered model architecture and
the feature-stack channel contract (no kernels execute).  A path that
does not exist is bad input (exit 2), never an empty clean run.

``--strict`` makes new findings (anything not grandfathered by the
baseline or pragma-suppressed) exit non-zero; the CI lint job runs it.
``--write-baseline`` regenerates the committed baseline from the
current findings and is mutually exclusive with ``--strict`` — a CI
run must never be able to silently re-grandfather its own findings.

The run is timed through the ``analysis`` ``repro.obs`` span.

``--json`` emits a machine-readable report; schema (documented in
``docs/static_analysis.md``)::

    {
      "version": 2,
      "findings": [
        {
          "rule": str,          # rule id, e.g. "unlocked-global-write"
          "path": str,          # repo-relative posix path
          "line": int, "col": int,
          "message": str,
          "fingerprint": str    # baseline key (rule:path:hash)
        }, ...
      ],
      "model_errors": [str, ...],
      "grandfathered": int, "suppressed": int,
      "files_checked": int,
      "duration_seconds": float
    }
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.engine import AnalysisEngine
from repro.analysis.shapes import (
    ShapeError,
    verify_feature_contract,
    verify_registry,
)
from repro.obs import span
from repro.obs.registry import ANALYSIS


def _verify_models(verbose: bool = True) -> list[str]:
    """Shape-check every registered model + feature contract; return errors."""
    errors: list[str] = []
    try:
        reports = verify_registry()
    except ShapeError as exc:
        errors.append(f"model graph verification failed: {exc}")
    else:
        if verbose:
            for model_name, report in sorted(reports.items()):
                print(
                    f"analysis: verified {model_name}: "
                    f"{report.input.describe()} -> {report.output.describe()}"
                )
    try:
        verify_feature_contract()
    except ShapeError as exc:
        errors.append(f"feature contract verification failed: {exc}")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Project static checker: lint rules, model graph verifier."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to check (default: src tests)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path.cwd(),
        help="repository root (default: cwd)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline file (default: <root>/.analysis-baseline)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on any new finding (CI mode)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=(
            "grandfather all current findings into the baseline file "
            "(mutually exclusive with --strict)"
        ),
    )
    parser.add_argument(
        "--no-models",
        action="store_true",
        help="skip the model-graph/feature-contract verification",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit findings as JSON instead of text (schema in docstring)",
    )
    args = parser.parse_args(argv)

    if args.write_baseline and args.strict:
        parser.error(
            "--write-baseline and --strict are mutually exclusive: "
            "a strict run enforces the committed baseline, it must not "
            "rewrite it (run --write-baseline separately, then commit "
            "the result)"
        )

    root = args.root.resolve()
    baseline = args.baseline or root / ".analysis-baseline"
    engine = AnalysisEngine(root)
    missing = [p for p in args.paths if not (root / p).exists()]
    if missing:
        parser.error(f"no such file or directory: {', '.join(missing)}")

    if args.write_baseline:
        report = engine.run(args.paths, baseline_path=None)
        engine.write_baseline(baseline, report.findings)
        print(
            f"analysis: wrote {len(report.findings)} fingerprint(s) to "
            f"{baseline}"
        )
        return 0

    with span(ANALYSIS) as timing:
        report = engine.run(args.paths, baseline_path=baseline)
    duration = timing.duration

    model_errors: list[str] = []
    if not args.no_models:
        model_errors = _verify_models(verbose=not args.as_json)

    if args.as_json:
        print(
            json.dumps(
                {
                    "version": 2,
                    "findings": [
                        {
                            "rule": f.rule,
                            "path": f.path,
                            "line": f.line,
                            "col": f.col,
                            "message": f.message,
                            "fingerprint": f.fingerprint,
                        }
                        for f in report.findings
                    ],
                    "model_errors": model_errors,
                    "grandfathered": len(report.grandfathered),
                    "suppressed": len(report.suppressed),
                    "files_checked": report.files_checked,
                    "duration_seconds": duration,
                }
            )
        )
    else:
        for line in report.summary_lines():
            print(line)
        for error in model_errors:
            print(f"analysis: {error}")
        print(f"analysis: analysis span {duration:.2f}s")

    failed = bool(model_errors) or not report.ok
    if args.strict and failed:
        return 1
    if model_errors:  # broken model graphs fail even in lenient mode
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
