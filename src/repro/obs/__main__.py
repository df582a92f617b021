"""Trace-file validation: ``python -m repro.obs --validate PATH``.

Exit status 0 when every given file conforms to the JSONL trace schema
(see :mod:`repro.obs.export`), 1 otherwise — a malformed or unreadable
file is reported as ``PATH: line N: …`` errors, never a traceback.  The
CI smoke jobs run this on every trace they write.  Names need no check:
the emit API only accepts the handles declared in
:mod:`repro.obs.registry`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.export import validate_trace_file


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="validate JSONL trace files against the trace schema",
    )
    parser.add_argument(
        "--validate",
        nargs="+",
        required=True,
        metavar="PATH",
        help="trace file(s) to check",
    )
    args = parser.parse_args(argv)

    status = 0
    for path in args.validate:
        try:
            errors = validate_trace_file(path)
        except OSError as exc:
            errors = [exc.strerror or str(exc)]
        if errors:
            for error in errors:
                print(f"{path}: {error}", file=sys.stderr)
            status = 1
        else:
            spans = sum(
                1
                for line in Path(path).read_text().splitlines()
                if line.strip() and json.loads(line)["kind"] == "span"
            )
            print(f"{path}: ok ({spans} span(s))")
    return status


if __name__ == "__main__":
    sys.exit(main())
