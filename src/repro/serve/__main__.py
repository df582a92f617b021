"""``python -m repro.serve`` — the analysis daemon's entry point.

Also backs the ``repro serve`` CLI subcommand: :func:`add_serve_arguments`
installs the flag set on any argparse parser and :func:`run` executes a
parsed namespace, so the two entry points cannot drift.

Exit codes follow the CLI convention: ``0`` clean (drained) exit, ``2``
startup/configuration error (bad model dir, unloadable checkpoint,
out-of-range flag such as a non-finite ``--default-deadline``).
SIGTERM and SIGINT both trigger a graceful drain — in-flight and queued
jobs finish (bounded by ``--drain-timeout``) before the process exits 0.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from repro.serve.app import ServeDaemon
from repro.serve.registry import ModelLoadError, ModelNotFoundError, ModelRegistry
from repro.serve.service import ServeOptions


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the daemon's flags (shared with ``repro serve``)."""
    parser.add_argument(
        "--model-dir",
        required=True,
        help="directory of <name>.npz / <name>.npz.json checkpoint pairs",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=8,
        help="max queued jobs before requests get 429 queue_full",
    )
    parser.add_argument(
        "--default-deadline",
        type=float,
        default=None,
        help="per-request budget in seconds when the request sets none",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="directory for 'trace': 'file' requests (created if missing)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds to let in-flight jobs finish on SIGTERM/SIGINT",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="log one line per HTTP request to stderr",
    )


def run(args: argparse.Namespace) -> int:
    """Start the daemon from parsed arguments; blocks until drained."""
    # Options first: a bad flag is reported before any model loads.
    try:
        options = ServeOptions(
            queue_limit=args.queue_limit,
            default_deadline=args.default_deadline,
            trace_dir=args.trace_dir,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    registry = ModelRegistry(args.model_dir)
    try:
        entries = registry.warm()
    except (ModelNotFoundError, ModelLoadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not entries:
        print(
            f"error: no checkpoint pairs in {args.model_dir!r}; "
            "write one with `repro train --out <dir>/<name>.npz`",
            file=sys.stderr,
        )
        return 2
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)

    daemon = ServeDaemon(
        registry=registry,
        options=options,
        host=args.host,
        port=args.port,
        verbose=args.verbose,
    )

    def _graceful(signum, frame):  # noqa: ARG001 - signal signature
        daemon.begin_drain(args.drain_timeout)

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)

    for entry in entries:
        print(
            f"model {entry.name}: fingerprint {entry.fingerprint[:12]} "
            f"({entry.pipeline.config.pixels}px, "
            f"{entry.in_channels} channels)",
            flush=True,
        )
    host, port = daemon.address
    print(f"repro-serve listening on http://{host}:{port}", flush=True)
    daemon.serve_forever()
    # serve_forever returns only after a drain stopped the accept loop.
    daemon.stop(timeout=args.drain_timeout)
    print("repro-serve drained; exiting", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="persistent IR-drop analysis daemon with warm models",
    )
    add_serve_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
