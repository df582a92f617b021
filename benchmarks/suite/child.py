"""One workload, measured inside a fresh interpreter.

``run.py`` starts this file as a child process in its own session, with
the BLAS thread counts already pinned in the environment, and reads one
JSON document back from ``--result``.  Nothing here prints the contract
line; the supervisor does, after it has checked what the child left
behind.

A run is: set up ``SETUP_REPS`` times (each a full set-up and teardown;
the median is ``setup_s``), then measure on the last set-up.  Untraced,
the whole window runs the workload's public-entry-point op.  Traced, the
first half of the window runs that op and the second half the staged
variant under spans, so one run yields the per-layer numbers, the bitwise
staged-vs-pipeline check, and the tracing overhead (paired on op index).

Times are **reference seconds**.  This box's speed drifts by +-20 % in
spells of about a second, each core on its own, which no median over an
8 s window removes.  So a fixed numpy kernel is timed on the calling
thread right before and right after every op and set-up
(:mod:`refclock`), and the wall time is scaled to the speed of the box
the baseline was recorded on.  With several callers the work happens on
another thread, and often another core, than the one a caller could time
the kernel on, so there the op times stay wall seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
SETUP_REPS = 3

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    nproc = os.cpu_count() or 1
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.exists() else None
        else:
            sha = ref
    stamp = {
        "nproc": nproc,
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "REPRO_BACKEND": os.environ.get("REPRO_BACKEND", "numpy"),
        "REPRO_POOL_MODE": os.environ.get("REPRO_POOL_MODE", "auto"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "MALLOC_ARENA_MAX": os.environ.get("MALLOC_ARENA_MAX"),
        "git_sha": sha,
        "seed": seed,
    }
    if nproc < 2:
        stamp["parallelism"] = "unverified"
    return stamp


class Phase:
    """Closed-loop op issue for a time window; collects times and problems."""

    def __init__(
        self, workload, run_op, staged: bool, first_op: int, calibrator
    ) -> None:
        self.workload = workload
        self.calibrator = calibrator
        #: op index -> reference-second scale applied to that op.
        self.scale_of: dict[int, float] = {}
        self.run_op = run_op
        self.staged = staged
        self.next_op = first_op
        #: op index -> seconds, for ops that passed their check.
        self.seconds_of: dict[int, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.wall = 0.0
        self._lock = threading.Lock()
        self._pending: list[tuple[int, float, object]] = []

    def _fail(self, k: int, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < 8:
            self.problems.append(f"op {k}: " + "; ".join(problems))

    @property
    def times(self) -> list[float]:
        return list(self.seconds_of.values())

    def _judge(self, k: int, seconds: float | None, out) -> None:
        problems = self.workload.check(k, out, self.staged)
        if problems:
            self._fail(k, problems)
        elif seconds is not None:
            self.seconds_of[k] = seconds

    def _client(self, deadline: float, last_required: int, solo: bool) -> None:
        workload = self.workload
        while True:
            with self._lock:
                k = self.next_op
                if k > last_required and time.perf_counter() >= deadline:
                    return
                self.next_op += 1
                self.attempted += 1
            workload.prepare(k)
            if solo:
                # Collection pauses belong to no op; with several callers
                # a collect would stall the others' requests, so there it
                # is done once, before the window opens.
                gc.collect()
                kernel = self.calibrator.seconds()
            start = time.perf_counter()
            try:
                out = self.run_op(k)
            except Exception as exc:  # noqa: BLE001 - a raised op is a failed op
                with self._lock:
                    self._fail(k, [f"{type(exc).__name__}: {exc}"])
                continue
            seconds = time.perf_counter() - start
            if solo:
                self.scale_of[k] = self.calibrator.scale(kernel)
                self._judge(k, seconds * self.scale_of[k], out)
            else:
                with self._lock:
                    self._pending.append((k, seconds, out))

    def _warm_up(self) -> None:
        """One checked but untimed op: lazy imports, first-touch allocations
        and code-path warm-up are paid before the window opens, as they are
        once per process and not once per op."""
        k = self.next_op
        self.attempted += 1
        self.workload.prepare(k)
        try:
            out = self.run_op(k)
        except Exception as exc:  # noqa: BLE001 - a raised op is a failed op
            self._fail(k, [f"{type(exc).__name__}: {exc}"])
        else:
            self._judge(k, None, out)

    def run(self, seconds: float, min_ops: int) -> None:
        clients = self.workload.clients
        last_required = self.next_op + min_ops - 1
        self._warm_up()
        gc.collect()
        start = time.perf_counter()
        deadline = start + seconds
        if clients == 1:
            self._client(deadline, last_required, solo=True)
            # One caller: the timed wall is the ops themselves, without
            # the untimed preludes and checks between them.
            self.wall = sum(self.times)
        else:
            threads = [
                threading.Thread(
                    target=self._client, args=(deadline, last_required, False)
                )
                for _ in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            self.wall = time.perf_counter() - start
            for k, op_seconds, out in sorted(self._pending, key=lambda p: p[0]):
                self._judge(k, op_seconds, out)
            self._pending.clear()


def layer_metrics(workload, recorder, plain: Phase, staged: Phase) -> dict:
    """Medians per op from spans and samples, plus set-up scalars and ratios."""
    root_name, duration_metric, self_metric = workload.root
    per_metric: dict[str, list[float]] = {}
    for op, names in recorder.self_seconds_per_op().items():
        scale = staged.scale_of.get(op, 1.0)
        for name, seconds in names.items():
            if name == root_name:
                if self_metric:
                    per_metric.setdefault(self_metric, []).append(seconds * scale)
            else:
                per_metric.setdefault(name + "_s", []).append(seconds * scale)
    if duration_metric:
        per_metric[duration_metric] = [
            (span["end"] - span["start"]) * staged.scale_of.get(span["op"], 1.0)
            for span in recorder.spans
            if span["name"] == root_name
        ]
    per_metric.update(workload.samples)
    values = {name: statistics.median(v) for name, v in per_metric.items() if v}
    values.update(workload.scalars)
    coverage = list(recorder.coverage_per_op().values())
    if coverage:
        values["obs.span_coverage"] = statistics.median(coverage)
    # Both phases issue the same op indices in the same order, so the
    # overhead is a median of paired differences on identical inputs.
    paired = [
        (staged.seconds_of[k] - seconds) / seconds
        for k, seconds in plain.seconds_of.items()
        if k in staged.seconds_of
    ]
    if paired:
        values["obs.trace_overhead_share"] = statistics.median(paired)
    if workload.tail_metric and plain.times:
        values[workload.tail_metric] = percentile(plain.times, 0.9)
    workload.derive(values)
    return values


def measure(args, workload, recorder, calibrator) -> tuple[dict, list[Phase]]:
    """The timed window(s) on a set-up workload: result fields and the phases."""
    plain = Phase(workload, workload.op, False, 0, calibrator)
    if args.trace:
        plain.run(args.seconds / 2, workload.min_ops)
        staged = Phase(
            workload, lambda k: workload.staged(k, recorder), True, 0, calibrator
        )
        staged.run(args.seconds / 2, workload.min_ops)
        phases = [plain, staged]
    else:
        plain.run(args.seconds, workload.min_ops)
        phases = [plain]
    problems = [p for phase in phases for p in phase.problems]
    late = workload.finish()
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases) + len(late)
    result = {
        "attempted": attempted + len(late),
        "failed": failed,
        "problems": problems + late,
        "ops_timed": len(plain.times),
    }
    if plain.times:
        result["end_to_end"] = {
            "op_p50_s": statistics.median(plain.times),
            "ops_per_s": len(plain.times) / plain.wall,
        }
    return result, phases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--smoke", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-file", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(SUITE))
    from refclock import Calibrator
    from spans import SpanRecorder
    from workloads import WORKLOADS

    recorder = SpanRecorder()
    calibrator = Calibrator()
    setup_seconds: list[float] = []
    result: dict = {}
    phases: list[Phase] = []
    reps = 1 if args.smoke else SETUP_REPS
    for rep in range(reps):
        workdir = os.path.join(args.workdir, f"setup{rep}")
        os.makedirs(workdir)
        workload = WORKLOADS[args.workload](
            args.seed, bool(args.smoke), workdir, calibrator
        )
        gc.collect()
        kernel = calibrator.seconds()
        start = time.perf_counter()
        try:
            workload.setup()
            seconds = time.perf_counter() - start
            setup_seconds.append(seconds * calibrator.scale(kernel))
            if rep == reps - 1:
                result, phases = measure(args, workload, recorder, calibrator)
        finally:
            workload.teardown()
    layers = {}
    if args.trace:
        # Teardown has run: its scalars (stop, shutdown, leaks) are in.
        layers = layer_metrics(workload, recorder, *phases)
        recorder.write_jsonl(
            args.trace_file,
            {
                "workload": args.workload,
                "seed": args.seed,
                "records": [r.to_json() for r in workload.records],
                # op index -> factor from span seconds to reference seconds
                "scale": phases[1].scale_of,
            },
        )
    result.setdefault("end_to_end", {})["setup_s"] = statistics.median(setup_seconds)
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["end_to_end"]["peak_rss_mb"] = (usage_self + usage_children) / 1024.0
    result.update(
        {
            "workload": args.workload,
            "trace": args.trace,
            "per_layer": layers,
            "setup_samples": setup_seconds,
            "records": [r.to_json() for r in workload.records],
            "env": environment(args.seed),
            "port": getattr(workload, "address", (None, None))[1],
            # Pool workers are daemonic: the interpreter would reap them on
            # its way out, so only a look from inside, before that, can tell
            # that a teardown forgot them.
            "active_children": [
                f"{p.name} (pid {p.pid})" for p in multiprocessing.active_children()
            ],
        }
    )
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
