"""The benchmark: seven workloads, end-to-end and per-layer metrics.

    python3 benchmarks/suite/run.py [--workload W]... [--seed N] [--seconds S]
        [--trace [0|1]] [--smoke] [--sets K] [--out DIR]

With one ``--workload`` and an explicit ``--trace 0|1`` this is the
contract form ``BENCHMARK.json`` declares: one run, whose last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``.  Without
``--trace`` each selected workload is run twice, untraced for the
end-to-end metrics and traced for the per-layer ones, and every metric
is printed by name with its unit, direction and bound.  ``--sets K``
repeats the untraced runs with K consecutive seeds and fails when a
metric's quartile spread exceeds its bound (the noise floor).

Each run happens in a child interpreter in its own session
(:mod:`child`).  This process is the supervisor: it pins BLAS threads
for the child, enforces a hard wall-clock limit, and after the child has
gone it looks for what was left behind — processes in the child's group,
new ``/dev/shm`` entries, a port still accepting — names it, removes it
and exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
#: A run must end within 180 s of its start; the child gets less, so the
#: supervisor still has time to clean up after a hang.
HARD_LIMIT_S = 150.0
EXIT_GRACE_S = 3.0
SMOKE_SECONDS = 0.5


class Leftover(RuntimeError):
    """The child hung, crashed, or left something running or allocated."""


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def group_members(pgid: int) -> list[str]:
    """``name (pid N)`` of every live process in process group *pgid*."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we were listing
        name = stat[stat.index("(") + 1 : stat.rindex(")")]
        state, _ppid, group = stat[stat.rindex(")") + 2 :].split()[:3]
        if int(group) == pgid and state != "Z":
            found.append(f"{name} (pid {entry})")
    return found


def wait_group_empty(pgid: int, grace: float) -> list[str]:
    """Members still alive after *grace* seconds of polling."""
    deadline = time.monotonic() + grace
    while (members := group_members(pgid)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return members


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    wait_group_empty(pgid, 10.0)


def shm_entries() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def port_open(port: int | None) -> bool:
    if not port:
        return False
    with socket.socket() as probe:
        probe.settimeout(1.0)
        return probe.connect_ex(("127.0.0.1", port)) == 0


def supervise(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
              out_dir: Path) -> dict:  # fmt: skip
    """Run one workload in a child session; return its result document.

    Raises :class:`Leftover` when the child did not end cleanly.
    """
    if not (ROOT / "src" / "repro").is_dir():
        raise Leftover(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    workdir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "result.json"
    env = dict(os.environ)
    # Set before the child imports numpy: one BLAS thread, so the pool
    # and client threads are the only parallelism and it is ours.  Two
    # malloc arenas: with glibc's default of one per thread the daemon's
    # peak RSS swings +-8 % with handler-thread timing (measured), with
    # two it stays within +-1.5 %.
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        MALLOC_ARENA_MAX="2", PYTHONHASHSEED="0", TMPDIR=str(workdir),
    )  # fmt: skip
    shm_before = shm_entries()
    command = [
        sys.executable, str(SUITE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--smoke", str(int(smoke)),
        "--workdir", str(workdir), "--result", str(result_path),
        "--trace-file", str(out_dir / f"{workload}.trace.jsonl"),
    ]  # fmt: skip
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True
    )
    complaints = []
    try:
        status = child.wait(timeout=HARD_LIMIT_S)
        if status != 0:
            complaints.append(f"child exited with status {status}")
        # multiprocessing's resource tracker ends on its own once its
        # parent's pipe closes; anything alive after the grace does not.
        left = wait_group_empty(child.pid, EXIT_GRACE_S)
        if left:
            complaints.append("processes left in the child's group: " + ", ".join(left))
    except subprocess.TimeoutExpired:
        complaints.append(f"no result within the {HARD_LIMIT_S:.0f} s limit")
    finally:
        # Only while the group provably still exists: once its leader is
        # reaped and it is empty, the id may belong to someone else.
        if child.poll() is None or group_members(child.pid):
            kill_group(child.pid)
        child.wait()
    result = None
    if result_path.exists():
        result = json.loads(result_path.read_text())
        if result["active_children"]:
            complaints.append(
                "child ended with live workers: " + ", ".join(result["active_children"])
            )
        if port_open(result["port"]):
            complaints.append(f"port {result['port']} still accepts connections")
    new_shm = sorted(shm_entries() - shm_before)
    if new_shm:
        complaints.append("new /dev/shm entries: " + ", ".join(new_shm))
        for name in new_shm:
            if name.startswith("rs"):  # the program's arena prefix
                Path("/dev/shm", name).unlink(missing_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    if complaints or result is None:
        raise Leftover(f"{workload}: " + "; ".join(complaints or ["no result"]))
    (out_dir / f"{workload}.trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1)
    )
    return result


def contract_line(spec: dict, result: dict) -> dict:
    """The last-line object: every declared metric of the run's kind, by name."""
    declared = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    measured = result["per_layer"] if result["trace"] else result["end_to_end"]
    # A layer the workload bypasses did no work: 0 of its unit.
    metrics = {
        m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared
    }
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def print_result(spec: dict, result: dict) -> None:
    kind = "per_layer" if result["trace"] else "end_to_end"
    print(f"== {result['workload']}  ({'traced' if result['trace'] else 'untraced'}, "
          f"{result['attempted']} ops attempted, {result['failed']} failed, "
          f"{result['ops_timed']} timed samples)")  # fmt: skip
    print("   env " + json.dumps(result["env"], sort_keys=True))
    for problem in result["problems"]:
        print(f"   FAILED {problem}")
    for metric in spec[kind]:
        if metric["name"] not in result[kind]:
            continue
        bound = f"  bound {metric['bound']}" if "bound" in metric else ""
        print(f"   {metric['name']:<34} {result[kind][metric['name']]:>14.6g} "
              f"{metric['unit']:<6} {metric['better']} is better{bound}")  # fmt: skip


def spread(values: list[float]) -> float:
    """Inter-quartile distance over the median, as the acceptance rule takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def noise_floor(spec: dict, sets: list[dict[str, dict]], out_dir: Path) -> bool:
    """Per (workload, metric) spread over the sets; False if one exceeds its bound."""
    within = True
    table: dict[str, dict] = {}
    for workload in sets[0]:
        table[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [run[workload]["end_to_end"][name] for run in sets]
            share = spread(values)
            table[workload][name] = {
                "median": statistics.median(values),
                "spread": share,
                "bound": metric["bound"],
            }
            # setup_s is judged on its median across sets, not its spread.
            if name != "setup_s" and share > metric["bound"]:
                within = False
                print(f"   SPREAD {workload} {name}: {share:.3f} > {metric['bound']}")
    (out_dir / "noise_floor.json").write_text(json.dumps(table, indent=1))
    print(f"noise floor over {len(sets)} sets -> {out_dir / 'noise_floor.json'}")
    return within


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=None,
                        choices=(0, 1))  # fmt: skip
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--sets", type=int, default=0)
    parser.add_argument("--out", type=Path, default=WORK / "out")
    args = parser.parse_args(argv)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    selected = args.workload or names
    unknown = sorted(set(selected) - set(names))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {names}")
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    traces = [False, True] if args.trace is None else [bool(args.trace)]

    # The child lives in its own session: if this process is told to stop,
    # unwind through supervise()'s finally so the child's group goes too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.sets:
            sets = []
            for k in range(args.sets):
                sets.append(
                    {
                        w: supervise(w, args.seed + k, seconds, False, args.smoke,
                                     args.out)
                        for w in selected
                    }
                )  # fmt: skip
                for result in sets[-1].values():
                    print_result(spec, result)
            failed = sum(r["failed"] for run in sets for r in run.values())
            return 0 if noise_floor(spec, sets, args.out) and not failed else 1
        failed = 0
        for workload in selected:
            for trace in traces:
                result = supervise(workload, args.seed, seconds, trace, args.smoke,
                                   args.out)  # fmt: skip
                failed += result["failed"]
                print_result(spec, result)
                print(json.dumps(contract_line(spec, result)), flush=True)
        return 1 if failed else 0
    except Leftover as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
