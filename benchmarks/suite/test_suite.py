"""Self-test of the benchmark suite (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/suite

Runs every workload at ``--smoke`` size through the real command line, so
it takes about half a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(SUITE))

import run  # noqa: E402
from workloads import WORKLOADS, Record  # noqa: E402

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def smoke(workload: str, trace: int, seed: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--smoke", "--workload", workload,
         "--trace", str(trace), "--seed", str(seed)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def child_processes() -> list[str]:
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                command = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
            except OSError:
                continue
            if str(SUITE / "child.py") in command:
                found.append(command)
    return found


def test_spec_meets_the_contract_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    for group in ("workloads", "end_to_end", "per_layer"):
        names = [item["name"] for item in SPEC[group]]
        assert len(names) == len(set(names)), f"duplicate name in {group}"
        for name in names:
            assert NAME.fullmatch(name), name
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_spec_and_code_declare_the_same_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_every_declared_metric(workload):
    untraced = smoke(workload, trace=0)
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] >= 1
    assert list(untraced["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        got = untraced["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0, (metric, got)

    traced = smoke(workload, trace=1)
    assert traced["correct"] and traced["failed"] == 0
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    document = json.loads((run.WORK / "out" / f"{workload}.trace1.json").read_text())
    measured = set(document["per_layer"])
    assert measured <= set(traced["metrics"]), measured - set(traced["metrics"])
    assert "obs.trace_overhead_share" in measured
    spans = [
        json.loads(line)
        for line in (run.WORK / "out" / f"{workload}.trace.jsonl").read_text().splitlines()
    ]
    assert spans[0]["type"] == "header" and spans[0]["workload"] == workload
    for span in spans[1:]:
        assert span["end"] >= span["start"] and span["op"] is not None


def test_every_per_layer_metric_is_measured_by_some_workload():
    measured = set()
    for workload in WORKLOADS:
        path = run.WORK / "out" / f"{workload}.trace1.json"
        if not path.exists():
            smoke(workload, trace=1)
        measured |= set(json.loads(path.read_text())["per_layer"])
    assert measured == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_records_round_trip_and_follow_the_seed(workload, tmp_path):
    first = WORKLOADS[workload](seed=0, smoke=True, workdir=str(tmp_path))
    again = WORKLOADS[workload](seed=0, smoke=True, workdir=str(tmp_path))
    other = WORKLOADS[workload](seed=1, smoke=True, workdir=str(tmp_path))
    assert first.records == again.records
    assert [r.seed for r in first.records] != [r.seed for r in other.records]
    for record in first.records:
        payload = json.loads(json.dumps(record.to_json()))
        assert Record.from_json(payload) == record


def test_a_record_rebuilds_the_same_design_and_seeds_differ():
    from repro.spice.writer import netlist_to_string

    deck = WORKLOADS["deck_cold"]
    a, b = deck(0, True, "unused").records, deck(1, True, "unused").records
    text = netlist_to_string(a[0].build().netlist)
    rebuilt = Record.from_json(a[0].to_json()).build()
    assert netlist_to_string(rebuilt.netlist) == text
    assert netlist_to_string(b[0].build().netlist) != text


def test_two_seeds_give_the_same_metric_set():
    assert list(smoke("pad_sweep", 0, seed=0)["metrics"]) == list(
        smoke("pad_sweep", 0, seed=1)["metrics"]
    )


def test_hang_is_killed_and_nothing_is_left(monkeypatch, tmp_path):
    import os

    monkeypatch.setattr(run, "HARD_LIMIT_S", 1.5)
    before = set(os.listdir("/dev/shm"))
    with pytest.raises(run.Leftover, match="limit"):
        # Full size: set-up alone outlasts the limit, pool workers and all.
        run.supervise("batch_pool", 0, 8.0, False, False, tmp_path)
    assert child_processes() == []
    assert set(os.listdir("/dev/shm")) == before
    assert not list(run.WORK.glob("batch_pool-*"))


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        SUITE, tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("__pycache__"),
    )  # fmt: skip
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "deck_cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout.strip() == ""
