"""Shared benchmark configuration and artifact helpers.

Benchmark scale is deliberately reduced from the paper's setup (256x256
images, 120 designs, long GPU training) to something a CPU finishes in
minutes: 32x32 designs, a 20-design suite, narrow models, ~a dozen epochs.
EXPERIMENTS.md records the shapes this reproduces versus the paper's
numbers.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path

import numpy as np

from repro.core.config import FusionConfig
from repro.train.trainer import TrainConfig

ARTIFACTS = Path(__file__).resolve().parent / "artifacts"
TRAJECTORY = ARTIFACTS / "trajectory.jsonl"
REPO_ROOT = Path(__file__).resolve().parent.parent


def bench_config(**overrides) -> FusionConfig:
    """The shared reduced-scale configuration for the paper benches."""
    defaults = dict(
        pixels=32,
        num_fake=12,
        num_real_train=5,
        num_real_test=4,
        data_seed=7,
        solver_iterations=2,
        base_channels=6,
        depth=3,
        model_seed=0,
        train=TrainConfig(epochs=16, batch_size=8, lr=1.5e-3),
        augment=True,
        oversample_fake=2,
        oversample_real=5,
    )
    defaults.update(overrides)
    return FusionConfig(**defaults)


def save_artifact(name: str, text: str) -> Path:
    """Write a rendered table/figure to benchmarks/artifacts/<name>."""
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    path = ARTIFACTS / name
    path.write_text(text + "\n", encoding="utf-8")
    return path


def calibration_seconds(rounds: int = 5) -> float:
    """Fixed numpy workload: a machine-speed yardstick for CI comparisons.

    Benches divide their wall times by this so the regression gates
    compare *calibrated* numbers across runners of different speeds.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    b = rng.standard_normal((256, 256))
    idx = rng.integers(0, 256 * 256, size=200_000)
    vals = rng.standard_normal(200_000)
    best = np.inf
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(10):
            c = a @ b
            np.bincount(idx, weights=vals, minlength=256 * 256)
            c.sum()
        best = min(best, time.perf_counter() - start)
    return best


def git_sha() -> str | None:
    """Current commit hash, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def attach_provenance(results: dict, bench: str) -> dict:
    """Stamp a result dict with bench name, commit and timestamp (in place).

    Every bench routes its JSON through this, so any artifact can be
    traced back to the commit that produced it.
    """
    results["bench"] = bench
    results["git_sha"] = git_sha()
    results["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    return results


def append_trajectory(record: dict) -> Path:
    """Append one provenance-stamped record to the benchmark trajectory.

    The trajectory (``benchmarks/artifacts/trajectory.jsonl``) is an
    append-only JSONL log of headline numbers across commits — the
    cross-PR performance track record, one line per bench invocation.
    """
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    with TRAJECTORY.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return TRAJECTORY
