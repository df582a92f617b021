"""Training throughput benchmark: serial fp64 vs the data-parallel
mixed-precision engine.

Four arms train the same model on the same extracted feature set, and the
per-epoch wall clock of each is written to ``BENCH_pr3.json``:

1. **serial_fp64** — the classic whole-batch loop (``jobs=1``,
   ``precision=fp64``): the denominator of every speedup.  It runs the
   same kernels as every other arm, in float64.
2. **serial_mixed** — same loop, same kernels, in float32 (fp64 master
   weights): isolates the dtype win from the engine win.
3. **parallel_fp64** — ``jobs=4`` sharded engine at fp64: isolates the
   engine overhead/win at reference precision.
4. **parallel_mixed** — ``jobs=4 --precision mixed``: the headline
   configuration, gated against the committed baseline by ``--check``.

The sharded arms use the engine's auto decomposition
(``DEFAULT_GRAD_SHARDS`` shards per mini-batch, tree-reduced in fixed
order), so their trajectory is jobs-invariant.  Two final-loss contracts
are checked: the *precision* contract (parallel mixed vs parallel fp64 —
identical trajectory definition, tight tolerance) and the *sharding*
contract (parallel fp64 vs serial fp64 — different but convergent
trajectories, loose tolerance; see ``docs/performance.md``).

A fixed numpy *calibration* workload is timed alongside so CI can gate
on machine-normalised numbers instead of raw wall clock.

Usage::

    PYTHONPATH=src python benchmarks/bench_train_throughput.py           # full
    PYTHONPATH=src python benchmarks/bench_train_throughput.py --tiny    # CI
    PYTHONPATH=src python benchmarks/bench_train_throughput.py --tiny \
        --check benchmarks/artifacts/BENCH_pr3_tiny.json
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

import numpy as np

from common import bench_config
from repro.core.pipeline import IRFusionPipeline
from repro.models import create_model, preferred_loss
from repro.train.trainer import Trainer, TrainConfig

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Allowed calibrated slowdown of the parallel mixed arm vs the committed
#: baseline before --check fails (the CI regression gate).
REGRESSION_LIMIT = 1.25

#: Relative final-loss agreement required between the parallel fp64 and
#: parallel mixed arms: identical trajectory definition, so any gap is
#: purely the fp32 compute path (the precision contract).
PRECISION_LOSS_TOLERANCE = 1e-3

#: Relative final-loss agreement required between the serial and sharded
#: fp64 arms.  These are *different* (both valid) trajectories — ghost
#: batch-norm statistics and per-shard loss normalisation — that converge
#: to comparable optima, so mid-training the gap is loose (the sharding
#: contract; see docs/performance.md).
SHARDING_LOSS_TOLERANCE = 0.10


def calibration_seconds(rounds: int = 5) -> float:
    """Fixed numpy workload: a machine-speed yardstick for CI comparisons."""
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


def build_training_set(tiny: bool):
    """One shared feature-extraction pass; every arm trains on it."""
    if tiny:
        config = bench_config(
            pixels=16,
            num_fake=3,
            num_real_train=2,
            num_real_test=1,
            base_channels=4,
            depth=2,
            oversample_fake=2,
            oversample_real=2,
        )
    else:
        # 80x80 maps: large enough that kernel time (not Python overhead)
        # dominates an epoch, closer to the contest's real map sizes.
        config = bench_config(
            pixels=80,
            num_fake=6,
            num_real_train=3,
            num_real_test=2,
            oversample_fake=2,
            oversample_real=3,
        )
    pipeline = IRFusionPipeline(config)
    train_raw, _ = pipeline.build_datasets()
    train_set = pipeline.prepare_training_set(train_raw)
    return config, len(train_raw.channels), train_set


def _time_one_arm(config, in_channels: int, train_set, train_cfg, repeats: int):
    """Fresh model/trainer, two untimed warm epochs, *repeats* timed
    epochs; returns (per-epoch seconds, final loss).

    Two warm epochs, not one: the first large-temporary epochs also pay
    the allocator's mmap-threshold adaptation, which a single warm epoch
    does not fully absorb.
    """
    model = create_model(
        config.model_name,
        in_channels=in_channels,
        base_channels=config.base_channels,
        depth=config.depth,
    )
    trainer = Trainer(model, preferred_loss(config.model_name), train_cfg)
    rng = np.random.default_rng(0)
    trainer._run_epoch(train_set, rng)  # warm: arenas, caches
    trainer._run_epoch(train_set, rng)  # warm: allocator steady state
    seconds = []
    loss = float("nan")
    for _ in range(repeats):
        start = time.perf_counter()
        loss = trainer._run_epoch(train_set, rng)
        seconds.append(time.perf_counter() - start)
    return seconds, float(loss)


def _run_arm_isolated(config, in_channels, train_set, train_cfg, repeats):
    """Run one arm, in a forked child where the platform allows.

    Forking gives every measurement the identical starting state of the
    parent (features extracted, no training yet): arms timed back to
    back in one process inherit the allocator churn of their
    predecessors and measure several percent slower for it.
    """
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return _time_one_arm(config, in_channels, train_set, train_cfg, repeats)
    queue = ctx.SimpleQueue()

    def _child():
        queue.put(
            _time_one_arm(config, in_channels, train_set, train_cfg, repeats)
        )

    process = ctx.Process(target=_child)
    process.start()
    result = queue.get()
    process.join()
    return result


def time_arms(
    config, in_channels: int, train_set, arm_cfgs: dict, repeats: int,
    cycles: int = 2,
) -> dict:
    """Time every arm over *cycles* isolated rounds; best-of-all wins.

    A single contiguous run of one arm is exposed to minutes-long
    slowdowns outside the benchmark's control (shared-host neighbours,
    background daemons): whichever arm is running during the slowdown
    gets blamed for it and the ratios skew.  Cycling through the arms
    more than once decorrelates arm identity from wall-clock time, and
    the per-arm best across all cycles picks each arm's quiet
    measurement.
    """
    seconds = {name: [] for name in arm_cfgs}
    losses = {}
    for _ in range(max(cycles, 1)):
        for name, train_cfg in arm_cfgs.items():
            cycle_seconds, loss = _run_arm_isolated(
                config, in_channels, train_set, train_cfg, repeats
            )
            seconds[name].extend(cycle_seconds)
            losses[name] = loss
    arms = {}
    for name, train_cfg in arm_cfgs.items():
        best = float(np.min(seconds[name]))
        arms[name] = {
            "seconds_per_epoch_best": best,
            "seconds_per_epoch_mean": float(np.mean(seconds[name])),
            "samples_per_second_best": len(train_set) / best,
            "final_loss": losses[name],
            "jobs": train_cfg.jobs,
            "precision": train_cfg.precision,
            "grad_shards": train_cfg.grad_shards,
        }
    return arms


def run_bench(tiny: bool, repeats: int, cycles: int = 2) -> dict:
    config, in_channels, train_set = build_training_set(tiny)
    batch_size = 8 if tiny else 16

    def cfg(**kwargs) -> TrainConfig:
        return TrainConfig(batch_size=batch_size, lr=config.train.lr, **kwargs)

    arms = time_arms(
        config,
        in_channels,
        train_set,
        {
            "serial_fp64": cfg(),
            "serial_mixed": cfg(precision="mixed"),
            "parallel_fp64": cfg(jobs=4),
            "parallel_mixed": cfg(jobs=4, precision="mixed"),
        },
        repeats,
        cycles=cycles,
    )
    base = arms["serial_fp64"]["seconds_per_epoch_best"]
    calibration = calibration_seconds()
    serial_loss = arms["serial_fp64"]["final_loss"]
    sharded_loss = arms["parallel_fp64"]["final_loss"]
    mixed_loss = arms["parallel_mixed"]["final_loss"]
    precision_rel = abs(mixed_loss - sharded_loss) / max(abs(sharded_loss), 1e-12)
    sharding_rel = abs(sharded_loss - serial_loss) / max(abs(serial_loss), 1e-12)
    return {
        "bench": "train_throughput",
        "tiny": tiny,
        "repeats": repeats,
        "cycles": cycles,
        "pixels": config.pixels,
        "num_samples": len(train_set),
        "batch_size": batch_size,
        "cpu_count": os.cpu_count(),
        "calibration_seconds": calibration,
        "arms": arms,
        "speedups_vs_serial_fp64": {
            name: base / arm["seconds_per_epoch_best"]
            for name, arm in arms.items()
            if name != "serial_fp64"
        },
        "loss_agreement": {
            "serial_fp64_final_loss": serial_loss,
            "parallel_fp64_final_loss": sharded_loss,
            "parallel_mixed_final_loss": mixed_loss,
            # same trajectory, fp32 kernels vs fp64 kernels
            "precision_rel_diff": precision_rel,
            "precision_tolerance": PRECISION_LOSS_TOLERANCE,
            # different (sharded ghost-BN) trajectory vs the classic loop
            "sharding_rel_diff": sharding_rel,
            "sharding_tolerance": SHARDING_LOSS_TOLERANCE,
            "passed": bool(
                precision_rel <= PRECISION_LOSS_TOLERANCE
                and sharding_rel <= SHARDING_LOSS_TOLERANCE
            ),
        },
        # best-of-repeats over the machine yardstick: the noise-robust
        # number the CI regression gate compares across runners.
        "parallel_mixed_calibrated": (
            arms["parallel_mixed"]["seconds_per_epoch_best"] / calibration
        ),
    }


def check_regression(results: dict, baseline_path: Path) -> int:
    """CI gate: loss agreement + <=25% calibrated throughput regression."""
    if not results["loss_agreement"]["passed"]:
        print(f"FAIL: loss agreement broke ({results['loss_agreement']})")
        return 1
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("tiny") != results["tiny"]:
        print("FAIL: baseline and current run use different scales "
              f"(baseline tiny={baseline.get('tiny')}, "
              f"current tiny={results['tiny']}); compare like for like")
        return 1
    base = baseline["parallel_mixed_calibrated"]
    now = results["parallel_mixed_calibrated"]
    ratio = now / base
    print(f"calibrated parallel_mixed epoch: baseline={base:.3f} "
          f"now={now:.3f} ratio={ratio:.3f} (limit {REGRESSION_LIMIT})")
    if ratio > REGRESSION_LIMIT:
        print(f"FAIL: training throughput regressed {ratio:.2f}x vs baseline")
        return 1
    print("regression gate passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="reduced scale for CI smoke runs")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed epochs per arm and cycle "
                             "(after two warm epochs)")
    parser.add_argument("--cycles", type=int, default=2,
                        help="isolated measurement rounds per arm; the "
                             "headline is the best epoch across all")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_pr3.json")
    parser.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                        help="compare against a committed BENCH_pr3 baseline "
                             f"and fail on >{(REGRESSION_LIMIT - 1):.0%} "
                             "calibrated regression or loss disagreement")
    args = parser.parse_args(argv)

    results = run_bench(
        tiny=args.tiny, repeats=args.repeats, cycles=args.cycles
    )
    args.out.write_text(json.dumps(results, indent=2) + "\n")

    print(f"wrote {args.out}")
    for name, arm in results["arms"].items():
        print(f"{name:14s} {arm['seconds_per_epoch_best']:.3f}s/epoch "
              f"({arm['samples_per_second_best']:.0f} samples/s)")
    for name, speedup in results["speedups_vs_serial_fp64"].items():
        print(f"speedup[{name}] = {speedup:.2f}x")
    print(f"loss agreement: {results['loss_agreement']}")

    if args.check is not None:
        return check_regression(results, args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
