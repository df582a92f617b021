"""End-to-end pipeline benchmark: legacy hot paths vs the optimised ones.

Three measurements, written to ``BENCH_pr2.json``:

1. **analyze_design e2e** — the same trained pipeline analysing the same
   designs twice: once through the *legacy* hot paths (cold AMG setup on
   every solve, Python-loop feature rasterisation — faithful copies of
   the pre-optimisation implementations are patched in at every import
   site) and once through the shipped paths (warm AMG setup cache,
   vectorised scatters).  Both runs must agree numerically: solver
   voltages bitwise, feature/prediction maps to 1e-10 (reordered
   reductions).
2. **BatchAnalyzer scaling** — wall-clock for the same >=8-design batch
   at ``jobs`` = 1 / 2 / 4.  ``cpu_count`` is recorded alongside: on a
   single-core runner the parallel numbers legitimately show no speedup.
3. **calibration** — a fixed numpy workload timed on the same machine,
   so CI can compare *calibrated* analyze times across runners instead
   of raw wall-clock.

Usage::

    PYTHONPATH=src python benchmarks/bench_e2e_pipeline.py            # full
    PYTHONPATH=src python benchmarks/bench_e2e_pipeline.py --tiny     # CI
    PYTHONPATH=src python benchmarks/bench_e2e_pipeline.py --tiny \
        --check BENCH_pr2.json      # fail on >25% calibrated regression
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from repro.core.batch import BatchAnalyzer
from repro.core.config import FusionConfig
from repro.core.pipeline import IRFusionPipeline
from repro.obs import trace
from repro.grid.geometry import GridGeometry
from repro.grid.netlist import PGNode, PowerGrid
from repro.grid.raster import rasterize as _new_rasterize
from repro.solvers.cache import clear_setup_cache, setup_cache_disabled
from repro.train.trainer import TrainConfig

from common import append_trajectory, attach_provenance, calibration_seconds

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Allowed calibrated slowdown of the optimised analyze path vs the
#: committed baseline before --check fails (the CI regression gate).
REGRESSION_LIMIT = 1.25


# ---------------------------------------------------------------------------
# Legacy implementations (faithful copies of the pre-optimisation code).
# These are the "before" side of the comparison; keep them verbatim.
# ---------------------------------------------------------------------------


def _legacy_rasterize(geometry, nodes, values, reduce="max", fill=0.0):
    if reduce not in ("max", "mean", "sum"):
        raise ValueError(f"unknown reduction {reduce!r}")
    if len(nodes) != len(values):
        raise ValueError(f"{len(nodes)} nodes but {len(values)} values")
    shape = geometry.shape
    if reduce == "max":
        image = np.full(shape, -np.inf, dtype=float)
    else:
        image = np.zeros(shape, dtype=float)
    counts = np.zeros(shape, dtype=np.int64)
    for node, value in zip(nodes, values):
        if node.structured is None:
            continue
        row, col = geometry.node_pixel(node.structured)
        counts[row, col] += 1
        if reduce == "max":
            if value > image[row, col]:
                image[row, col] = value
        else:
            image[row, col] += value
    empty = counts == 0
    if reduce == "mean":
        occupied = ~empty
        image[occupied] /= counts[occupied]
    image[empty] = fill
    return image


def _legacy_layer_values_image(
    geometry, grid, full_values, layer, reduce="max", fill=0.0
):
    if full_values.shape != (grid.num_nodes,):
        raise ValueError(
            f"expected one value per grid node ({grid.num_nodes}), "
            f"got shape {full_values.shape}"
        )
    nodes = grid.nodes_on_layer(layer)
    values = np.array([full_values[n.index] for n in nodes], dtype=float)
    return _legacy_rasterize(geometry, nodes, values, reduce=reduce, fill=fill)


def _legacy_pixels_on_span(geometry, start, end):
    (x0, y0), (x1, y1) = start, end
    r0, c0 = geometry.to_pixel(x0, y0)
    r1, c1 = geometry.to_pixel(x1, y1)
    if (r0, c0) == (r1, c1):
        return [(r0, c0)]
    if r0 == r1:
        lo, hi = sorted((c0, c1))
        return [(r0, c) for c in range(lo, hi + 1)]
    if c0 == c1:
        lo, hi = sorted((r0, r1))
        return [(r, c0) for r in range(lo, hi + 1)]
    steps = max(abs(r1 - r0), abs(c1 - c0))
    pixels = {
        (
            round(r0 + (r1 - r0) * t / steps),
            round(c0 + (c1 - c0) * t / steps),
        )
        for t in range(steps + 1)
    }
    return sorted(pixels)


def _legacy_resistance_map(geometry, grid):
    image = np.zeros(geometry.shape, dtype=float)
    skipped = 0
    for wire in grid.wires:
        if not np.isfinite(wire.resistance) or wire.resistance < 0:
            skipped += 1
            continue
        node_a = grid.node(wire.node_a)
        node_b = grid.node(wire.node_b)
        if node_a.structured is None or node_b.structured is None:
            continue
        pixels = _legacy_pixels_on_span(
            geometry, node_a.structured.position, node_b.structured.position
        )
        share = wire.resistance / len(pixels)
        for row, col in pixels:
            image[row, col] += share
    if skipped:
        warnings.warn(
            f"resistance_map: skipped {skipped} wire(s) with non-finite or "
            "negative resistance",
            RuntimeWarning,
            stacklevel=2,
        )
    return image


def _legacy_shortest_path_resistances(grid):
    import heapq

    distances = np.full(grid.num_nodes, np.inf, dtype=float)
    heap = []
    for pad in grid.pads():
        distances[pad.index] = 0.0
        heapq.heappush(heap, (0.0, pad.index))
    while heap:
        dist, node = heapq.heappop(heap)
        if dist > distances[node]:
            continue
        for wire in grid.wires_at(node):
            other = wire.other(node)
            candidate = dist + wire.resistance
            if candidate < distances[other]:
                distances[other] = candidate
                heapq.heappush(heap, (candidate, other))
    return distances


def _legacy_shortest_path_resistance_map(geometry, grid, layer=1):
    distances = _legacy_shortest_path_resistances(grid)
    if layer is None:
        nodes = [n for n in grid.nodes if n.structured is not None]
    else:
        nodes = grid.nodes_on_layer(layer)
    finite_nodes = [n for n in nodes if np.isfinite(distances[n.index])]
    if nodes and not finite_nodes:
        warnings.warn(
            "shortest_path_resistance_map: no node has a finite path "
            "resistance to a pad; returning zeros",
            RuntimeWarning,
            stacklevel=2,
        )
        return np.zeros(geometry.shape, dtype=float)
    dropped = len(nodes) - len(finite_nodes)
    if dropped:
        warnings.warn(
            f"shortest_path_resistance_map: ignoring {dropped} floating "
            "node(s) with infinite path resistance",
            RuntimeWarning,
            stacklevel=2,
        )
    values = np.array([distances[n.index] for n in finite_nodes], dtype=float)
    return _legacy_rasterize(geometry, finite_nodes, values, reduce="mean")


def _legacy_pdn_density_map(geometry, grid, layer=None):
    if layer is None:
        nodes = [n for n in grid.nodes if n.structured is not None]
    else:
        nodes = grid.nodes_on_layer(layer)
    ones = np.ones(len(nodes), dtype=float)
    return _legacy_rasterize(geometry, nodes, ones, reduce="sum")


def _legacy_connected_components(grid):
    import networkx as nx

    from repro.grid.topology import to_networkx

    return [set(c) for c in nx.connected_components(to_networkx(grid))]


def _legacy_floating_nodes(grid):
    pad_indices = {n.index for n in grid.pads()}
    floating = set()
    for component in _legacy_connected_components(grid):
        if component.isdisjoint(pad_indices):
            floating |= component
    return floating


@contextlib.contextmanager
def legacy_feature_paths():
    """Swap the legacy implementations in at every import site."""
    import repro.features.density as density
    import repro.features.fusion as fusion
    import repro.features.numerical as numerical
    import repro.features.resistance as resistance
    import repro.grid.topology as topology
    import repro.solvers.powerrush as powerrush

    patches = [
        # validate/repair import these lazily, so the source module works.
        (topology, "connected_components", _legacy_connected_components),
        (topology, "floating_nodes", _legacy_floating_nodes),
        (fusion, "resistance_map", _legacy_resistance_map),
        (fusion, "shortest_path_resistance_map",
         _legacy_shortest_path_resistance_map),
        (fusion, "pdn_density_map", _legacy_pdn_density_map),
        (resistance, "resistance_map", _legacy_resistance_map),
        (resistance, "shortest_path_resistance_map",
         _legacy_shortest_path_resistance_map),
        (density, "pdn_density_map", _legacy_pdn_density_map),
        (numerical, "layer_values_image", _legacy_layer_values_image),
        (powerrush, "layer_values_image", _legacy_layer_values_image),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, impl in patches:
            setattr(mod, name, impl)
        yield
    finally:
        for mod, name, impl in saved:
            setattr(mod, name, impl)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def build_pipeline(tiny: bool) -> IRFusionPipeline:
    config = FusionConfig(
        pixels=16 if tiny else 32,
        num_fake=4,
        num_real_train=2,
        num_real_test=4,
        data_seed=7,
        solver_iterations=2,
        base_channels=4,
        depth=2 if tiny else 3,
        train=TrainConfig(epochs=1 if tiny else 2, batch_size=4),
        augment=False,
        oversample_fake=1,
        oversample_real=1,
    )
    pipeline = IRFusionPipeline(config)
    pipeline.train()
    return pipeline


def time_analyze(pipeline, designs, repeats: int) -> dict:
    """Per-repeat mean e2e seconds plus the stage breakdown.

    Each repeat runs under a :mod:`repro.obs` tracer and the stage
    numbers are read off the span tree (summed ``solve``/``features``/
    ``inference`` durations), so the breakdown is exactly what a traced
    ``analyze --trace`` run would export — one timing source, no private
    stopwatch drift.
    """
    totals, solver, feature, model = [], [], [], []
    for _ in range(repeats):
        start = time.perf_counter()
        with trace("bench_analyze") as tracer:
            for design in designs:
                pipeline.analyze_design(design)
        totals.append(time.perf_counter() - start)
        root = tracer.root
        analyses = [s for s in root.iter_spans() if s.name == "analyze"]
        solver.extend(s.total("solve") for s in analyses)
        feature.extend(s.total("features") for s in analyses)
        model.extend(s.total("inference") for s in analyses)
    return {
        "seconds_mean": float(np.mean(totals)) / len(designs),
        "seconds_best": float(np.min(totals)) / len(designs),
        "solver_seconds_mean": float(np.mean(solver)),
        "feature_seconds_mean": float(np.mean(feature)),
        "model_seconds_mean": float(np.mean(model)),
    }


def run_equivalence(pipeline, designs) -> dict:
    """Legacy path and optimised path must agree numerically."""
    volt_bitwise = True
    feat_diff = 0.0
    pred_diff = 0.0
    for design in designs:
        clear_setup_cache()
        with setup_cache_disabled(), legacy_feature_paths():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                legacy = pipeline.analyze_design(design)
        new = pipeline.analyze_design(design)
        volt_bitwise &= np.array_equal(
            legacy.report.voltages, new.report.voltages
        )
        feat_diff = max(
            feat_diff,
            float(np.abs(legacy.features.data - new.features.data).max()),
        )
        pred_diff = max(
            pred_diff,
            float(np.abs(legacy.predicted_drop - new.predicted_drop).max()),
        )
    return {
        "voltages_bitwise": bool(volt_bitwise),
        "features_max_abs_diff": feat_diff,
        "predicted_max_abs_diff": pred_diff,
        "tolerance": 1e-10,
        "passed": bool(volt_bitwise)
        and feat_diff <= 1e-10
        and pred_diff <= 1e-10,
    }


def run_batch_scaling(pipeline, designs) -> dict:
    scaling = {}
    for jobs in (1, 2, 4):
        report = BatchAnalyzer(pipeline, jobs=jobs).analyze_designs(designs)
        scaling[str(jobs)] = {
            "wall_seconds": report.total_seconds,
            "failed": report.num_failed,
            "degraded": report.degraded,
        }
    return {
        "num_designs": len(designs),
        "jobs": scaling,
        "note": (
            "near-linear scaling requires as many physical cores as jobs; "
            "compare against cpu_count"
        ),
    }


def run_bench(tiny: bool, repeats: int) -> dict:
    pipeline = build_pipeline(tiny)
    train_designs, test_designs = pipeline.generate_designs()
    all_designs = train_designs + test_designs  # >= 8 designs for the batch

    # Optimised path: warm the AMG setup cache, then measure.
    for design in test_designs:
        pipeline.analyze_design(design)
    optimized = time_analyze(pipeline, test_designs, repeats)

    # Legacy path: cold setup every solve + loop-based rasterisation.
    with setup_cache_disabled(), legacy_feature_paths():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            pipeline.analyze_design(test_designs[0])  # warm imports, not cache
            legacy = time_analyze(pipeline, test_designs, repeats)

    calibration = calibration_seconds()
    return {
        "bench": "e2e_pipeline",
        "tiny": tiny,
        "repeats": repeats,
        "pixels": pipeline.config.pixels,
        "num_designs_analyzed": len(test_designs),
        "cpu_count": os.cpu_count(),
        "calibration_seconds": calibration,
        "analyze_design": {
            "legacy": legacy,
            "optimized": optimized,
            "speedup": legacy["seconds_mean"] / optimized["seconds_mean"],
            # best-of-repeats over the machine yardstick: the noise-robust
            # number the CI regression gate compares across runners.
            "optimized_calibrated": optimized["seconds_best"] / calibration,
        },
        "equivalence": run_equivalence(pipeline, test_designs),
        "batch_scaling": run_batch_scaling(pipeline, all_designs),
    }


def check_regression(results: dict, baseline_path: Path) -> int:
    """CI gate: fail when the calibrated analyze time regresses >25%."""
    if not results["equivalence"]["passed"]:
        print("FAIL: legacy/optimized outputs disagree "
              f"({results['equivalence']})")
        return 1
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("tiny") != results["tiny"]:
        print("FAIL: baseline and current run use different scales "
              f"(baseline tiny={baseline.get('tiny')}, "
              f"current tiny={results['tiny']}); compare like for like")
        return 1
    base = baseline["analyze_design"]["optimized_calibrated"]
    now = results["analyze_design"]["optimized_calibrated"]
    ratio = now / base
    print(f"calibrated analyze: baseline={base:.3f} now={now:.3f} "
          f"ratio={ratio:.3f} (limit {REGRESSION_LIMIT})")
    if ratio > REGRESSION_LIMIT:
        print(f"FAIL: analyze_design regressed {ratio:.2f}x vs baseline")
        return 1
    print("regression gate passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="reduced grid for CI smoke runs")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_pr2.json")
    parser.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                        help="compare against a committed BENCH_pr2.json and "
                             f"fail on >{(REGRESSION_LIMIT - 1):.0%} "
                             "calibrated regression")
    args = parser.parse_args(argv)

    results = attach_provenance(
        run_bench(tiny=args.tiny, repeats=args.repeats), "e2e_pipeline"
    )
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    append_trajectory({
        "bench": results["bench"],
        "git_sha": results["git_sha"],
        "timestamp": results["timestamp"],
        "tiny": results["tiny"],
        "speedup": results["analyze_design"]["speedup"],
        "optimized_calibrated": (
            results["analyze_design"]["optimized_calibrated"]
        ),
    })

    analyze = results["analyze_design"]
    print(f"wrote {args.out}")
    print(f"analyze_design: legacy={analyze['legacy']['seconds_mean'] * 1e3:.1f}ms "
          f"optimized={analyze['optimized']['seconds_mean'] * 1e3:.1f}ms "
          f"speedup={analyze['speedup']:.2f}x")
    print(f"equivalence: {results['equivalence']}")
    for jobs, row in results["batch_scaling"]["jobs"].items():
        print(f"batch jobs={jobs}: wall={row['wall_seconds']:.2f}s "
              f"failed={row['failed']} degraded={row['degraded']}")

    if args.check is not None:
        return check_regression(results, args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
