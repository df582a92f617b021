"""The seven workloads, declared as ``(generator, params, seed)`` records.

Every workload measures the program **from outside**: an op is one call
into a public entry point (``analyze_text``, ``simulate_grid``,
``Trainer.fit``, ``POST /analyze``, ``BatchAnalyzer.analyze_files``,
``greedy_pad_placement``), and the *staged* variant of the same op calls
the public functions that entry point calls, one by one, each under a
benchmark-owned span (:mod:`spans`).  The staged output must equal the
entry point's bitwise — that is what makes the per-layer numbers a
breakdown of the end-to-end one and not of some other computation.

Interface the runner (:mod:`child`) drives, per workload instance:

``setup()``      timed as ``setup_s``; builds inputs from the records
``prepare(k)``   untimed prelude of op *k* (cache clears)
``op(k)``        timed; returns the op's output
``staged(k, rec)`` the same op through the layers, under spans
``check(k, out, staged)`` untimed; list of problems (empty = correct)
``teardown()``   always runs, also after a failed set-up
``samples`` / ``scalars`` / ``derive()`` per-op samples, one-off timings and
ratios that become per-layer metrics
"""

from __future__ import annotations

import http.client
import json
import os
import zlib
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.batch import BatchAnalyzer
from repro.core.config import FusionConfig
from repro.core.pipeline import IRFusionPipeline
from repro.core.pool import get_pool, shutdown_pool
from repro.core.shm import ARENA
from repro.data.dataset import DesignSample
from repro.data.synthetic import generate_design, make_fake_spec, make_real_spec
from repro.eval.evaluate import evaluate_rough_solutions, evaluate_trainer
from repro.features.fusion import assemble_feature_stack, channel_names
from repro.grid.geometry import infer_geometry
from repro.grid.netlist import PowerGrid
from repro.grid.raster import layer_values_image
from repro.mna.stamper import build_reduced_system
from repro.models.registry import preferred_loss
from repro.nn.serialize import save_state
from repro.obs import counters_delta, metrics_snapshot
from repro.opt.pad_placement import greedy_pad_placement
from repro.serve import ServeDaemon, ServeOptions
from repro.solvers.base import SolverOptions
from repro.solvers.cache import clear_setup_cache, global_setup_cache
from repro.solvers.direct import DirectSolver
from repro.solvers.guard import FallbackCascade
from repro.solvers.incremental import (
    AddPad,
    IncrementalEngine,
    IncrementalOptions,
)
from repro.solvers.powerrush import PRESETS, PowerRushSimulator
from repro.spice.parser import parse_spice
from repro.spice.validate import repair_grid, validate_grid
from repro.spice.writer import netlist_to_string, write_spice
from repro.train.trainer import TrainConfig, Trainer

#: Client threads and pool jobs; fixed so a number means the same thing
#: on every box (a host with fewer cores is stamped "unverified").
PARALLELISM = 2


# -- records -------------------------------------------------------------------


@dataclass(frozen=True)
class Record:
    """One generated input: everything needed to rebuild it, and nothing else."""

    generator: str
    params: dict
    seed: int

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "Record":
        return cls(payload["generator"], dict(payload["params"]), int(payload["seed"]))

    def build(self):
        return GENERATORS[self.generator](self)


def _design(maker, kind: str):
    def build(record: Record):
        spec = maker(f"{kind}_{record.seed}", seed=record.seed, **record.params)
        return generate_design(spec)

    return build


def _fusion_config(record: Record) -> FusionConfig:
    params = dict(record.params)
    train = TrainConfig(**params.pop("train"))
    return FusionConfig(data_seed=record.seed, train=train, **params)


GENERATORS = {
    "make_fake_spec": _design(make_fake_spec, "fake"),
    "make_real_spec": _design(make_real_spec, "real"),
    "fusion_config": _fusion_config,
}


def derive_seeds(seed: int, workload: str, count: int) -> list[int]:
    """*count* input seeds, a pure function of ``(--seed, workload name)``."""
    sequence = np.random.SeedSequence([seed, zlib.crc32(workload.encode())])
    return [int(s) for s in sequence.generate_state(count, dtype=np.uint32)]


def design_records(
    seed: int, workload: str, count: int, pixels: int, kinds: str
) -> list[Record]:
    """*count* design records; *kinds* is ``"real"`` or ``"mixed"`` (alternating)."""
    records = []
    for k, design_seed in enumerate(derive_seeds(seed, workload, count)):
        fake = kinds == "mixed" and k % 2 == 0
        generator = "make_fake_spec" if fake else "make_real_spec"
        records.append(Record(generator, {"pixels": pixels}, design_seed))
    return records


# -- shared pieces -------------------------------------------------------------


def write_model_file(directory: str, design) -> str:
    """An untrained, seeded checkpoint pair as ``repro train`` writes it.

    Timing does not depend on the weights, so set-up skips training; the
    pair is loaded back through ``IRFusionPipeline.from_model_file``, the
    load path the CLI and the daemon's registry share.
    """
    os.makedirs(directory, exist_ok=True)
    config = FusionConfig(pixels=design.spec.pixels)
    channels = len(channel_names(config.features, design.grid.layers_present()))
    model = IRFusionPipeline(config).build_model(channels)
    path = os.path.join(directory, "bench.npz")
    save_state(model, path)
    meta = {
        "in_channels": channels,
        "config": {
            "pixels": config.pixels,
            "base_channels": config.base_channels,
            "depth": config.depth,
            "solver_iterations": config.solver_iterations,
        },
    }
    with open(path + ".json", "w", encoding="utf-8") as handle:
        json.dump(meta, handle)
    return path


@dataclass
class Solved:
    grid: PowerGrid
    voltages: np.ndarray
    converged: bool
    stats: dict = field(default_factory=dict)


def staged_solve(rec, grid, supply, max_iterations, tol, preset) -> Solved:
    """``PowerRushSimulator.simulate_grid`` taken apart, one span per layer.

    The AMG hierarchy is built (or found) through the process-wide setup
    cache under its own span; the cascade's own lookup inside the ``pcg``
    span is then always a hit on that same object, so the iterate stream
    is the one ``simulate_grid`` produces.
    """
    amg_options, cycle_options = PRESETS[preset]
    with rec.span("spice.validate"):
        validate_grid(grid)
        grid, repairs = repair_grid(grid, supply)
    with rec.span("mna.stamp"):
        system = build_reduced_system(grid, validate=False)
    with rec.span("solvers.amg_setup"):
        _, hit = global_setup_cache().get_or_build(system.matrix, amg_options)
    with rec.span("solvers.pcg"):
        cascade = FallbackCascade(
            options=SolverOptions(tol=tol, max_iterations=max_iterations),
            amg_options=amg_options,
            cycle_options=cycle_options,
        )
        result, diagnostics = cascade.solve(
            system.matrix, system.rhs, x0=np.full(system.size, supply, dtype=float)
        )
    residual = np.linalg.norm(system.rhs - system.matrix @ result.x)
    stats = {
        "spice.repairs": len(repairs),
        "grid.nodes": grid.num_nodes,
        "mna.nnz": system.matrix.nnz,
        "solvers.amg_cache_hit_ratio": 1.0 if hit else 0.0,
        "solvers.pcg_iterations": result.iterations,
        "solvers.rel_residual": float(residual / np.linalg.norm(system.rhs)),
        "solvers.fallbacks": len(diagnostics.fallbacks),
    }
    return Solved(grid, system.scatter(result.x), result.converged, stats)


def staged_analyze(rec, pipeline, k, *, text=None, design=None):
    """``analyze_text`` / ``analyze_design`` through the layers; returns the map."""
    config = pipeline.config
    with rec.span("core.pipeline.analyze", op=k):
        stats = {}
        if text is not None:
            with rec.span("spice.parse"):
                netlist = parse_spice(text)
            with rec.span("grid.build"):
                grid = PowerGrid.from_netlist(netlist)
            with rec.span("grid.infer_geometry"):
                geometry = infer_geometry(grid, align_pixels=2**config.depth)
            supply = netlist.supply_voltage()
            stats["spice.deck_bytes"] = len(text)
        else:
            grid, geometry = design.grid, design.geometry
            supply = design.spec.supply_voltage
        solved = staged_solve(
            rec, grid, supply, config.solver_iterations, 1e-10, config.solver_preset
        )
        drop = supply - solved.voltages
        rough = layer_values_image(geometry, solved.grid, drop, layer=1, reduce="max")
        with rec.span("features.assemble"):
            features = assemble_feature_stack(
                geometry,
                solved.grid,
                config.features,
                voltages=solved.voltages,
                supply_voltage=supply,
            )
        with rec.span("nn.predict"):
            probe = DesignSample(
                name="analysis",
                kind="real",
                features=features,
                label=np.zeros(features.shape),
                rough_label=rough,
            )
            predicted = pipeline.trainer.predict([probe])[0]
    stats.update(solved.stats)
    stats["features.channels"] = features.num_channels
    return predicted, stats


def map_problems(predicted, shape, reference) -> list[str]:
    problems = []
    if predicted.shape != tuple(shape):
        problems.append(f"map shape {predicted.shape} != geometry {tuple(shape)}")
    if not np.all(np.isfinite(predicted)):
        problems.append("non-finite prediction")
    if not np.array_equal(predicted, reference):
        problems.append("prediction differs bitwise from the pipeline's")
    return problems


class Workload:
    """Base: records, the per-layer sample store, and no-op hooks."""

    name = ""
    why = ""
    #: Concurrent closed-loop callers issuing ops.
    clients = 1
    #: (root span name, metric for its duration, metric for its self time)
    root = (None, None, None)
    #: Per-layer name for the op-time p90, where the sample supports one.
    tail_metric = None
    #: ``"real"`` or ``"mixed"`` (fake/real alternating) design records.
    kinds = "real"
    sizes: dict = {}

    def __init__(self, seed: int, smoke: bool, workdir: str, calibrator=None) -> None:
        self.seed = seed
        #: :class:`refclock.Calibrator`; only needed to run, not to list records.
        self.calibrator = calibrator
        self.size = self.sizes["smoke" if smoke else "full"]
        self.workdir = workdir
        self.records = self.make_records()
        #: metric name -> per-op samples (median reported) or one scalar.
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.scalars: dict[str, float] = {}

    @property
    def min_ops(self) -> int:
        """Every input is used at least once, whatever ``--seconds`` says."""
        return len(self.records)

    def make_records(self) -> list[Record]:
        return design_records(
            self.seed, self.name, self.size["designs"], self.size["pixels"], self.kinds
        )

    def stopwatch(self, name: str):
        """Time the body into ``scalars[name]``, in reference seconds."""
        return self.calibrator.stopwatch(self.scalars, name)

    def derive(self, values: dict) -> None:
        """Add ratios of already-aggregated per-layer values (in place)."""
        if values.get("solvers.pcg_iterations"):
            values["solvers.pcg_s_per_iter"] = (
                values["solvers.pcg_s"] / values["solvers.pcg_iterations"]
            )

    def note(self, stats: dict) -> None:
        for name, value in stats.items():
            self.samples[name].append(float(value))

    def prepare(self, k: int) -> None:
        pass

    def teardown(self) -> None:
        pass

    def finish(self) -> list[str]:
        """Checks that need the whole run; called once, before teardown."""
        return []


class _AnalyzeWorkload(Workload):
    """Shared by the two in-process analyze workloads."""

    root = ("core.pipeline.analyze", "core.pipeline.analyze_s", "core.pipeline.glue_s")

    def setup(self) -> None:
        self.designs = [record.build() for record in self.records]
        model_path = write_model_file(self.workdir, self.designs[0])
        with self.stopwatch("core.pipeline.model_load_s"):
            self.pipeline = IRFusionPipeline.from_model_file(model_path)
        self.scalars["nn.params"] = self.pipeline.model.num_parameters()
        self.reference: dict[int, np.ndarray] = {}

    def check(self, k: int, out, staged: bool) -> list[str]:
        i = k % len(self.designs)
        if i not in self.reference:
            # The first pipeline output per input is what every later
            # round, staged or not, must reproduce bit for bit.
            self.reference[i] = (
                self.op(k).predicted_drop if staged else out.predicted_drop
            )
        predicted = out if staged else out.predicted_drop
        return map_problems(
            predicted, self.designs[i].geometry.shape, self.reference[i]
        )


class DeckCold(_AnalyzeWorkload):
    name = "deck_cold"
    why = (
        "CLI path: parse to inference once per deck, no cache; spice+grid "
        "dominate, so a front-end or AMG-setup gain shows here"
    )
    sizes = {
        "full": {"designs": 6, "pixels": 96},
        "smoke": {"designs": 2, "pixels": 32},
    }
    kinds = "mixed"

    def setup(self) -> None:
        super().setup()
        self.texts = [netlist_to_string(d.netlist) for d in self.designs]

    def prepare(self, k: int) -> None:
        clear_setup_cache()

    def op(self, k: int):
        return self.pipeline.analyze_text(self.texts[k % len(self.texts)])

    def staged(self, k: int, rec):
        predicted, stats = staged_analyze(
            rec, self.pipeline, k, text=self.texts[k % len(self.texts)]
        )
        self.note(stats)
        return predicted


class GridWarm(_AnalyzeWorkload):
    name = "grid_warm"
    why = (
        "ECO repeats on built designs with AMG cache warm: PCG+features+nn do "
        "all the work, so a front-end change must not move it"
    )
    sizes = {
        "full": {"designs": 4, "pixels": 96},
        "smoke": {"designs": 2, "pixels": 32},
    }

    def setup(self) -> None:
        super().setup()
        clear_setup_cache()
        for i, design in enumerate(self.designs):
            self.reference[i] = self.pipeline.analyze_design(design).predicted_drop

    def op(self, k: int):
        return self.pipeline.analyze_design(self.designs[k % len(self.designs)])

    def staged(self, k: int, rec):
        predicted, stats = staged_analyze(
            rec, self.pipeline, k, design=self.designs[k % len(self.designs)]
        )
        self.note(stats)
        return predicted


class GoldenSolve(Workload):
    name = "golden_solve"
    why = (
        "label generation and sign-off: time to a solution within 1e-6 V of "
        "the direct solve; K-cycle PCG iterations dominate"
    )
    root = ("solvers.simulate", None, None)
    sizes = {
        "full": {"designs": 8, "pixels": 48},
        "smoke": {"designs": 2, "pixels": 16},
    }
    options = {"max_iterations": 1000, "tol": 1e-10, "preset": "quality"}
    max_err_v = 1e-6

    def setup(self) -> None:
        self.designs = [record.build() for record in self.records]
        self.exact: dict[int, np.ndarray] = {}

    def prepare(self, k: int) -> None:
        clear_setup_cache()

    def op(self, k: int):
        design = self.designs[k % len(self.designs)]
        report = PowerRushSimulator(**self.options).simulate_grid(
            design.grid, supply_voltage=design.spec.supply_voltage
        )
        return report.voltages, report.solve.converged

    def staged(self, k: int, rec):
        design = self.designs[k % len(self.designs)]
        with rec.span("solvers.simulate", op=k):
            solved = staged_solve(
                rec, design.grid, design.spec.supply_voltage, **self.options
            )
        self.note(solved.stats)
        return solved.voltages, solved.converged

    def _exact(self, i: int) -> np.ndarray:
        if i not in self.exact:
            design = self.designs[i]
            with self.stopwatch("solvers.direct_s"):
                system = build_reduced_system(design.grid)
                solution = DirectSolver().solve(system.matrix, system.rhs)
            self.exact[i] = system.scatter(solution.x)
        return self.exact[i]

    def check(self, k: int, out, staged: bool) -> list[str]:
        voltages, converged = out
        error = float(np.abs(voltages - self._exact(k % len(self.designs))).max())
        self.samples["solvers.max_err_v"].append(error)
        problems = [] if converged else ["solve did not converge"]
        if not error <= self.max_err_v:
            problems.append(f"max error {error:.3e} V > {self.max_err_v} V")
        return problems


class TrainEpoch(Workload):
    name = "train_epoch"
    why = (
        "the nn kernels with backward+Adam beside forward, so an inference-only "
        "shortcut that costs training shows; carries the fidelity guard"
    )
    root = ("train.epoch", "train.epoch_s", None)
    sizes = {
        "full": {
            "config": {
                "pixels": 32, "num_fake": 4, "num_real_train": 2,
                "num_real_test": 4, "base_channels": 8, "depth": 3,
                "augment": True, "oversample_fake": 1, "oversample_real": 2,
                "train": {"epochs": 1, "batch_size": 8, "lr": 1.5e-3},
            },
            "eval_after": 12,
        },
        "smoke": {
            "config": {
                "pixels": 16, "num_fake": 2, "num_real_train": 1,
                "num_real_test": 1, "base_channels": 4, "depth": 2,
                "augment": False, "oversample_fake": 1, "oversample_real": 1,
                "train": {"epochs": 1, "batch_size": 4, "lr": 1.5e-3},
            },
            "eval_after": 2,
        },
    }  # fmt: skip

    def make_records(self):
        (seed,) = derive_seeds(self.seed, self.name, 1)
        return [Record("fusion_config", self.size["config"], seed)]

    @property
    def min_ops(self) -> int:
        """Enough epochs for the fidelity guard, in whichever phase it falls."""
        return max(1, self.size["eval_after"] - self.epochs)

    def setup(self) -> None:
        config = self.records[0].build()
        pipeline = IRFusionPipeline(config)
        with self.stopwatch("train.dataset_build_s"):
            train_raw, self.test = pipeline.build_datasets()
        with self.stopwatch("data.augment_s"):
            self.prepared = pipeline.prepare_training_set(train_raw)
        model = pipeline.build_model(in_channels=len(self.prepared.channels))
        self.trainer = Trainer(
            model, loss=preferred_loss(config.model_name), config=config.train
        )
        self.scalars["nn.params"] = model.num_parameters()
        self.epochs = 0
        self.evaluated = False

    def op(self, k: int):
        return self.trainer.fit(self.prepared).final_loss

    def staged(self, k: int, rec):
        with rec.span("train.epoch", op=k):
            loss = self.op(k)
        self.note({"train.final_loss": loss})
        return loss

    def derive(self, values: dict) -> None:
        if "train.epoch_s" in values:
            values["train.samples_per_s"] = len(self.prepared) / values["train.epoch_s"]

    def check(self, k: int, out, staged: bool) -> list[str]:
        problems = [] if np.isfinite(out) else [f"epoch loss {out}"]
        self.epochs += 1
        if self.epochs == self.size["eval_after"]:
            problems += self._fidelity()
        return problems

    def _fidelity(self) -> list[str]:
        """Accuracy after a fixed epoch count, so the figures repeat exactly."""
        with self.stopwatch("train.eval_s"):
            _, fusion = evaluate_trainer(self.trainer, self.test)
        rough = evaluate_rough_solutions(self.test)
        self.scalars["train.mae_mv"] = fusion.mae * 1e3
        self.scalars["train.rough_mae_mv"] = rough.mae * 1e3
        self.scalars["train.f1_hotspot"] = fusion.f1
        self.evaluated = True
        if not fusion.mae < rough.mae:
            return [
                f"fusion MAE {fusion.mae:.3e} V not below rough {rough.mae:.3e} V"
            ]
        return []

    def finish(self) -> list[str]:
        return [] if self.evaluated else ["fidelity guard never ran"]


class ServeClosed(Workload):
    name = "serve_closed"
    why = (
        "the pipeline behind HTTP/JSON, admission queue and one executor; 2 "
        "closed-loop callers, so latency carries about one service time of queueing"
    )
    clients = PARALLELISM
    root = ("serve.request", None, "serve.http_overhead_s")
    tail_metric = "serve.latency_p90_s"
    kinds = "mixed"
    sizes = {
        "full": {"designs": 6, "pixels": 64},
        "smoke": {"designs": 2, "pixels": 16},
    }

    def setup(self) -> None:
        self.daemon = None
        designs = [record.build() for record in self.records]
        self.texts = [netlist_to_string(d.netlist) for d in designs]
        self.bodies = [json.dumps({"netlist": t}).encode() for t in self.texts]
        model_dir = os.path.join(self.workdir, "models")
        self.model_path = write_model_file(model_dir, designs[0])
        daemon = ServeDaemon(
            model_dir,
            options=ServeOptions(workers=1, queue_limit=16),
            port=0,
        )
        with self.stopwatch("serve.start_s"):
            self.address = daemon.start()
        self.daemon = daemon
        clear_setup_cache()
        for i in range(len(self.bodies)):
            self._post(i)  # loads the model and fills the AMG cache
        # Seeded uniform deck choice, fixed before the clock starts.
        rng = np.random.default_rng(derive_seeds(self.seed, self.name + ".mix", 1)[0])
        self.choice = rng.integers(0, len(self.bodies), size=4096)
        self.direct = None
        self.expected: dict[int, float] = {}
        self.scalars["serve.rejected"] = 0

    def _post(self, i: int) -> dict:
        body = self.bodies[i]
        connection = http.client.HTTPConnection(*self.address, timeout=120)
        try:
            connection.request(
                "POST", "/analyze", body=body,
                headers={"Content-Type": "application/json"},
            )  # fmt: skip
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        return {
            "deck": i,
            "status": response.status,
            "request_bytes": len(body),
            "response_bytes": len(raw),
            "doc": json.loads(raw),
        }

    def op(self, k: int) -> dict:
        return self._post(int(self.choice[k % len(self.choice)]))

    def staged(self, k: int, rec) -> dict:
        with rec.span("serve.request", op=k) as request:
            out = self.op(k)
        # The daemon reports its own queue and run intervals; they are
        # laid back from the reply so the request span's self time is
        # what HTTP, JSON and thread hand-offs cost.
        doc = out["doc"]
        end = request["end"]
        run = float(doc.get("run_seconds", 0.0))
        queued = float(doc.get("queued_seconds", 0.0))
        rec.add("serve.run", end - run, end, request)
        rec.add("serve.queue_wait", end - run - queued, end - run, request)
        cache = doc.get("result", {}).get("amg_setup_cache", {})
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        self.note(
            {
                "serve.request_bytes": out["request_bytes"],
                "serve.response_bytes": out["response_bytes"],
                "serve.amg_hit_ratio": cache.get("hits", 0) / max(lookups, 1),
            }
        )
        return out

    def _expected(self, i: int) -> float:
        if i not in self.expected:
            if self.direct is None:
                self.direct = IRFusionPipeline.from_model_file(self.model_path)
            result = self.direct.analyze_text(self.texts[i])
            self.expected[i] = result.worst_predicted_drop()
        return self.expected[i]

    def check(self, k: int, out, staged: bool) -> list[str]:
        doc = out["doc"]
        if out["status"] == 429:
            self.scalars["serve.rejected"] += 1
        if out["status"] != 200 or doc.get("state") != "done":
            return [f"HTTP {out['status']} state={doc.get('state')}"]
        worst = doc["result"]["worst_predicted_drop_volts"]
        if worst != self._expected(out["deck"]):
            return [f"worst drop {worst!r} != direct analyze_text"]
        return []

    def teardown(self) -> None:
        if self.daemon is not None:
            with self.stopwatch("serve.stop_s"):
                self.daemon.stop()
            self.daemon = None


class BatchPool(Workload):
    name = "batch_pool"
    why = (
        "the only workload where core.pool, core.shm and pickling work; every "
        "other one bypasses them, so a pool change must move nothing else"
    )
    root = ("core.pool.batch", "core.pool.batch_s", None)
    sizes = {
        "full": {"designs": 6, "pixels": 64},
        "smoke": {"designs": 2, "pixels": 16},
    }

    @property
    def min_ops(self) -> int:
        return 2

    def setup(self) -> None:
        designs = [record.build() for record in self.records]
        deck_dir = os.path.join(self.workdir, "decks")
        os.makedirs(deck_dir, exist_ok=True)
        self.paths = []
        for i, design in enumerate(designs):
            self.paths.append(os.path.join(deck_dir, f"deck_{i}.sp"))
            write_spice(design.netlist, self.paths[-1])
        model_path = write_model_file(self.workdir, designs[0])
        with self.stopwatch("core.pipeline.model_load_s"):
            self.pipeline = IRFusionPipeline.from_model_file(model_path)
        with self.stopwatch("core.pool.spawn_s"):
            get_pool(PARALLELISM).map(abs, range(PARALLELISM), jobs=PARALLELISM)
        self.analyzer = BatchAnalyzer(self.pipeline, jobs=PARALLELISM)
        self.analyzer.analyze_files(self.paths)  # ships weights, warms workers
        self.serial = None

    def op(self, k: int):
        return self.analyzer.analyze_files(self.paths)

    def staged(self, k: int, rec):
        before = metrics_snapshot()
        with rec.span("core.pool.batch", op=k):
            report = self.op(k)
        moved = counters_delta(before)["counters"]
        self.note(
            {
                "core.pool.pickle_bytes_per_task": moved.get(
                    "transport.pickled_bytes", 0.0
                ) / len(self.paths),
                "core.pool.retries": moved.get("task.retries", 0.0),
                "core.pool.quarantined": report.num_quarantined,
                "core.pool.degraded": float(report.degraded),
            }
        )  # fmt: skip
        return report

    def _serial(self) -> list[np.ndarray]:
        """The same batch at ``jobs=1``: the reference, and the scaling base."""
        if self.serial is None:
            serial = BatchAnalyzer(self.pipeline, jobs=1)
            serial.analyze_files(self.paths)  # this process has analysed nothing yet
            with self.stopwatch("core.pool.serial_batch_s"):
                report = serial.analyze_files(self.paths)
            self.serial = [result.predicted_drop for result in report.results]
        return self.serial

    def check(self, k: int, out, staged: bool) -> list[str]:
        problems = []
        if out.num_failed:
            problems.append(f"{out.num_failed} deck(s) failed in the batch")
        if out.degraded:
            problems.append("batch degraded to serial execution")
        maps = [result.predicted_drop for result in out.results]
        serial = self._serial()
        if len(maps) != len(serial) or not all(
            np.array_equal(a, b) for a, b in zip(maps, serial)
        ):
            problems.append("pool results differ bitwise from jobs=1")
        return problems

    def teardown(self) -> None:
        with self.stopwatch("core.pool.shutdown_s"):
            shutdown_pool()
        self.scalars["core.shm.segments_leaked"] = ARENA.segments_active

    def derive(self, values: dict) -> None:
        if "core.pool.serial_batch_s" in values and "core.pool.batch_s" in values:
            values["core.pool.speedup_vs_serial"] = (
                values["core.pool.serial_batch_s"] / values["core.pool.batch_s"]
            )


class PadSweep(Workload):
    name = "pad_sweep"
    why = (
        "solvers.incremental low-rank previews instead of from-scratch solves: "
        "the solver layer used a third way; grid.build is part of every sweep"
    )
    root = ("opt.sweep", "opt.sweep_s", None)
    sizes = {
        "full": {"designs": 6, "pixels": 64},
        "smoke": {"designs": 2, "pixels": 16},
    }
    budget_volts = 1e-6
    max_new_pads = 4
    max_candidates = 32
    tol = 1e-10
    rank_tol = 1e-6

    def setup(self) -> None:
        self.netlists = [record.build().netlist for record in self.records]
        self.reference: dict[int, tuple] = {}

    def prepare(self, k: int) -> None:
        clear_setup_cache()

    def op(self, k: int):
        result = greedy_pad_placement(
            self.netlists[k % len(self.netlists)],
            budget_volts=self.budget_volts,
            max_new_pads=self.max_new_pads,
            max_candidates=self.max_candidates,
        )
        return result.added_pads, result.worst_drop_history, result.final_netlist

    def staged(self, k: int, rec):
        """``greedy_pad_placement`` (incremental method), one span per engine call."""
        netlist = self.netlists[k % len(self.netlists)]
        with rec.span("opt.sweep", op=k):
            with rec.span("grid.build"):
                grid = PowerGrid.from_netlist(netlist)
            with rec.span("solvers.incremental.build"):
                engine = IncrementalEngine(
                    grid,
                    netlist.supply_voltage(),
                    options=SolverOptions(tol=self.tol, record_history=False),
                    incremental=IncrementalOptions(column_tol=self.rank_tol),
                )
                step = engine.solve()
            history = [float(step.drops.max())]
            added: list[str] = []
            previews = 0
            while len(added) < self.max_new_pads and history[-1] > self.budget_volts:
                top = max(engine.grid.layers_present())
                candidates = sorted(
                    (
                        node
                        for node in engine.grid.nodes_on_layer(top)
                        if not node.is_pad and node.name not in added
                    ),
                    key=lambda node: step.drops[node.index],
                    reverse=True,
                )[: self.max_candidates]
                best_name, best_worst = None, history[-1]
                for candidate in candidates:
                    with rec.span("solvers.incremental.preview"):
                        trial = engine.preview(
                            AddPad(candidate.name), tol=self.rank_tol
                        )
                    previews += 1
                    worst = float(trial.drops.max())
                    if worst < best_worst:
                        best_name, best_worst = candidate.name, worst
                if best_name is None:
                    break
                with rec.span("solvers.incremental.commit"):
                    engine.apply(AddPad(best_name))
                    step = engine.solve()
                added.append(best_name)
                history.append(float(step.drops.max()))
        self.note(
            {
                "opt.candidates": previews,
                "opt.pads_added": len(added),
                "opt.worst_drop_gain_v": history[0] - history[-1],
                "grid.nodes": grid.num_nodes,
            }
        )
        return added, history, None

    def check(self, k: int, out, staged: bool) -> list[str]:
        i = k % len(self.netlists)
        added, history, final_netlist = out
        problems = []
        if any(b > a for a, b in zip(history, history[1:])):
            problems.append(f"worst drop history not non-increasing: {history}")
        if i not in self.reference:
            if staged:
                added_ref, history_ref, final_netlist = self.op(k)
            else:
                added_ref, history_ref = added, history
            # One from-scratch re-solve per input: the low-rank sweep's
            # final figure against a converged PowerRush run.
            resolved = PowerRushSimulator(tol=self.tol).simulate_netlist(
                final_netlist
            ).worst_drop()
            if abs(resolved - history_ref[-1]) > 1e-6:
                problems.append(
                    f"re-solve {resolved:.6e} V vs sweep {history_ref[-1]:.6e} V"
                )
            self.reference[i] = (list(added_ref), list(history_ref))
        if (list(added), list(history)) != self.reference[i]:
            problems.append("sweep differs from the first greedy_pad_placement run")
        return problems


WORKLOADS = {
    cls.name: cls
    for cls in (
        DeckCold, GridWarm, GoldenSolve, TrainEpoch, ServeClosed, BatchPool, PadSweep,
    )
}  # fmt: skip
