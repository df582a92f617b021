"""Tests for the parallel batch-analysis engine."""

import os
import pickle
import signal
import threading

import numpy as np
import pytest

from repro.core.batch import (
    BatchAnalyzer,
    BatchItem,
    BatchReport,
    parallel_map_ex,
)
from repro.obs import counters_delta, metrics_snapshot, monotonic


def _square(x):
    return x * x


def _reciprocal(x):
    return 1.0 / x


def _slow_square(x):
    # Busy-wait a few ms so concurrent parallel_map_ex calls overlap: the
    # later callers wait on the pool's lock while a batch runs.
    deadline = monotonic() + 0.02
    while monotonic() < deadline:
        pass
    return x * x


def _die_once(item):
    # SIGKILLs its own worker the first time it sees x == 2; the marker
    # file makes the retry (in a respawned worker) succeed.
    x, marker = item
    if x == 2 and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 10


def _nested_map(x):
    # Runs inside a pool worker, which is daemonic and sees the worker
    # env marker: the inner call must degrade to serial instead of
    # spawning grandchildren.
    outcomes, degraded = parallel_map_ex(_square, [x, x + 1], jobs=2)
    return ([o.result for o in outcomes], degraded)


class TestParallelMap:
    def test_serial_preserves_order(self):
        outcomes, degraded = parallel_map_ex(_square, [3, 1, 2], jobs=1)
        assert [o.result for o in outcomes] == [9, 1, 4]
        assert all(o.error is None for o in outcomes)
        assert not degraded

    def test_parallel_preserves_order(self):
        outcomes, degraded = parallel_map_ex(_square, list(range(7)), jobs=2)
        assert [o.result for o in outcomes] == [k * k for k in range(7)]
        assert not degraded

    def test_empty_items(self):
        outcomes, degraded = parallel_map_ex(_square, [], jobs=4)
        assert outcomes == [] and not degraded

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_per_item_errors_are_captured(self, jobs):
        outcomes, _ = parallel_map_ex(_reciprocal, [2.0, 0.0, 4.0], jobs=jobs)
        assert (outcomes[0].result, outcomes[0].error) == (0.5, None)
        assert outcomes[1].result is None
        assert outcomes[1].error.startswith("ZeroDivisionError")
        assert (outcomes[2].result, outcomes[2].error) == (0.25, None)

    def test_worker_death_is_respawned_and_retried(self, tmp_path):
        marker = str(tmp_path / "died-once")
        before = metrics_snapshot()
        outcomes, degraded = parallel_map_ex(
            _die_once, [(x, marker) for x in (1, 2, 3, 4)], jobs=2
        )
        assert degraded is False  # the pool healed itself; nothing ran serially
        assert [o.result for o in outcomes] == [10, 20, 30, 40]
        assert outcomes[1].attempts == 2
        delta = counters_delta(before)["counters"]
        assert delta.get("pool.workers_respawned", 0) >= 1
        assert delta.get("task.retries", 0) >= 1

    def test_concurrent_calls_never_mix_results(self):
        # The spawn pool runs one batch at a time under its map lock,
        # so concurrent threaded callers take turns on the workers — no
        # degradation, and every call gets its own results.
        items_by_key = {key: list(range(key, key + 4)) for key in (1, 10, 100)}
        results: dict[int, tuple] = {}

        def run(key):
            results[key] = parallel_map_ex(_slow_square, items_by_key[key], 2)

        threads = [
            threading.Thread(target=run, args=(key,)) for key in items_by_key
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for key, items in items_by_key.items():
            outcomes, degraded = results[key]
            assert not degraded
            assert [o.result for o in outcomes] == [x * x for x in items]

    def test_nested_call_inside_worker_degrades_to_serial(self):
        outcomes, outer_degraded = parallel_map_ex(_nested_map, [10, 20], jobs=2)
        expected = {10: [100, 121], 20: [400, 441]}
        for item, outcome in zip([10, 20], outcomes):
            assert outcome.error is None
            values, inner_degraded = outcome.result
            assert values == expected[item]
            if not outer_degraded:
                # The item ran in a pool worker, so the nested call
                # must have taken the serial path.
                assert inner_degraded


class TestBatchReport:
    def _report(self):
        return BatchReport(
            items=[
                BatchItem(name="good", result=object()),
                BatchItem(name="bad", result=None, error="ValueError: no"),
            ],
            jobs=2,
            total_seconds=1.0,
        )

    def test_results_filters_failures(self):
        report = self._report()
        assert len(report.results) == 1
        assert report.num_failed == 1

    def test_summary_lines_name_failures(self):
        lines = self._report().summary_lines()
        assert "designs=2 failed=1" in lines[0]
        assert any("failed[bad]" in line for line in lines[1:])


class TestBatchAnalyzer:
    def test_rejects_bad_jobs(self, trained_tiny_pipeline):
        with pytest.raises(ValueError):
            BatchAnalyzer(trained_tiny_pipeline, jobs=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            pytest.param("task_timeout", float("nan"), "a number", id="task_timeout"),
            pytest.param("deadline", float("nan"), "a number", id="deadline"),
            pytest.param("task_timeout", 0.0, "> 0", id="task_timeout=0"),
            pytest.param("task_timeout", -1.0, "> 0", id="task_timeout=-1"),
            pytest.param("deadline", 0.0, "> 0", id="deadline=0"),
            pytest.param("deadline", -1.0, "> 0", id="deadline=-1"),
            pytest.param("retries", -1, ">= 0", id="retries=-1"),
        ],
    )
    def test_rejects_nan_budgets(self, trained_tiny_pipeline, field, value, message):
        # NaN and out-of-range batch controls alike are bad input.
        with pytest.raises(ValueError, match=f"{field} must be .*{message}"):
            BatchAnalyzer(trained_tiny_pipeline, **{field: value})

    def test_parallel_matches_serial_bitwise(self, trained_tiny_pipeline, tmp_path):
        from repro.spice.writer import write_spice

        pipeline = trained_tiny_pipeline
        _, test_designs = pipeline.generate_designs()
        paths = []
        for design in test_designs:
            paths.append(tmp_path / f"{design.name}.sp")
            write_spice(design.netlist, paths[-1])
        serial = [pipeline.analyze_file(path) for path in paths]
        report = BatchAnalyzer(pipeline, jobs=2).analyze_files(paths)
        assert all(item.ok for item in report.items)
        for expected, item in zip(serial, report.items):
            np.testing.assert_array_equal(
                expected.predicted_drop, item.result.predicted_drop
            )
            assert item.result.diagnostics is not None

    def test_jobs_defaults_to_config(self, trained_tiny_pipeline):
        analyzer = BatchAnalyzer(trained_tiny_pipeline)
        assert analyzer.jobs == trained_tiny_pipeline.config.jobs

    def test_rejects_untrained_pipeline(self):
        from repro.core.config import FusionConfig
        from repro.core.pipeline import IRFusionPipeline

        with pytest.raises(RuntimeError, match="untrained"):
            BatchAnalyzer(IRFusionPipeline(FusionConfig(pixels=16)), jobs=2)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_carry_maps_not_grid_or_features(
        self, trained_tiny_pipeline, tmp_path, jobs
    ):
        from repro.spice.writer import write_spice

        pipeline = trained_tiny_pipeline
        train, test = pipeline.generate_designs()
        paths = []
        for design in [*test, train[0]]:
            paths.append(tmp_path / f"{design.name}.sp")
            write_spice(design.netlist, paths[-1])
        report = BatchAnalyzer(pipeline, jobs=jobs).analyze_files(paths)
        assert not report.degraded
        assert [item.ok for item in report.items] == [True] * len(paths)
        for path, result in zip(paths, report.results):
            assert result.report is None and result.features is None
            local = pipeline.analyze_file(path)
            np.testing.assert_array_equal(result.predicted_drop, local.predicted_drop)
            np.testing.assert_array_equal(result.rough_drop, local.rough_drop)
            maps = result.predicted_drop.nbytes + result.rough_drop.nbytes
            assert len(pickle.dumps(result)) < maps + 16 * 1024


@pytest.fixture(scope="module")
def trained_tiny_pipeline():
    from repro.core.config import FusionConfig
    from repro.core.pipeline import IRFusionPipeline
    from repro.train.trainer import TrainConfig

    config = FusionConfig(
        pixels=16,
        num_fake=2,
        num_real_train=1,
        num_real_test=2,
        base_channels=4,
        depth=2,
        train=TrainConfig(epochs=1, batch_size=4),
        augment=False,
        oversample_fake=1,
        oversample_real=1,
    )
    pipeline = IRFusionPipeline(config)
    pipeline.train()
    return pipeline


class TestDatasetJobs:
    def test_parallel_build_matches_serial(self, fake_design):
        from repro.data.dataset import IRDropDataset
        from repro.data.synthetic import generate_design, make_fake_spec

        designs = [
            fake_design,
            generate_design(make_fake_spec("jobs-extra", seed=5)),
        ]
        serial = IRDropDataset.from_designs(designs, jobs=1)
        parallel = IRDropDataset.from_designs(designs, jobs=2)
        assert [s.name for s in parallel] == [s.name for s in serial]
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a.features.data, b.features.data)
            np.testing.assert_array_equal(a.label, b.label)

    def test_parallel_build_raises_on_bad_design(self, fake_design):
        import dataclasses

        from repro.data.dataset import IRDropDataset

        bad_spec = dataclasses.replace(fake_design.spec, name="broken")
        bad = dataclasses.replace(
            fake_design,
            spec=bad_spec,
            geometry=None,  # geometry access must blow up in the worker
        )
        with pytest.raises(RuntimeError, match="broken"):
            IRDropDataset.from_designs([fake_design, bad], jobs=2)


class TestConfigJobs:
    def test_jobs_validated(self):
        from repro.core.config import FusionConfig

        with pytest.raises(ValueError):
            FusionConfig(jobs=0)
        assert FusionConfig(jobs=3).jobs == 3
