"""Tests for the observability layer: spans, metrics, export, worker round trip."""

import json

import pytest

from repro.core.batch import parallel_map_ex
from repro.obs import (
    Span,
    Tracer,
    counter_add,
    counters_delta,
    current_tracer,
    gauge_set,
    merge_metrics,
    metrics_snapshot,
    monotonic,
    reset_metrics,
    span,
    summary_lines,
    trace,
    validate_trace_file,
    validate_trace_lines,
    write_trace,
)
from repro.obs.export import TRACE_VERSION, trace_lines
from repro.obs.registry import Counter, Gauge, SpanName

# Ad-hoc handles for exercising the machinery; src/ declares its names
# in repro.obs.registry.
WORK = SpanName("work")
OUTER = SpanName("outer")
INNER_A = SpanName("inner_a")
INNER_B = SpanName("inner_b")
SIBLING = SpanName("sibling")
STAGE = SpanName("stage")
SUBSTAGE = SpanName("substage")
LONELY = SpanName("lonely")
CHILD = SpanName("child")
REPEAT = SpanName("repeat")
ABSENT = SpanName("absent")
ITEMS = Counter("obs_test.items")
HITS = Counter("obs_test.hits")
STABLE = Counter("obs_test.stable")
MOVED = Counter("obs_test.moved")
BASE = Counter("obs_test.base")
LEVEL = Gauge("obs_test.level")


def _traced_item(x):
    with span(WORK, item=x):
        counter_add(ITEMS)
    return x * 2


class TestSpans:
    def test_nesting_follows_dynamic_extent(self):
        with trace() as tracer:
            with span(OUTER):
                with span(INNER_A):
                    pass
                with span(INNER_B):
                    pass
            with span(SIBLING):
                pass
        root = tracer.root
        assert [c.name for c in root.children] == ["outer", "sibling"]
        outer = root.children[0]
        assert [c.name for c in outer.children] == ["inner_a", "inner_b"]

    def test_durations_are_monotonic_and_closed(self):
        with trace() as tracer:
            with span(STAGE) as stage:
                pass
        assert tracer.root.end is not None
        assert stage.end is not None
        assert 0.0 <= stage.duration <= tracer.root.duration

    def test_implicit_trace_when_nothing_active(self):
        assert current_tracer() is None
        with span(LONELY, detail=1) as lonely:
            assert current_tracer() is not None
            with span(CHILD):
                pass
        assert current_tracer() is None
        assert lonely.name == "lonely"
        assert [c.name for c in lonely.children] == ["child"]

    def test_attrs_recorded(self):
        with span(STAGE, epoch=3, tag="x") as stage:
            pass
        assert stage.attrs == {"epoch": 3, "tag": "x"}

    def test_find_and_total(self):
        with trace() as tracer:
            with span(REPEAT):
                pass
            with span(REPEAT):
                pass
        root = tracer.root
        assert root.find(REPEAT) is root.children[0]
        assert root.find(ABSENT) is None
        total = root.total(REPEAT)
        assert total == pytest.approx(
            sum(c.duration for c in root.children)
        )

    def test_to_dict_round_trip(self):
        with trace(kind="test") as tracer:
            with span(STAGE, index=1):
                pass
        payload = tracer.root.to_dict()
        restored = Span.from_dict(payload)
        assert restored.name == "run"
        assert restored.attrs == {"kind": "test"}
        assert [c.name for c in restored.children] == ["stage"]
        assert restored.duration == pytest.approx(
            tracer.root.duration, rel=1e-9
        )

    def test_nested_tracers_restore_previous(self):
        with trace(OUTER) as outer:
            with trace(INNER_A) as inner:
                assert current_tracer() is inner
            assert current_tracer() is outer
        assert current_tracer() is None

    def test_monotonic_advances(self):
        first = monotonic()
        second = monotonic()
        assert second >= first

    def test_tracer_finish_closes_open_spans(self):
        tracer = Tracer()
        with tracer.span(STAGE):
            root = tracer.finish()
        assert root.end is not None
        assert root.children[0].end is not None


class TestMetrics:
    @pytest.fixture(autouse=True)
    def _clean_registry(self):
        reset_metrics()
        yield
        reset_metrics()

    def test_counter_accumulates(self):
        counter_add(HITS)
        counter_add(HITS, 2)
        assert metrics_snapshot()["counters"]["obs_test.hits"] == 3

    def test_gauge_last_write_wins(self):
        gauge_set(LEVEL, 1.5)
        gauge_set(LEVEL, 2.5)
        assert metrics_snapshot()["gauges"]["obs_test.level"] == 2.5

    def test_delta_only_reports_movement(self):
        counter_add(STABLE)
        before = metrics_snapshot()
        counter_add(MOVED, 4)
        delta = counters_delta(before)
        assert delta["counters"] == {"obs_test.moved": 4}

    def test_merge_folds_delta(self):
        counter_add(BASE, 1)
        merge_metrics({"counters": {"obs_test.base": 2}, "gauges": {"g": 7}})
        snapshot = metrics_snapshot()
        assert snapshot["counters"]["obs_test.base"] == 3
        assert snapshot["gauges"]["g"] == 7.0


class TestWorkerRoundTrip:
    def test_worker_spans_and_counters_reach_parent(self):
        reset_metrics()
        before = metrics_snapshot()
        with trace() as tracer:
            outcomes, degraded = parallel_map_ex(
                _traced_item, [1, 2, 3, 4], jobs=2
            )
        assert [o.result for o in outcomes] == [2, 4, 6, 8]
        root = tracer.root
        works = [s for s in root.iter_spans() if s.name == "work"]
        assert sorted(s.attrs["item"] for s in works) == [1, 2, 3, 4]
        if not degraded:
            # Each worker item ships its own span tree, grafted under the
            # parent's root as an ``item`` wrapper.
            items = [s for s in root.iter_spans() if s.name == "item"]
            assert len(items) == 4
        delta = counters_delta(before)
        assert delta["counters"]["obs_test.items"] == 4
        reset_metrics()

    def test_untraced_batch_ships_no_trees(self):
        assert current_tracer() is None
        outcomes, _ = parallel_map_ex(_traced_item, [5, 6], jobs=2)
        assert [o.result for o in outcomes] == [10, 12]


class TestExport:
    def _sample_root(self) -> Span:
        with trace() as tracer:
            with span(STAGE, index=0):
                with span(SUBSTAGE):
                    pass
        return tracer.root

    def test_lines_follow_schema(self):
        lines = trace_lines(
            self._sample_root(),
            metrics={"counters": {"c": 1}, "gauges": {}},
        )
        header = json.loads(lines[0])
        assert header == {
            "kind": "header",
            "version": TRACE_VERSION,
            "root": "run",
        }
        spans = [json.loads(line) for line in lines[1:-1]]
        assert [s["name"] for s in spans] == ["run", "stage", "substage"]
        assert spans[0]["parent"] is None and spans[0]["id"] == 0
        assert spans[1]["parent"] == 0 and spans[2]["parent"] == 1
        assert json.loads(lines[-1])["kind"] == "metrics"

    def test_validate_accepts_own_output(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        write_trace(
            path, self._sample_root(), metrics={"counters": {}, "gauges": {}}
        )
        assert validate_trace_file(path) == []

    def test_validate_flags_corruption(self):
        lines = trace_lines(self._sample_root())
        assert validate_trace_lines(["not json"])  # unparsable
        assert validate_trace_lines([])  # empty
        assert validate_trace_lines(lines[1:])  # missing header
        # Orphan parent: child precedes its parent definition.
        reordered = [lines[0], lines[2], lines[1], lines[3]]
        assert any(
            "parent" in err for err in validate_trace_lines(reordered)
        )
        broken = json.loads(lines[1])
        broken["duration"] = -1.0
        assert any(
            "negative" in err
            for err in validate_trace_lines([lines[0], json.dumps(broken)])
        )

    def test_validator_cli(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        path = tmp_path / "ok.trace.jsonl"
        write_trace(path, self._sample_root())
        assert main(["--validate", str(path)]) == 0
        assert "ok (3 span(s))" in capsys.readouterr().out
        bad = tmp_path / "bad.trace.jsonl"
        bad.write_text('{"kind": "span"}\n')
        assert main(["--validate", str(bad)]) == 1

    def test_summary_tree_mentions_every_stage(self):
        lines = summary_lines(
            self._sample_root(), metrics={"counters": {"pcg.iterations": 12}}
        )
        text = "\n".join(lines)
        assert "run" in text and "stage" in text and "substage" in text
        assert "pcg.iterations" in text

    @pytest.mark.parametrize(
        "content, lineno",
        [
            (b"[1]\n", 1),  # a non-object where the header belongs
            (b'{"kind": "header", "version": 1, "root": "run"}\n5\n', 2),
            (b'{"kind": "header", "version": 1, "root": "r\xff"}\n', 1),
        ],
        ids=["list-header", "scalar-record", "non-utf8"],
    )
    def test_validator_reports_malformed_lines(
        self, tmp_path, capsys, content, lineno
    ):
        from repro.obs.__main__ import main

        path = tmp_path / "malformed.trace.jsonl"
        path.write_bytes(content)
        assert main(["--validate", str(path)]) == 1
        assert f"{path}: line {lineno}: " in capsys.readouterr().err


class TestDeclaredNames:
    def test_emit_api_rejects_strings(self):
        tracer = Tracer()
        for emit in (
            lambda: span("pcg").__enter__(),
            lambda: trace("run").__enter__(),
            lambda: Tracer("run"),
            lambda: tracer.span("pcg").__enter__(),
            lambda: tracer.root.find("pcg"),
            lambda: tracer.root.total("pcg"),
            lambda: counter_add("pcg.iterations"),
            lambda: gauge_set("serve.queue_depth", 1.0),
        ):
            with pytest.raises(TypeError):
                emit()
        assert current_tracer() is None

    def test_emit_api_rejects_the_wrong_kind_of_handle(self):
        with pytest.raises(TypeError):
            counter_add(LEVEL)
        with pytest.raises(TypeError):
            gauge_set(HITS, 1.0)
        with pytest.raises(TypeError):
            span(HITS).__enter__()
