"""Property and unit tests for the incremental ECO re-solve engine.

The central invariant: any sequence of pad additions, reverts and
previews run through :class:`IncrementalEngine` must produce the same IR
drop as restamping the mutated grid from scratch and solving to
convergence — regardless of whether the engine answered via a bordered
preview, Sherman–Morrison corrections, or a threshold-triggered full
rebuild.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.solvers.incremental as incremental_module
from repro.data.synthetic import (
    DesignSpec,
    generate_design,
    make_fake_spec,
    make_real_spec,
)
from repro.mna.stamper import build_reduced_system
from repro.obs import counters_delta, deadline_scope, metrics_snapshot, trace
from repro.obs.registry import SpanName
from repro.solvers.base import SolverOptions
from repro.solvers.incremental import AddPad, IncrementalEngine
from repro.solvers.powerrush import PowerRushSimulator


def _small_grid():
    spec = DesignSpec(
        name="eco", kind="fake", pixels=12, num_layers=2,
        supply_voltage=1.0, total_current=0.4, num_pads=4, seed=11,
    )
    return generate_design(spec).grid


#: One grid for the whole module — the engine clones it, tests mutate clones.
GRID = _small_grid()
SUPPLY = 1.0


def reference_drops(grid, supply=SUPPLY):
    """From-scratch ground truth: restamp + sparse direct solve."""
    system = build_reduced_system(grid)
    x = spla.spsolve(system.matrix.tocsc(), system.rhs)
    return supply - system.scatter(x)


def reference_with_pad(grid, node, supply=SUPPLY):
    """``reference_drops`` of *grid* with *node* pinned to the supply."""
    pinned = grid.clone()
    pinned.pin_pad(node, supply)
    return reference_drops(pinned, supply)


def _free_nodes(grid):
    return [n.index for n in grid.nodes if not n.is_pad]


def _load_nodes(grid):
    return [n.index for n in grid.loads()]


@st.composite
def pad_programs(draw):
    """A short random ECO program: list of (kind, pick) instructions.

    Node identities are drawn as indices into the *current* pool of free
    nodes, so every program is valid by construction (no double pins).
    """
    length = draw(st.integers(min_value=1, max_value=8))
    return [
        (
            draw(st.sampled_from(["add_pad", "revert", "preview_many", "solve"])),
            draw(st.integers(min_value=0, max_value=10**6)),
        )
        for _ in range(length)
    ]


def _engine_state(engine):
    """Everything a preview must leave alone, comparable with ``==``."""
    system = engine.system
    return (
        system.matrix.data.tobytes(), system.rhs.tobytes(), engine.rank,
        engine.grid.pad_voltage.tobytes(), engine.grid.load_current.tobytes(),
    )


def _span_names(tracer):
    return {s.name for s in tracer.root.iter_spans()}


class TestDeltaSequencesMatchFromScratch:
    # A cap of three pads puts rebuilds inside most programs; the
    # shipped cap never rebuilds within a program, so every pad stays
    # revertible and term stacks grow to the program's length.
    @pytest.mark.parametrize("max_rank", [3, incremental_module._MAX_RANK])
    @given(program=pad_programs())
    @settings(max_examples=10, deadline=None)
    def test_incremental_matches_reference(self, max_rank, program):
        with mock.patch.object(incremental_module, "_MAX_RANK", max_rank):
            self._run_program(program)

    @staticmethod
    def _run_program(program):
        engine = IncrementalEngine(GRID, SUPPLY)
        shadow = GRID.clone()  # mutated in lockstep, solved from scratch
        handles = []  # (term, node) of the pads still revertible, oldest first

        def check_solve():
            step = engine.solve()
            assert step.converged
            np.testing.assert_allclose(step.drops, reference_drops(shadow), atol=1e-6)
            if engine.rank < len(handles):
                handles.clear()  # a rebuild folded the terms into the base

        for kind, pick in program:
            pool = _free_nodes(shadow)
            if kind == "add_pad":
                node = pool[pick % len(pool)]
                handles.append((engine.apply(AddPad(node)), node))
                shadow.pin_pad(node, SUPPLY)
            elif kind == "revert":
                if handles:
                    term, node = handles.pop()
                    engine.revert(term)
                    shadow.unpin_pad(node)
            elif kind == "preview_many":
                # Bordered on top of a committed solve, re-solved otherwise.
                nodes = [pool[(pick + 7 * k) % len(pool)] for k in range(3)]
                state = _engine_state(engine)
                trials = engine.preview_many([AddPad(node) for node in nodes])
                assert _engine_state(engine) == state
                for node, trial in zip(nodes, trials):
                    assert trial.converged
                    np.testing.assert_allclose(
                        trial.drops, reference_with_pad(shadow, node), atol=1e-6
                    )
            else:
                check_solve()
        check_solve()

    @given(pick=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_preview_leaves_state_untouched(self, pick):
        engine = IncrementalEngine(GRID, SUPPLY)
        before = engine.solve()
        free = _free_nodes(GRID)
        state = _engine_state(engine)
        engine.preview(AddPad(free[pick % len(free)]))
        assert _engine_state(engine) == state
        after = engine.solve()
        np.testing.assert_allclose(after.drops, before.drops, atol=1e-8)
        assert engine.rank == 0


class TestRebuildBoundary:
    def test_rank_budget_triggers_rebuild_and_stays_correct(self, monkeypatch):
        monkeypatch.setattr(incremental_module, "_MAX_RANK", 2)
        engine = IncrementalEngine(GRID, SUPPLY)
        engine.solve()
        shadow = GRID.clone()
        free = [
            i for i in _free_nodes(shadow)
            if shadow.node(i).load_current == 0.0
        ]
        strategies = []
        for node in free[:4]:  # a pad is rank 1: the third exceeds budget 2
            engine.apply(AddPad(node))
            shadow.pin_pad(node, SUPPLY)
            step = engine.solve()
            strategies.append(step.strategy)
            np.testing.assert_allclose(
                step.drops, reference_drops(shadow), atol=1e-6
            )
        assert "rebuild" in strategies
        # The rebuild absorbed the over-budget terms into a fresh base;
        # edits committed after it accumulate rank again from zero.
        assert engine.rank <= incremental_module._MAX_RANK

    def test_committed_solve_over_tolerance_rebuilds_and_stays_correct(self):
        engine = IncrementalEngine(GRID, SUPPLY)
        engine.solve()
        node = _free_nodes(GRID)[0]
        engine.apply(AddPad(node))
        before = metrics_snapshot()
        # No correction meets a zero tolerance: the one recovery runs.
        step = engine.solve(tol=0.0)
        moved = counters_delta(before)["counters"]
        assert step.strategy == "rebuild" and engine.rank == 0
        assert moved["incremental.rebuilds"] == 1
        assert moved["incremental.factorizations"] == 1
        np.testing.assert_allclose(
            step.drops, reference_with_pad(GRID, node), atol=1e-6
        )
        # The pad survives the fold: it is part of the new stamp.
        assert engine.grid.node(node).is_pad
        assert engine.solve().strategy == "direct"

    def test_add_then_remove_is_exact_reversal(self):
        engine = IncrementalEngine(GRID, SUPPLY)
        baseline = engine.solve()
        state = _engine_state(engine)
        node = next(
            i for i in _free_nodes(GRID)
            if GRID.node(i).load_current == 0.0
        )
        engine.revert(engine.apply(AddPad(node)))
        assert _engine_state(engine) == state
        step = engine.solve()
        assert engine.rank == 0
        np.testing.assert_allclose(step.drops, baseline.drops, atol=1e-8)


class TestEngineContracts:
    def test_first_solve_matches_powerrush(self, fake_design):
        engine = IncrementalEngine(
            fake_design.grid, options=SolverOptions(tol=1e-10)
        )
        report = PowerRushSimulator(tol=1e-10).simulate_grid(fake_design.grid)
        np.testing.assert_allclose(engine.solve().drops, report.ir_drop, atol=1e-6)

    def test_caller_grid_never_mutated(self):
        pads_before = GRID.pad_voltage.tobytes()
        engine = IncrementalEngine(GRID, SUPPLY)
        node = _free_nodes(GRID)[0]
        engine.apply(AddPad(node))
        assert GRID.pad_voltage.tobytes() == pads_before
        assert engine.grid.node(node).is_pad and not GRID.node(node).is_pad

    def test_revert_requires_lifo(self):
        engine = IncrementalEngine(GRID, SUPPLY)
        first = engine.apply(AddPad(_free_nodes(GRID)[0]))
        engine.apply(AddPad(_free_nodes(GRID)[1]))
        with pytest.raises(ValueError):
            engine.revert(first)

    def test_preview_after_apply_and_revert_is_still_bordered(self):
        engine = IncrementalEngine(GRID, SUPPLY)
        engine.solve()
        first, second, candidate = _free_nodes(GRID)[:3]

        def preview(node):
            before = metrics_snapshot()
            with trace(SpanName("preview")) as tracer:
                trial = engine.preview(AddPad(node))
            (batch,) = [s for s in tracer.root.iter_spans()
                        if s.name == "incremental.preview_batch"]
            moved = counters_delta(before)["counters"]
            return trial, batch.attrs["polished"], moved.get("incremental.solves", 0)

        # A revert rewinds to the committed state: still one border.
        engine.revert(engine.apply(AddPad(first)))
        trial, polished, solves = preview(candidate)
        assert (polished, solves) == (0, 0)
        np.testing.assert_allclose(
            trial.drops, reference_with_pad(GRID, candidate), atol=1e-6
        )
        # A committed solve of one pad does not name another pad's state.
        term = engine.apply(AddPad(first))
        engine.solve()
        engine.revert(term)
        engine.apply(AddPad(second))
        trial, polished, solves = preview(candidate)
        assert (polished, solves) == (1, 1)
        shadow = GRID.clone()
        shadow.pin_pad(second, SUPPLY)
        np.testing.assert_allclose(
            trial.drops, reference_with_pad(shadow, candidate), atol=1e-6
        )

    def test_double_pin_rejected(self):
        engine = IncrementalEngine(GRID, SUPPLY)
        pad = GRID.pads()[0].index
        with pytest.raises(ValueError):
            engine.apply(AddPad(pad))

    def test_non_finite_pad_voltage_rejected(self):
        engine = IncrementalEngine(GRID, SUPPLY)
        with pytest.raises(ValueError, match="finite"):
            engine.apply(AddPad(_free_nodes(GRID)[0], voltage=float("nan")))
        assert engine.rank == 0


class TestNodeResolution:
    """A node is a name or an index in ``[0, num_nodes)``, nothing else."""

    DESIGN = generate_design(make_fake_spec("t", seed=0))

    @pytest.mark.parametrize("node", [-2, -1, DESIGN.grid.num_nodes, "n9_m9_0_0"])
    def test_bad_node_rejected_by_apply_and_preview_many(self, node):
        engine = IncrementalEngine(self.DESIGN.grid)
        engine.solve()
        state = _engine_state(engine)
        with pytest.raises(ValueError, match=repr(node).replace("'", ".")):
            engine.apply(AddPad(node))
        with pytest.raises(ValueError, match=repr(node).replace("'", ".")):
            engine.preview_many([AddPad(node)])
        assert _engine_state(engine) == state

    def test_index_and_name_pin_the_same_node(self):
        grid = self.DESIGN.grid
        index = _free_nodes(grid)[-1]
        by_index = IncrementalEngine(grid)
        by_name = IncrementalEngine(grid)
        by_index.apply(AddPad(index))
        by_name.apply(AddPad(grid.node_names[index]))
        assert by_index.grid.pad_voltage.tobytes() == by_name.grid.pad_voltage.tobytes()


class TestAnalyzerSatellites:
    """Options passthrough, deadlines, diagnostics."""

    def test_deadline_scope_aborts_cleanly(self):
        engine = IncrementalEngine(GRID, SUPPLY)
        with deadline_scope(1e-9):
            step = engine.solve()
        assert step.aborted == "deadline"
        assert not step.converged

    def test_expired_deadline_aborts_even_with_the_factor_built(self):
        engine = IncrementalEngine(GRID, SUPPLY)
        committed = engine.solve()
        node = _free_nodes(GRID)[0]
        state = _engine_state(engine)
        before = metrics_snapshot()
        with deadline_scope(0.0):
            step = engine.solve()
            trial = engine.preview(AddPad(node))
            with pytest.raises(TimeoutError):
                engine.apply(AddPad(node))
        assert step.aborted == trial.aborted == "deadline"
        assert _engine_state(engine) == state
        moved = counters_delta(before)["counters"]
        assert "incremental.base_solves" not in moved
        assert "incremental.column_cache_hits" not in moved
        # The committed solution still answers bordered previews.
        assert engine.preview(AddPad(node)).strategy == "smw"
        assert engine.solve().drops.tobytes() == committed.drops.tobytes()

    def test_no_hierarchy_is_built_even_under_a_deadline(self):
        before = metrics_snapshot()
        free = _free_nodes(GRID)
        with trace(SpanName("eco")) as tracer:
            engine = IncrementalEngine(GRID, SUPPLY)
            engine.solve()
            for node in free[:3]:
                engine.preview(AddPad(node))
            engine.apply(AddPad(free[0]))
            assert engine.solve().converged
            with deadline_scope(60.0):
                engine.apply(AddPad(free[1]))
                step = engine.solve()
                assert step.converged
                assert engine.preview(AddPad(free[5])).converged
        assert "amg_setup" not in _span_names(tracer)
        moved = counters_delta(before)["counters"]
        assert not any(name.startswith(("amg", "pcg")) for name in moved)
        assert moved["incremental.factorizations"] == 1
        np.testing.assert_allclose(
            step.drops, reference_drops(engine.grid), atol=1e-6
        )

    def test_diagnostics_record_each_step(self):
        engine = IncrementalEngine(GRID, SUPPLY)
        engine.solve()
        engine.apply(AddPad(_free_nodes(GRID)[0]))
        engine.solve()
        notes = engine.diagnostics.warnings
        assert len(notes) == 2
        assert "strategy=" in notes[0] and "residual=" in notes[0]


class TestPadIsOneConstraint:
    """Tentpole: pins are rank-1 constraints; previews border, never stamp."""

    def test_pad_costs_rank_one(self):
        engine = IncrementalEngine(GRID, SUPPLY)
        engine.apply(AddPad(_free_nodes(GRID)[0]))
        assert engine.rank == 1

    def test_off_supply_pad_and_loaded_pin_match_reference(self):
        engine = IncrementalEngine(GRID, SUPPLY)
        shadow = GRID.clone()
        loaded = _load_nodes(GRID)[0]
        plain = next(i for i in _free_nodes(GRID) if i not in _load_nodes(GRID))
        for node, voltage in [(loaded, 0.97), (plain, SUPPLY)]:
            delta = AddPad(node, voltage=voltage)
            trial = engine.preview(delta)
            engine.apply(delta)
            shadow.pin_pad(node, voltage)
            step = engine.solve()
            assert step.converged and trial.converged
            np.testing.assert_allclose(step.drops, reference_drops(shadow), atol=1e-6)
            np.testing.assert_allclose(trial.drops, step.drops, atol=1e-6)

    def test_batch_members_equal_single_previews_bitwise(self):
        design = generate_design(make_real_spec("batch", seed=5, pixels=16))
        engine = IncrementalEngine(design.grid)
        engine.solve()
        free = [n.index for n in design.grid.nodes if not n.is_pad]
        deltas = [AddPad(node) for node in free[3::7][:32]]
        assert len(deltas) == 32
        for commit in (None, deltas[0], deltas[9]):
            if commit is not None:
                engine.apply(commit)
                engine.solve()
                deltas = [d for d in deltas if d is not commit]
            for size in (1, 7, len(deltas)):
                batch = engine.preview_many(deltas[:size])
                for delta, member in zip(deltas, batch):
                    alone = engine.preview(delta)
                    assert member.drops.tobytes() == alone.drops.tobytes()
                    assert member.residual == alone.residual

    def test_previews_of_a_batch_chunk_without_changing_a_number(self, monkeypatch):
        engine = IncrementalEngine(GRID, SUPPLY)
        engine.solve()
        deltas = [AddPad(node) for node in _free_nodes(GRID)[:9]]
        whole = engine.preview_many(deltas)
        # Room for two candidates per chunk: five chunks for nine previews.
        monkeypatch.setattr(
            incremental_module, "_PREVIEW_SCRATCH_BYTES", 2 * 8 * engine.system.size
        )
        for member, chunked in zip(whole, engine.preview_many(deltas)):
            assert member.drops.tobytes() == chunked.drops.tobytes()

    def test_bordered_previews_move_no_solver_counter(self):
        engine = IncrementalEngine(GRID, SUPPLY)
        engine.solve()
        before = metrics_snapshot()
        engine.preview_many([AddPad(node) for node in _free_nodes(GRID)[:5]])
        moved = counters_delta(before)["counters"]
        assert moved.get("incremental.column_solves") == 5
        for name in ("incremental.deltas", "incremental.solves", "incremental.smw_solves"):
            assert name not in moved

    def test_preview_before_any_solve_still_answers(self):
        engine = IncrementalEngine(GRID, SUPPLY)
        node = _free_nodes(GRID)[0]
        trial = engine.preview(AddPad(node))
        np.testing.assert_allclose(
            trial.drops, reference_with_pad(GRID, node), atol=1e-6
        )


class TestColumnCacheHoldsOnlyConvergedColumns:
    """An expired deadline factors nothing and caches nothing."""

    def test_aborted_column_is_solved_again(self):
        design = generate_design(make_real_spec("cache", seed=3, pixels=32))
        node = next(n.index for n in design.grid.nodes if not n.is_pad)

        def preview_counters(engine):
            before = metrics_snapshot()
            trial = engine.preview(AddPad(node))
            return trial, counters_delta(before)["counters"]

        engine = IncrementalEngine(design.grid)
        state = _engine_state(engine)
        before = metrics_snapshot()
        with trace(SpanName("expired")) as tracer, deadline_scope(0.0):
            step = engine.solve()
            trial = engine.preview(AddPad(node))
            with pytest.raises(TimeoutError):
                engine.apply(AddPad(node))
        for aborted in (step, trial):
            assert aborted.aborted == "deadline" and not aborted.converged
            assert np.isnan(aborted.drops).all()
        assert "incremental.factorize" not in _span_names(tracer)
        moved = counters_delta(before)["counters"]
        assert moved == {"incremental.solves": 1, "incremental.aborted": 1}
        assert _engine_state(engine) == state

        # The next calls answer normally: one factorisation, the column
        # solved (not found cached), then reused.
        assert engine.solve().converged
        again, moved = preview_counters(engine)
        assert "incremental.column_cache_hits" not in moved
        assert moved["incremental.column_solves"] == 1
        assert again.converged and again.strategy == "smw"
        np.testing.assert_allclose(
            again.drops,
            reference_with_pad(design.grid, node, design.grid.supply_voltage()),
            atol=1e-6,
        )
        _, third = preview_counters(engine)
        assert third["incremental.column_cache_hits"] == 1
        assert "incremental.factorizations" not in third


class TestApplyIsAllOrNothing:
    """Satellite: an exception out of ``apply`` leaves no trace."""

    @staticmethod
    def _failing_engine(monkeypatch):
        engine = IncrementalEngine(GRID, SUPPLY)
        engine.solve()

        def boom(*args, **kwargs):
            raise RuntimeError("injected column failure")

        monkeypatch.setattr(engine, "_base_solve", boom)
        return engine

    @pytest.mark.parametrize("delta", [AddPad(_free_nodes(GRID)[0])], ids=["add_pad"])
    def test_failed_column_solve_leaves_engine_untouched(self, monkeypatch, delta):
        engine = self._failing_engine(monkeypatch)
        state = _engine_state(engine)
        with pytest.raises(RuntimeError, match="injected"):
            engine.apply(delta)
        assert _engine_state(engine) == state
        assert engine._terms == []


class TestColumnsSolveInPaddedBlocks:
    """Columns ``G0⁻¹e_j`` are solved as zero-padded multi-RHS blocks."""

    @pytest.mark.parametrize("pixels,seed", [(16, 5), (64, 3), (96, 1)])
    def test_column_bits_do_not_depend_on_the_block(self, pixels, seed):
        grid = generate_design(make_real_spec("blocks", seed=seed, pixels=pixels)).grid
        free = [n.index for n in grid.nodes if not n.is_pad]
        deltas = [AddPad(node) for node in free[3::7][:32]]
        assert len(deltas) == 32

        def fresh():
            engine = IncrementalEngine(grid)
            engine.solve()
            return engine

        # One block of 32 columns, against 32 blocks of one column each.
        batch = fresh().preview_many(deltas)
        alone = [fresh().preview(delta) for delta in deltas]
        # apply() solves its column alone; the batch then solves the rest.
        applied = fresh()
        applied.revert(applied.apply(deltas[9]))
        after_apply = applied.preview_many(deltas)
        for member, single, mixed in zip(batch, alone, after_apply):
            assert member.drops.tobytes() == single.drops.tobytes() == mixed.drops.tobytes()
            assert member.residual == single.residual == mixed.residual

    def test_blocks_are_padded_multiples_of_eight_within_the_budget(self, monkeypatch):
        engine = IncrementalEngine(GRID, SUPPLY)
        n = engine.system.size
        monkeypatch.setattr(incremental_module, "_COLUMN_BLOCK_BYTES", 16 * 8 * n)
        widths = []
        real = engine._base_solve

        def spy(rhs):
            if rhs is not engine._free_rhs:
                assert rhs.ndim == 2 and rhs.shape[0] == n
                widths.append(rhs.shape[1])
            return real(rhs)

        monkeypatch.setattr(engine, "_base_solve", spy)
        engine.solve()
        free = _free_nodes(GRID)
        before = metrics_snapshot()
        engine.preview_many([AddPad(node) for node in free[:37] + free[:3]])
        engine.apply(AddPad(free[40]))
        engine.solve()
        moved = counters_delta(before)["counters"]
        # 37 distinct columns in blocks of 16, 16 and 5 padded to 8; the
        # three repeats are cache hits; apply's column is a block of 8.
        assert widths == [16, 16, 8, 8]
        assert moved["incremental.column_solves"] == 38
        assert moved["incremental.column_cache_hits"] == 3
        assert moved["incremental.base_solves"] == 4
        # A budget below one step still solves blocks of eight.
        monkeypatch.setattr(incremental_module, "_COLUMN_BLOCK_BYTES", 8 * n)
        widths.clear()
        engine.preview_many([AddPad(node) for node in free[41:52]])
        assert widths == [8, 8]
