"""Property and unit tests for the incremental ECO re-solve engine.

The central invariant: any sequence of pad additions, reverts and
previews run through :class:`IncrementalEngine` must produce the same IR
drop as restamping the mutated grid from scratch and solving to
convergence — regardless of whether the engine answered via
Sherman–Morrison corrections, warm starts, or a threshold-triggered full
rebuild.
"""

from dataclasses import replace

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
from repro.solvers.incremental import AddPad, IncrementalEngine, IncrementalOptions
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


def reference_drops(grid):
    """From-scratch ground truth: restamp + sparse direct solve."""
    system = build_reduced_system(grid)
    x = spla.spsolve(system.matrix.tocsc(), system.rhs)
    return SUPPLY - system.scatter(x)


def reference_with_pad(grid, node):
    """``reference_drops`` of *grid* with *node* pinned to the supply."""
    pinned = grid.clone()
    pinned.pin_pad(node, SUPPLY)
    return reference_drops(pinned)


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
        system.matrix.data.tobytes(), system.rhs.tobytes(),
        engine.fingerprint, engine.rank,
        engine.grid.pad_voltage.tobytes(), engine.grid.load_current.tobytes(),
    )


#: Both base-solve tiers must satisfy every invariant: "direct" factors
#: G0 once (exact columns), "iterative" is the AMG-PCG fallback used for
#: oversized systems (forced here via a zero threshold).
TIERS = {
    "direct": IncrementalOptions(max_rank=16),
    "iterative": IncrementalOptions(max_rank=16, direct_max_size=0),
}


class TestDeltaSequencesMatchFromScratch:
    @pytest.mark.parametrize("tier", sorted(TIERS))
    @given(program=pad_programs())
    @settings(max_examples=10, deadline=None)
    def test_incremental_matches_reference(self, tier, program):
        # A budget of three pads puts rebuilds inside most programs.
        engine = IncrementalEngine(
            GRID, SUPPLY, incremental=replace(TIERS[tier], max_rank=3)
        )
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
                # Bordered on top of a committed solve, polished otherwise.
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
    def test_rank_budget_triggers_rebuild_and_stays_correct(self):
        engine = IncrementalEngine(
            GRID, SUPPLY, incremental=IncrementalOptions(max_rank=2)
        )
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
        assert engine.rank <= engine.incremental.max_rank

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

    def test_unchanged_state_resolves_warm_and_nearly_free(self, fake_design):
        engine = IncrementalEngine(
            fake_design.grid,
            options=SolverOptions(tol=1e-8),
            incremental=IncrementalOptions(direct_max_size=0),
        )
        cold = engine.solve()
        repeat = engine.solve()
        assert (cold.strategy, repeat.strategy) == ("cold", "warm")
        assert repeat.iterations <= 1 < cold.iterations

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

    def test_fingerprint_chains_and_rewinds(self):
        engine = IncrementalEngine(GRID, SUPPLY)
        node = _free_nodes(GRID)[0]
        fp0 = engine.fingerprint
        term = engine.apply(AddPad(node))
        fp1 = engine.fingerprint
        assert fp1 != fp0
        engine.revert(term)
        assert engine.fingerprint == fp0
        engine.apply(AddPad(node))
        assert engine.fingerprint == fp1  # same edit → same chain key

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

    def test_caller_supplied_options_respected(self):
        options = SolverOptions(tol=1e-4, max_iterations=7)
        engine = IncrementalEngine(
            GRID, SUPPLY, options=options, incremental=TIERS["iterative"]
        )
        assert engine.options is options
        engine.solve()
        engine.apply(AddPad(_free_nodes(GRID)[0]))
        step = engine.solve()
        # iterations totals every inner PCG loop; each individual loop
        # (base solve, polish) honours the caller's cap.
        assert step.iterations - step.polish_iterations <= 7

    def test_deadline_scope_aborts_cleanly(self):
        engine = IncrementalEngine(GRID, SUPPLY)
        with deadline_scope(1e-9):
            step = engine.solve()
        assert step.aborted == "deadline"
        assert not step.converged

    def test_hierarchy_is_built_only_when_a_pcg_path_needs_it(self):
        from repro.solvers.cache import clear_setup_cache

        def setups(before):
            moved = counters_delta(before)["counters"]
            return (
                moved.get("incremental.setup_builds", 0),
                moved.get("incremental.setup_cache_hits", 0),
            )

        clear_setup_cache()
        before = metrics_snapshot()
        engine = IncrementalEngine(GRID, SUPPLY)
        engine.solve()
        free = _free_nodes(GRID)
        for node in free[:3]:
            engine.preview(AddPad(node))
        engine.apply(AddPad(free[0]))
        assert engine.solve().converged
        # Small system, no deadline: the sparse factor answered everything.
        assert setups(before) == (0, 0)

        with deadline_scope(60.0):  # the factorisation is off; PCG needs M
            engine.apply(AddPad(free[1]))
            step = engine.solve()
            assert step.converged
            assert engine.preview(AddPad(free[5])).converged
        assert setups(before) == (1, 0)
        assert counters_delta(before)["counters"]["pcg.iterations"] > 0
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
        assert "strategy=" in notes[0] and "iterations=" in notes[0]


class TestPadIsOneConstraint:
    """Tentpole: pins are rank-1 constraints; previews border, never stamp."""

    def test_pad_costs_rank_one(self):
        engine = IncrementalEngine(GRID, SUPPLY)
        engine.apply(AddPad(_free_nodes(GRID)[0]))
        assert engine.rank == 1

    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_off_supply_pad_and_loaded_pin_match_reference(self, tier):
        engine = IncrementalEngine(GRID, SUPPLY, incremental=TIERS[tier])
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

    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_batch_members_equal_single_previews_bitwise(self, tier):
        design = generate_design(make_real_spec("batch", seed=5, pixels=16))
        engine = IncrementalEngine(design.grid, incremental=TIERS[tier])
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

    def test_candidate_over_tolerance_takes_the_polish_path(self):
        loose = IncrementalOptions(direct_max_size=0, column_tol=1e-2)
        engine = IncrementalEngine(GRID, SUPPLY, incremental=loose)
        engine.solve()
        nodes = _free_nodes(GRID)[:4]
        notes_before = len(engine.diagnostics.warnings)
        with trace(SpanName("preview")) as tracer:
            trials = engine.preview_many([AddPad(node) for node in nodes])
        spans = [s for s in tracer.root.iter_spans()
                 if s.name == "incremental.preview_batch"]
        assert len(spans) == 1
        assert spans[0].attrs["candidates"] == 4
        assert spans[0].attrs["polished"] >= 1
        assert sum(t.polish_iterations > 0 for t in trials) == spans[0].attrs["polished"]
        # One diagnostics line for the whole batch, polished members included.
        notes = engine.diagnostics.warnings[notes_before:]
        assert len(notes) == 1
        assert "candidates=4" in notes[0] and "polished=" in notes[0]
        for node, trial in zip(nodes, trials):
            assert trial.converged
            np.testing.assert_allclose(
                trial.drops, reference_with_pad(GRID, node), atol=1e-6
            )

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
    """Satellite: a deadline-aborted column must not poison the cache."""

    def test_aborted_column_is_solved_again(self):
        design = generate_design(make_real_spec("cache", seed=3, pixels=32))
        tier = IncrementalOptions(direct_max_size=0)
        node = next(n.index for n in design.grid.nodes if not n.is_pad)

        def preview_counters(engine):
            before = metrics_snapshot()
            trial = engine.preview(AddPad(node))
            return trial, counters_delta(before)["counters"]

        fresh = IncrementalEngine(design.grid, incremental=tier)
        fresh.solve()
        clean, clean_moved = preview_counters(fresh)
        assert clean.converged and clean.polish_iterations == 0

        engine = IncrementalEngine(design.grid, incremental=tier)
        engine.solve()
        with deadline_scope(1e-9):
            assert engine.preview(AddPad(node)).aborted == "deadline"
        again, moved = preview_counters(engine)
        assert "incremental.column_cache_hits" not in moved
        assert moved["incremental.column_solves"] == 1
        assert moved["pcg.iterations"] == clean_moved["pcg.iterations"]
        assert again.converged and again.polish_iterations == 0
        # ... and the converged column is what the cache keeps.
        _, third = preview_counters(engine)
        assert third["incremental.column_cache_hits"] == 1
        assert "pcg.iterations" not in third


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

    def test_injected_solver_fault_leaves_engine_untouched(self):
        from repro.testing.faults import FaultPlan

        plan = FaultPlan(fail_stage={"incremental"})
        engine = IncrementalEngine(
            GRID, SUPPLY,
            fault_hook=plan.residual_hook,
        )
        engine.solve()
        state = _engine_state(engine)
        with deadline_scope(60.0):  # the guarded PCG path: the hook is live
            with pytest.raises(RuntimeError, match="injected failure"):
                engine.apply(AddPad(_free_nodes(GRID)[0]))
        assert plan.fired("stage_error") == 1
        assert _engine_state(engine) == state
