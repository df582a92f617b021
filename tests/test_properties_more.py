"""Additional property-based tests: electrical and data-pipeline invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import generate_design, make_fake_spec, make_real_spec
from repro.grid.netlist import PowerGrid
from repro.grid.topology import validate_connectivity
from repro.mna.stamper import build_reduced_system
from repro.solvers.direct import DirectSolver

design_seeds = st.integers(0, 10_000)


class TestGeneratedDesignProperties:
    @given(seed=design_seeds, kind=st.sampled_from(["fake", "real"]))
    @settings(max_examples=12, deadline=None)
    def test_every_design_is_solvable(self, seed, kind):
        maker = make_fake_spec if kind == "fake" else make_real_spec
        design = generate_design(maker(f"p{seed}", seed=seed, pixels=16))
        validate_connectivity(design.grid)
        system = build_reduced_system(design.grid)
        result = DirectSolver().solve(system.matrix, system.rhs)
        voltages = system.scatter(result.x)
        vdd = design.spec.supply_voltage
        # physical sanity: all node voltages within (0, vdd]
        assert voltages.max() <= vdd + 1e-9
        assert voltages.min() > 0.0

    @given(seed=design_seeds)
    @settings(max_examples=10, deadline=None)
    def test_drop_bounded_by_worst_path(self, seed):
        """Max drop cannot exceed total current x worst path resistance."""
        from repro.features.resistance import shortest_path_resistances

        design = generate_design(make_fake_spec(f"b{seed}", seed=seed, pixels=16))
        system = build_reduced_system(design.grid)
        voltages = system.scatter(
            DirectSolver().solve(system.matrix, system.rhs).x
        )
        drop = design.spec.supply_voltage - voltages
        worst_path = shortest_path_resistances(design.grid).max()
        bound = design.grid.load_current.sum() * worst_path
        assert drop.max() <= bound + 1e-9

    @given(seed=design_seeds)
    @settings(max_examples=10, deadline=None)
    def test_superposition(self, seed):
        """Doubling all load currents doubles every drop (linearity)."""
        from dataclasses import replace

        design = generate_design(make_fake_spec(f"l{seed}", seed=seed, pixels=16))
        system = build_reduced_system(design.grid)
        vdd = design.spec.supply_voltage
        v1 = system.scatter(DirectSolver().solve(system.matrix, system.rhs).x)

        doubled = generate_design(
            replace(design.spec, total_current=2 * design.spec.total_current)
        )
        system2 = build_reduced_system(doubled.grid)
        v2 = system2.scatter(
            DirectSolver().solve(system2.matrix, system2.rhs).x
        )
        assert np.allclose(vdd - v2, 2.0 * (vdd - v1), atol=1e-8)


class TestMNAProperties:
    @given(seed=design_seeds)
    @settings(max_examples=10, deadline=None)
    def test_row_sums_nonnegative(self, seed):
        """Reduced G is weakly diagonally dominant: row sums >= 0, with
        strictly positive sums exactly on pad-adjacent rows."""
        design = generate_design(make_fake_spec(f"m{seed}", seed=seed, pixels=16))
        system = build_reduced_system(design.grid)
        row_sums = np.asarray(system.matrix.sum(axis=1)).ravel()
        assert (row_sums >= -1e-9).all()
        assert (row_sums > 1e-12).any()  # someone touches a pad

    @given(seed=design_seeds)
    @settings(max_examples=8, deadline=None)
    def test_diagonal_dominance(self, seed):
        design = generate_design(make_fake_spec(f"d{seed}", seed=seed, pixels=16))
        matrix = build_reduced_system(design.grid).matrix
        diag = matrix.diagonal()
        off_sums = np.abs(matrix).sum(axis=1).A.ravel() - np.abs(diag)
        assert (diag >= off_sums - 1e-9).all()


class TestCurriculumProperties:
    @given(
        total=st.integers(2, 40),
        n_easy=st.integers(0, 5),
        n_hard=st.integers(1, 5),
    )
    @settings(max_examples=30, deadline=None)
    def test_subsets_nested_and_complete(self, total, n_easy, n_hard, fake_sample, real_sample):
        from repro.data.curriculum import CurriculumScheduler
        from repro.data.dataset import IRDropDataset

        dataset = IRDropDataset(
            [fake_sample] * n_easy + [real_sample] * n_hard
        )
        scheduler = CurriculumScheduler(total_epochs=total)
        previous: set[int] = set()
        for epoch in range(total):
            indices = set(scheduler.subset_indices(dataset, epoch))
            assert indices, "curriculum subset must never be empty"
            assert previous.issubset(indices)
            previous = indices
        assert previous == set(range(len(dataset)))


class TestAugmentationProperties:
    @given(turns=st.integers(0, 12))
    @settings(max_examples=20, deadline=None)
    def test_rotation_group_closure(self, turns, fake_sample):
        """Any rotation count is equivalent to its value mod 4."""
        from repro.data.augment import rotate_sample

        a = rotate_sample(fake_sample, turns)
        b = rotate_sample(fake_sample, turns % 4)
        assert np.allclose(a.label, b.label)
        assert np.allclose(a.features.data, b.features.data)

    @given(turns=st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_rotation_preserves_metrics_against_rotated_golden(
        self, turns, fake_sample
    ):
        """Rotating prediction and golden together leaves metrics fixed."""
        from repro.data.augment import rotate_sample
        from repro.train.metrics import f1_hotspot, mae

        rotated = rotate_sample(fake_sample, turns)
        assert mae(rotated.rough_label, rotated.label) == pytest.approx(
            mae(fake_sample.rough_label, fake_sample.label)
        )
        assert f1_hotspot(rotated.rough_label, rotated.label) == pytest.approx(
            f1_hotspot(fake_sample.rough_label, fake_sample.label)
        )
