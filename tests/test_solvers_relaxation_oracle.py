"""Setup-once AMG against the per-call code it replaced.

The reference for the level relaxations is
``reference_smoothers.gauss_seidel`` / ``jacobi`` (beside this file), which
still derive everything from the matrix on every call.  Every level's
aggregation is held to ``reference_amg.assert_valid_aggregation``.
"""

import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.data.synthetic import generate_design, make_fake_spec, make_real_spec
from repro.mna.stamper import build_reduced_system
from repro.obs import counters_delta, metrics_snapshot
from repro.solvers import smoothers
from repro.solvers.amg import AMGOptions, build_hierarchy, pairwise_aggregate
from repro.solvers.amg_pcg import AMGPCGSolver
from repro.solvers.base import SolverOptions
from repro.solvers.cache import clear_setup_cache, global_setup_cache
from repro.solvers.cycles import CycleOptions, CyclePreconditioner
from repro.solvers.smoothers import RELAXATIONS
from tests.reference_amg import assert_valid_aggregation
from tests.reference_smoothers import gauss_seidel, jacobi


_SPECS = {"fake": make_fake_spec, "real": make_real_spec}


@pytest.fixture(scope="module")
def design_matrix():
    built: dict = {}

    def get(kind: str, pixels: int) -> sp.csr_matrix:
        if (kind, pixels) not in built:
            spec = _SPECS[kind](f"oracle_{kind}", seed=7, pixels=pixels, num_layers=3)
            grid = generate_design(spec).grid
            built[kind, pixels] = build_reduced_system(grid).matrix
        return built[kind, pixels]

    return get


class TestAggregationOracle:
    @pytest.mark.parametrize("threshold", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("pixels", [16, 32, 48])
    @pytest.mark.parametrize("kind", ["fake", "real"])
    def test_every_level_keeps_invariants(self, design_matrix, kind, pixels, threshold):
        options = AMGOptions(strength_threshold=threshold)
        # Level 0 is the stamped design; the coarser ones are Galerkin
        # products with wider, less regular stencils.
        for level in build_hierarchy(design_matrix(kind, pixels), options).levels:
            agg = pairwise_aggregate(level.matrix, threshold)
            assert_valid_aggregation(level.matrix, threshold, agg)

    @pytest.mark.parametrize("threshold", [0.0, 0.25, 1.0])
    def test_diagonal_matrix_is_all_singletons(self, threshold):
        matrix = sp.csr_matrix(sp.diags([1.0, 2.0, 3.0, 4.0]))
        got = pairwise_aggregate(matrix, threshold)
        assert_valid_aggregation(matrix, threshold, got)
        assert np.array_equal(got, np.arange(4))

    @pytest.mark.parametrize("threshold", [0.0, 0.25, 1.0])
    def test_two_node_matrix_is_one_pair(self, threshold):
        matrix = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        got = pairwise_aggregate(matrix, threshold)
        assert_valid_aggregation(matrix, threshold, got)
        assert np.array_equal(got, [0, 0])

    def test_ties_positive_couplings_and_empty_rows(self):
        # Equal strengths, a positive off-diagonal (never a candidate) and
        # a row with no entries at all.  Nodes 0 and 1 are binary buddies
        # (0 ^ 1 = 1), so they win the tie.  At threshold 0 the -0.2
        # coupling pairs 2 with 3; above it, 2 and 3 both ask to join the
        # pair, which takes one (the edge hash breaks the tie) and leaves
        # 2 alone.
        dense = np.array(
            [
                [4.0, -1.0, -1.0, 0.5, 0.0],
                [-1.0, 4.0, -1.0, -1.0, 0.0],
                [-1.0, -1.0, 4.0, -0.2, 0.0],
                [0.5, -1.0, -0.2, 4.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, 0.0],
            ]
        )
        matrix = sp.csr_matrix(dense)
        expected = {0.0: [0, 0, 1, 1, 2], 0.25: [0, 0, 1, 0, 2], 1.0: [0, 0, 1, 0, 2]}
        for threshold, want in expected.items():
            got = pairwise_aggregate(matrix, threshold)
            assert_valid_aggregation(matrix, threshold, got)
            assert np.array_equal(got, want)


def _relative_gap(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


class TestRelaxationOracle:
    @pytest.mark.parametrize("guess", ["zero", "nonzero"])
    @pytest.mark.parametrize("sweeps", [1, 2])
    @pytest.mark.parametrize("kind", ["gauss_seidel", "jacobi"])
    def test_setup_once_equals_reference(self, design_matrix, rng, kind, sweeps, guess):
        matrix = design_matrix("real", 16)
        rhs = rng.standard_normal(matrix.shape[0])
        x = None if guess == "zero" else rng.standard_normal(matrix.shape[0])
        start = np.zeros_like(rhs) if x is None else x.copy()
        if kind == "jacobi":
            want = jacobi(matrix, rhs, start, sweeps=sweeps)
        else:
            want = gauss_seidel(matrix, rhs, start, sweeps=sweeps, direction="symmetric")
        got = RELAXATIONS[kind](matrix)(rhs, x, sweeps)
        assert _relative_gap(got, want) <= 1e-12
        if x is not None:
            assert np.array_equal(x, start)  # the caller's iterate is not touched

    def test_v_cycle_with_sgs_is_a_symmetric_operator(self, design_matrix, rng):
        hierarchy = build_hierarchy(design_matrix("fake", 16))
        assert hierarchy.num_levels >= 2
        apply = CyclePreconditioner(hierarchy, CycleOptions(cycle="v")).apply
        x = rng.standard_normal(hierarchy.levels[0].size)
        y = rng.standard_normal(hierarchy.levels[0].size)
        left, right = float(apply(x) @ y), float(x @ apply(y))
        assert abs(left - right) <= 1e-10 * max(abs(left), abs(right))

    @pytest.mark.parametrize("kind", ["gauss_seidel", "jacobi"])
    def test_zero_diagonal_names_level_and_row(self, kind):
        chain = sp.diags([-np.ones(15), 2.0 * np.ones(16), -np.ones(15)], [-1, 0, 1])
        matrix = chain.tolil()
        matrix[5, 5] = 0.0
        matrix[9, 9] = 0.0
        with pytest.raises(ValueError, match=r"level 2 .* row 5$"):
            RELAXATIONS[kind](sp.csr_matrix(matrix), level=2)


def _forbidden(*args, **kwargs):
    raise AssertionError("structure rebuilt inside CyclePreconditioner.apply")


class TestApplyPathIsSetupFree:
    @pytest.mark.parametrize(
        "cycle_options",
        [
            CycleOptions(),
            CycleOptions(presmooth_sweeps=2, postsmooth_sweeps=2),
            CycleOptions(cycle="v", postsmooth_sweeps=0, smoother="jacobi"),
        ],
        ids=["k-sgs", "k-sgs2", "v-jacobi"],
    )
    def test_apply_runs_with_the_builders_removed(
        self, design_matrix, rng, monkeypatch, cycle_options
    ):
        matrix = design_matrix("fake", 16)
        clear_setup_cache()
        solver = AMGPCGSolver(cycle_options=cycle_options)
        preconditioner = solver.setup(matrix)
        assert preconditioner.hierarchy.num_levels >= 3
        residual = rng.standard_normal(matrix.shape[0])
        expected = preconditioner.apply(residual)

        for module in (sp, spla, smoothers):
            for name in ("tril", "triu", "spsolve_triangular", "splu"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, _forbidden)
        # No sparse matrix may be constructed, transposed or re-read either.
        for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
            monkeypatch.setattr(cls, "__init__", _forbidden)
            monkeypatch.setattr(cls, "diagonal", _forbidden)
        assert np.array_equal(preconditioner.apply(residual), expected)


def _builds(before) -> float:
    return counters_delta(before)["counters"].get("amg.relaxation_builds", 0)


class TestRelaxationBuildCount:
    """The tier-1 guard that the apply path stays setup-free is this count."""

    def test_cold_hierarchy_builds_once_per_level_then_never(self, design_matrix):
        matrix = design_matrix("real", 32)
        rhs = np.ones(matrix.shape[0])
        options = SolverOptions(tol=1e-10, max_iterations=200)
        clear_setup_cache()

        before = metrics_snapshot()
        solver = AMGPCGSolver(options=options)
        assert solver.solve(matrix, rhs).converged
        assert solver.hierarchy.num_levels >= 3
        assert _builds(before) == solver.hierarchy.num_levels - 1
        assert not solver.last_setup_was_cache_hit

        before = metrics_snapshot()
        assert solver.solve(matrix, rhs).converged  # same-object fast path
        assert _builds(before) == 0

        before = metrics_snapshot()
        other = AMGPCGSolver(options=options)
        assert other.solve(matrix.copy(), rhs).converged  # fingerprint-cache hit
        assert other.last_setup_was_cache_hit
        assert other.hierarchy is solver.hierarchy
        assert _builds(before) == 0

    def test_each_smoother_kind_is_built_only_when_asked_for(self, design_matrix):
        hierarchy = build_hierarchy(design_matrix("fake", 16))
        before = metrics_snapshot()
        CyclePreconditioner(hierarchy, CycleOptions(cycle="v", smoother="jacobi"))
        assert _builds(before) == hierarchy.num_levels - 1
        assert set(hierarchy._relaxations) == {"jacobi"}  # nothing was factored
        CyclePreconditioner(hierarchy, CycleOptions())
        CyclePreconditioner(hierarchy, CycleOptions(cycle="v"))
        assert _builds(before) == 2 * (hierarchy.num_levels - 1)


class TestConcurrentFirstUse:
    def test_eight_threads_share_one_relaxation_and_agree_bitwise(self, design_matrix):
        matrix = design_matrix("real", 32)
        residual = np.random.default_rng(5).standard_normal(matrix.shape[0])
        clear_setup_cache()
        start = threading.Barrier(8)
        outcomes: list = [None] * 8

        def first_use(slot: int) -> None:
            start.wait(timeout=30)
            hierarchy, _ = global_setup_cache().get_or_build(matrix, AMGOptions())
            preconditioner = CyclePreconditioner(hierarchy, CycleOptions())
            outcomes[slot] = (preconditioner._relax, preconditioner.apply(residual))

        before = metrics_snapshot()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=first_use, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(outcome is not None for outcome in outcomes)

        relaxations, iterate = outcomes[0]
        for other_relaxations, other_iterate in outcomes[1:]:
            assert other_relaxations is relaxations
            assert np.array_equal(other_iterate, iterate)
        # Racing get_or_build calls may build spare hierarchies; only the
        # winner's relaxations are ever requested.
        assert _builds(before) == len(relaxations)
