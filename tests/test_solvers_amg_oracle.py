"""Array-form AMG setup against the sparse-product code it replaced.

``tests/reference_amg.py`` keeps the ``P^T A P`` coarsening verbatim.  The
setup in ``repro.solvers.amg`` must match it over the aggregates it
produces: the same level sizes, coarse operators with the same sparsity
structure whose values differ only by summation order, and the same
prolongations.  Every pass's aggregates must also satisfy the invariants
of ``reference_amg.assert_valid_aggregation``.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data.synthetic import generate_design, make_fake_spec, make_real_spec
from repro.mna.stamper import build_reduced_system
from repro.solvers.amg import (
    AMGOptions,
    build_hierarchy,
    galerkin_coarse,
    pairwise_aggregate,
)
from repro.solvers.powerrush import PRESETS
from tests import reference_amg

_SPECS = {"fake": make_fake_spec, "real": make_real_spec}


@pytest.fixture(scope="module")
def design_matrix():
    built: dict = {}

    def get(kind: str, pixels: int, seed: int) -> sp.csr_matrix:
        key = (kind, pixels, seed)
        if key not in built:
            spec = _SPECS[kind](f"amg_{kind}", seed=seed, pixels=pixels)
            built[key] = build_reduced_system(generate_design(spec).grid).matrix
        return built[key]

    return get


def laplacian_2d(n: int) -> sp.csr_matrix:
    """5-point Laplacian: every off-diagonal coupling ties at -1."""
    one_d = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
    return sp.csr_matrix(sp.kron(sp.identity(n), one_d) + sp.kron(one_d, sp.identity(n)))


def assert_matches_reference(matrix: sp.csr_matrix, options: AMGOptions) -> None:
    hierarchy = build_hierarchy(matrix, options)
    reference = reference_amg.build_levels(matrix, options)
    assert [level.size for level in hierarchy.levels] == [
        a.shape[0] for a, _ in reference
    ]
    for level, (want, want_p) in zip(hierarchy.levels, reference):
        got = level.matrix
        # A pass of this level's matching, on the level's own operator.
        threshold = options.strength_threshold
        agg = pairwise_aggregate(got, threshold)
        reference_amg.assert_valid_aggregation(got, threshold, agg)
        triple = reference_amg.galerkin_product(got, agg)
        coarse = galerkin_coarse(got, agg)
        assert np.array_equal(coarse.indptr, triple.indptr)
        assert np.array_equal(coarse.indices, triple.indices)
        np.testing.assert_allclose(coarse.data, triple.data, rtol=1e-14, atol=0.0)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        np.testing.assert_allclose(got.data, want.data, rtol=1e-14, atol=0.0)
        if want_p is None:
            assert level.prolongation is None and level.restriction is None
            continue
        # The composed aggregates: one entry of 1.0 per row of P.
        assert np.array_equal(level.prolongation.indptr, want_p.indptr)
        assert np.array_equal(level.prolongation.indices, want_p.indices)
        assert np.array_equal(level.prolongation.data, want_p.data)
        want_r = sp.csr_matrix(want_p.T)
        assert np.array_equal(level.restriction.indptr, want_r.indptr)
        assert np.array_equal(level.restriction.indices, want_r.indices)
        assert np.array_equal(level.restriction.data, want_r.data)


class TestSetupOracle:
    @pytest.mark.parametrize("passes", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("pixels", [16, 32, 48])
    @pytest.mark.parametrize("kind", ["fake", "real"])
    def test_designs_match_the_reference(self, design_matrix, kind, pixels, seed, passes):
        assert_matches_reference(
            design_matrix(kind, pixels, seed), AMGOptions(passes_per_level=passes)
        )

    @pytest.mark.parametrize("passes", [1, 2])
    def test_tie_heavy_laplacian_matches_the_reference(self, passes):
        assert_matches_reference(laplacian_2d(24), AMGOptions(passes_per_level=passes))

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets_match_the_reference(self, design_matrix, preset):
        assert_matches_reference(design_matrix("real", 48, 0), PRESETS[preset][0])

    def test_star_row_with_5000_candidates_is_fast(self):
        # One hub coupled to 5000 leaves, with many tied strengths: a
        # per-row padded sort would be 5000 wide here.
        leaves = 5000
        weights = np.random.default_rng(3).integers(1, 40, leaves).astype(float)
        hub, leaf, every = np.zeros(leaves, int), np.arange(1, leaves + 1), np.arange(leaves + 1)
        matrix = sp.csr_matrix(
            (
                np.concatenate((-weights, -weights, [weights.sum() + 1.0], weights + 1.0)),
                (np.concatenate((hub, leaf, every)), np.concatenate((leaf, hub, every))),
            ),
            shape=(leaves + 1, leaves + 1),
        )
        started = time.perf_counter()
        build_hierarchy(matrix, AMGOptions())
        assert time.perf_counter() - started < 1.0
        assert_matches_reference(matrix, AMGOptions())

    @pytest.mark.parametrize(
        "matrix",
        [
            sp.csr_matrix((0, 0)),
            sp.csr_matrix(np.array([[2.0]])),
            sp.identity(200, format="csr"),
        ],
        ids=["0x0", "1x1", "diagonal-200"],
    )
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_degenerate_matrices_are_one_level(self, matrix, preset):
        options = PRESETS[preset][0]
        assert build_hierarchy(matrix, options).num_levels == 1
        assert build_hierarchy(matrix, AMGOptions(max_coarse_size=1)).num_levels == 1
