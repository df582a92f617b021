"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn.functional import (
    conv2d_backward,
    conv2d_forward,
    upsample_nearest_backward,
    upsample_nearest_forward,
)
from repro.spice.nodes import NodeName, format_node_name, parse_node_name
from repro.spice.parser import parse_spice
from repro.spice.writer import netlist_to_string
from repro.spice.ast import CurrentSource, Netlist, Resistor, VoltageSource
from repro.train.metrics import f1_hotspot, mae

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
positive = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
)

node_names = st.builds(
    format_node_name,
    st.integers(0, 9),
    st.integers(1, 12),
    st.integers(0, 10**7),
    st.integers(0, 10**7),
)


class TestNodeGrammarProperties:
    @given(
        net=st.integers(0, 99),
        layer=st.integers(1, 20),
        x=st.integers(-(10**8), 10**8),
        y=st.integers(-(10**8), 10**8),
    )
    def test_format_parse_roundtrip(self, net, layer, x, y):
        name = format_node_name(net, layer, x, y)
        assert parse_node_name(name) == NodeName(net, layer, x, y)


@st.composite
def netlists(draw):
    names = draw(
        st.lists(node_names, min_size=2, max_size=6, unique=True)
    )
    resistors = []
    for i, (a, b) in enumerate(zip(names, names[1:])):
        resistors.append(Resistor(f"R{i}", a, b, draw(positive)))
    sources = [CurrentSource("I0", names[-1], "0", draw(finite))]
    pads = [VoltageSource("V0", names[0], "0", draw(positive))]
    return Netlist(
        title=draw(st.text(alphabet="abc xyz", max_size=10)).strip(),
        resistors=resistors,
        current_sources=sources,
        voltage_sources=pads,
    )


class TestSpiceRoundtripProperties:
    @given(netlist=netlists())
    @settings(max_examples=50, deadline=None)
    def test_write_parse_roundtrip(self, netlist):
        reparsed = parse_spice(netlist_to_string(netlist))
        assert reparsed.resistors == netlist.resistors
        assert reparsed.current_sources == netlist.current_sources
        assert reparsed.voltage_sources == netlist.voltage_sources


class TestIm2ColProperties:
    """Adjoint identities of the sliding-window kernels."""

    @given(
        x=arrays(
            np.float64,
            st.tuples(
                st.integers(1, 2),
                st.integers(1, 3),
                st.integers(3, 7),
                st.integers(3, 7),
            ),
            elements=finite,
        ),
        kernel=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_adjoint_identity(self, x, kernel, data):
        """<conv(x), g> == <x, conv^T(g)>: the input gradient of
        conv2d_backward is the exact adjoint of conv2d_forward, at every
        padding below the kernel."""
        padding = data.draw(
            st.tuples(st.integers(0, kernel[0] - 1), st.integers(0, kernel[1] - 1))
        )
        rng = np.random.default_rng(0)
        weight = rng.standard_normal((2, x.shape[1], *kernel))
        out, saved = conv2d_forward(x, weight, None, padding)
        g = rng.standard_normal(out.shape)
        back, _, _ = conv2d_backward(g, saved, x.shape, weight, padding, False)
        lhs, rhs = float((out * g).sum()), float((x * back).sum())
        # Both sides sum the same elementary products; bound the rounding
        # by the sum of their magnitudes.
        magnitude, _ = conv2d_forward(np.abs(x), np.abs(weight), None, padding)
        scale = float((magnitude * np.abs(g)).sum())
        assert abs(lhs - rhs) <= 1e-12 * max(scale, 1.0)

    @given(
        x=arrays(
            np.float64,
            st.tuples(
                st.integers(1, 2),
                st.integers(1, 3),
                st.integers(2, 5),
                st.integers(2, 5),
            ),
            elements=finite,
        ),
        factor=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_upsample_downsample_scales_by_area(self, x, factor):
        """backward(forward(x)) == factor^2 * x (sum-pool of repeats)."""
        up = upsample_nearest_forward(x, factor)
        down = upsample_nearest_backward(up, factor)
        assert np.allclose(down, factor**2 * x)


class TestMetricProperties:
    images = arrays(
        np.float64,
        st.tuples(st.integers(2, 8), st.integers(2, 8)),
        elements=st.floats(0, 1, allow_nan=False),
    )

    @given(golden=images)
    @settings(max_examples=40, deadline=None)
    def test_mae_identity_and_symmetry(self, golden):
        assert mae(golden, golden) == 0.0
        other = 1.0 - golden
        assert mae(golden, other) == pytest.approx(mae(other, golden))

    @given(golden=images, shift=st.floats(0.0, 0.5, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_mae_translation(self, golden, shift):
        assert mae(golden + shift, golden) == pytest.approx(shift, abs=1e-12)

    @given(golden=images)
    @settings(max_examples=40, deadline=None)
    def test_f1_bounds_and_perfection(self, golden):
        score = f1_hotspot(golden, golden)
        assert score == 1.0
        assert 0.0 <= f1_hotspot(np.zeros_like(golden), golden) <= 1.0


class TestSolverProperties:
    @given(
        diag_boost=st.floats(0.5, 5.0, allow_nan=False),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_cg_solves_random_spd_systems(self, diag_boost, seed):
        import scipy.sparse as sp

        from repro.solvers.base import SolverOptions
        from repro.solvers.cg import CGSolver

        rng = np.random.default_rng(seed)
        n = 12
        a = rng.standard_normal((n, n))
        matrix = sp.csr_matrix(a @ a.T + diag_boost * n * np.eye(n))
        rhs = rng.standard_normal(n)
        result = CGSolver(SolverOptions(tol=1e-10, max_iterations=500)).solve(
            matrix, rhs
        )
        assert result.converged
        assert np.linalg.norm(matrix @ result.x - rhs) < 1e-7 * max(
            1.0, np.linalg.norm(rhs)
        )

    @given(seed=st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_amg_pcg_matches_direct_on_laplacians(self, seed):
        import scipy.sparse as sp

        from repro.solvers.amg_pcg import AMGPCGSolver
        from repro.solvers.base import SolverOptions

        rng = np.random.default_rng(seed)
        n = 10
        eye = sp.identity(n)
        one_d = sp.diags(
            [-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]
        )
        matrix = sp.csr_matrix(sp.kron(eye, one_d) + sp.kron(one_d, eye))
        rhs = rng.standard_normal(n * n)
        result = AMGPCGSolver(SolverOptions(tol=1e-11)).solve(matrix, rhs)
        import scipy.sparse.linalg as sla

        exact = sla.spsolve(matrix.tocsc(), rhs)
        assert np.allclose(result.x, exact, atol=1e-6)
