"""Unit tests for the synthetic design generator."""

import hashlib

import numpy as np
import pytest

from repro.data.synthetic import (
    DesignSpec,
    generate_benchmark_suite,
    generate_design,
    make_fake_spec,
    make_real_spec,
    synthesize_current_image,
)
from repro.grid.topology import validate_connectivity
from repro.spice.writer import netlist_to_string


class TestDesignSpec:
    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            DesignSpec(name="x", kind="synthetic")

    def test_too_small(self):
        with pytest.raises(ValueError):
            DesignSpec(name="x", pixels=4)

    def test_single_layer_rejected(self):
        with pytest.raises(ValueError):
            DesignSpec(name="x", num_layers=1)

    def test_dropout_bounds(self):
        with pytest.raises(ValueError):
            DesignSpec(name="x", stripe_dropout=0.9)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("total_current", 0.0),
            ("total_current", float("nan")),
            ("total_current", float("inf")),
            ("resistance_per_um", 0.0),
            ("resistance_per_um", -0.4),
            ("resistance_per_um", float("nan")),
            ("via_resistance", 0.0),
            ("via_resistance", -0.05),
            ("via_resistance", float("inf")),
            ("resistance_jitter", -0.1),
            ("resistance_jitter", 1.0),
            ("resistance_jitter", float("nan")),
            ("num_blobs", -1),
            ("num_macros", -1),
        ],
    )
    def test_rejects_values_that_break_the_design(self, field, value):
        with pytest.raises(ValueError, match=field):
            DesignSpec(name="x", **{field: value})


class TestCurrentImage:
    def test_total_conserved(self):
        spec = make_fake_spec("x", seed=1, pixels=16)
        rng = np.random.default_rng(1)
        image = synthesize_current_image(spec, rng)
        assert image.sum() == pytest.approx(spec.total_current)

    def test_non_negative(self):
        spec = make_real_spec("x", seed=2, pixels=16)
        image = synthesize_current_image(spec, np.random.default_rng(2))
        assert image.min() >= 0.0

    def test_macros_create_contrast(self):
        smooth_spec = make_fake_spec("a", seed=3, pixels=16)
        macro_spec = make_real_spec("b", seed=3, pixels=16)
        smooth = synthesize_current_image(smooth_spec, np.random.default_rng(3))
        rough = synthesize_current_image(macro_spec, np.random.default_rng(3))
        assert rough.max() / rough.mean() > smooth.max() / smooth.mean() * 0.8


class TestGenerateDesign:
    def test_fake_design_properties(self, fake_design):
        assert fake_design.is_fake
        assert fake_design.grid.num_nodes > 100
        assert len(fake_design.grid.pads()) == fake_design.spec.num_pads
        validate_connectivity(fake_design.grid)

    def test_real_design_irregular(self, real_design):
        assert not real_design.is_fake
        validate_connectivity(real_design.grid)

    def test_loads_on_bottom_layer_only(self, fake_design):
        for node in fake_design.grid.loads():
            assert node.layer == 1

    def test_pads_on_top_layer_only(self, fake_design):
        top = max(fake_design.grid.layers_present())
        for pad in fake_design.grid.pads():
            assert pad.layer == top

    def test_total_load_close_to_spec(self, fake_design):
        # every pixel has a bottom-layer tap in the regular fake layout
        assert fake_design.grid.total_load_current() == pytest.approx(
            fake_design.spec.total_current, rel=1e-9
        )

    def test_deterministic_under_seed(self):
        for make in (make_fake_spec, make_real_spec):
            a = generate_design(make("a", seed=9, pixels=16))
            b = generate_design(make("a", seed=9, pixels=16))
            assert a.netlist == b.netlist
            assert a.pad_pixels == b.pad_pixels
            assert np.array_equal(a.current_image, b.current_image)

    # blake2b (16-byte digest) of the written deck, recorded before the
    # netlist builder became columnar.  Every benchmark input is a
    # generated design, so a change to the RNG draw order or the element
    # order fails here before it silently changes them.
    @pytest.mark.parametrize(
        "make, pixels, digest",
        [
            (make_fake_spec, 16, "1362f3f0f40d1955a6002759898ab568"),
            (make_fake_spec, 48, "c89251319ea2695daf0d954e93b5d0a6"),
            (make_real_spec, 16, "aa45a15cdcc04a25699817f033382d9c"),
            (make_real_spec, 48, "1d504265410832690fc69f4337fa91e1"),
        ],
    )
    def test_deck_bytes_pinned(self, make, pixels, digest):
        kind = "fake" if make is make_fake_spec else "real"
        design = generate_design(make(f"{kind}{pixels}", seed=7, pixels=pixels))
        text = netlist_to_string(design.netlist).encode()
        assert hashlib.blake2b(text, digest_size=16).hexdigest() == digest

    def test_different_seeds_differ(self):
        a = generate_design(make_fake_spec("a", seed=1, pixels=16))
        b = generate_design(make_fake_spec("a", seed=2, pixels=16))
        assert not np.allclose(a.current_image, b.current_image)

    def test_real_has_resistance_jitter(self, real_design):
        """Parallel segments of equal length should have unequal resistance."""
        resistances = [w.resistance for w in real_design.grid.wires]
        assert len(set(np.round(resistances, 9))) > len(resistances) // 2

    def test_layer_count_respected(self):
        design = generate_design(make_fake_spec("a", seed=1, pixels=16, num_layers=4))
        assert design.grid.layers_present() == [1, 2, 3, 4]


class TestBenchmarkSuite:
    def test_composition(self):
        suite = generate_benchmark_suite(num_fake=2, num_real=1, pixels=16)
        kinds = [d.kind for d in suite]
        assert kinds == ["fake", "fake", "real"]

    def test_unique_names(self):
        suite = generate_benchmark_suite(num_fake=3, num_real=2, pixels=16)
        names = [d.name for d in suite]
        assert len(set(names)) == len(names)

    def test_all_connected(self):
        for design in generate_benchmark_suite(2, 2, pixels=16, seed=3):
            validate_connectivity(design.grid)

    def test_seed_stability(self):
        a = generate_benchmark_suite(1, 1, pixels=16, seed=5)
        b = generate_benchmark_suite(1, 1, pixels=16, seed=5)
        assert np.allclose(a[0].current_image, b[0].current_image)
