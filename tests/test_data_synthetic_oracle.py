"""The array-form netlist builder against the per-element reference.

``repro.data.synthetic._build_netlist`` must produce exactly what
``tests/reference_synthetic._build_netlist`` produces from the same
``(spec, geometry, image, rng)``: the same netlist (element names, both
node columns and the packed values, bitwise), the same pad pixels, and
the generator left in the same state.
"""

import numpy as np
import pytest

from repro.data import synthetic
from repro.data.synthetic import make_fake_spec, make_real_spec
from repro.grid.geometry import GridGeometry
from tests import reference_synthetic

MAKERS = {"fake": make_fake_spec, "real": make_real_spec}


def _inputs(spec):
    rng = np.random.default_rng(spec.seed)
    extent = spec.pixels * spec.pixel_nm
    geometry = GridGeometry(
        width_nm=extent,
        height_nm=extent,
        pixel_w_nm=spec.pixel_nm,
        pixel_h_nm=spec.pixel_nm,
        layers=synthetic._layer_stack(spec),
    )
    return geometry, synthetic.synthesize_current_image(spec, rng), rng


def _assert_same_build(spec):
    geometry, image, rng = _inputs(spec)
    netlist, pad_pixels = synthetic._build_netlist(spec, geometry, image, rng)
    geometry, image, ref_rng = _inputs(spec)
    ref_netlist, ref_pad_pixels = reference_synthetic._build_netlist(
        spec, geometry, image, ref_rng
    )
    assert netlist == ref_netlist
    for kind, ref_kind in zip(netlist.kinds(), ref_netlist.kinds()):
        assert kind.values.tobytes() == ref_kind.values.tobytes()
    assert pad_pixels == ref_pad_pixels
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("pixels", [8, 9, 16, 33, 48, 96])
@pytest.mark.parametrize("kind", ["fake", "real"])
def test_matches_reference(kind, pixels, seed):
    _assert_same_build(MAKERS[kind](f"{kind}_{pixels}", seed=seed, pixels=pixels))


@pytest.mark.parametrize(
    "overrides",
    [
        {"num_layers": 2},
        {"num_layers": 3},
        {"num_layers": 6},
        {"stripe_dropout": 0.79},
        {"pixel_nm": 500},
        {"num_pads": 1},
        {"num_pads": 12},
        {"resistance_jitter": 0.0},
        {"resistance_jitter": 0.9},
    ],
    ids=lambda overrides: "-".join(f"{k}={v}" for k, v in overrides.items()),
)
@pytest.mark.parametrize("kind", ["fake", "real"])
def test_matches_reference_with_overrides(kind, overrides):
    for seed in (0, 1):
        _assert_same_build(
            MAKERS[kind](f"{kind}_override", seed=seed, pixels=33, **overrides)
        )


def test_padless_top_layer_raises_like_reference():
    # Six layers on an 8 px die leave the top layer a single cross
    # position: no wire, no node, nowhere to put a pad.
    spec = make_fake_spec("tiny", seed=0, pixels=8, num_layers=6)
    for builder in (synthetic._build_netlist, reference_synthetic._build_netlist):
        with pytest.raises(RuntimeError, match="no via landings"):
            builder(spec, *_inputs(spec))
