"""Unit tests for Module/Parameter plumbing."""

import numpy as np
import pytest

from repro.nn.containers import Sequential
from repro.nn.layers import BatchNorm2d, Conv2d, ReLU
from repro.nn.module import Module, Parameter


class TestParameter:
    def test_grad_starts_zero(self):
        p = Parameter(np.ones((2, 2)), name="w")
        assert np.all(p.grad == 0.0)
        assert p.shape == (2, 2)
        assert p.size == 4

    def test_zero_grad(self):
        p = Parameter(np.ones(3))
        p.grad += 5.0
        p.zero_grad()
        assert np.all(p.grad == 0.0)

    def test_float32_whatever_the_input_dtype(self):
        # The network has one dtype: weights, gradients and saved state.
        p = Parameter(np.ones((2, 3), dtype=np.float64))
        assert p.data.dtype == p.grad.dtype == np.float32
        bn = BatchNorm2d(2)
        bn.load_state_dict({k: v.astype(np.float64) for k, v in bn.state_dict().items()})
        assert all(v.dtype == np.float32 for v in bn.state_dict().values())


class TestDiscovery:
    def test_parameters_recursive(self, rng):
        model = Sequential(
            Conv2d(2, 3, 3, rng=rng), ReLU(), Sequential(Conv2d(3, 1, 1, rng=rng))
        )
        params = model.parameters()
        # conv1 w+b, conv2 w+b
        assert len(params) == 4

    def test_parameters_in_lists(self, rng):
        class Holder(Module):
            def __init__(self):
                super().__init__()
                self.layers = [Conv2d(1, 1, 1, rng=rng), Conv2d(1, 1, 1, rng=rng)]

        assert len(Holder().parameters()) == 4

    def test_num_parameters(self, rng):
        conv = Conv2d(2, 3, 3, bias=True, rng=rng)
        assert conv.num_parameters() == 2 * 3 * 9 + 3

    def test_zero_grad_recursive(self, rng):
        model = Sequential(Conv2d(2, 2, 3, rng=rng))
        x = rng.standard_normal((1, 2, 4, 4))
        model.backward(np.ones_like(model(x)))
        assert any((p.grad != 0).any() for p in model.parameters())
        model.zero_grad()
        assert all((p.grad == 0).all() for p in model.parameters())

    def test_train_eval_recursive(self, rng):
        model = Sequential(BatchNorm2d(2), Sequential(BatchNorm2d(2)))
        model.eval()
        assert not model.modules[0].training
        assert not model.modules[1].modules[0].training
        model.train()
        assert model.modules[0].training


class TestStateDict:
    def test_roundtrip(self, rng):
        a = Sequential(Conv2d(2, 3, 3, rng=np.random.default_rng(1)), ReLU())
        b = Sequential(Conv2d(2, 3, 3, rng=np.random.default_rng(2)), ReLU())
        x = rng.standard_normal((1, 2, 4, 4))
        assert not np.allclose(a(x), b(x))
        b.load_state_dict(a.state_dict())
        assert np.allclose(a(x), b(x))

    def test_names_are_paths(self, rng):
        model = Sequential(Conv2d(2, 3, 3, rng=rng))
        names = set(model.state_dict())
        assert names == {"modules.0.weight", "modules.0.bias"}

    def test_missing_key_rejected(self, rng):
        model = Sequential(Conv2d(2, 3, 3, rng=rng))
        state = model.state_dict()
        state.pop("modules.0.bias")
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_unexpected_key_rejected(self, rng):
        model = Sequential(Conv2d(2, 3, 3, rng=rng))
        state = model.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_shape_mismatch_rejected(self, rng):
        model = Sequential(Conv2d(2, 3, 3, rng=rng))
        state = model.state_dict()
        state["modules.0.bias"] = np.zeros(99)
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_float64_entries_load_as_their_float32_rounding(self, rng):
        # Model files and checkpoints written while the network was float64.
        model = Sequential(Conv2d(2, 3, 3, rng=rng), BatchNorm2d(3))
        wide = {
            key: rng.uniform(0.5, 1.5, size=value.shape)
            for key, value in model.state_dict().items()
        }
        model.load_state_dict(wide)
        loaded = model.state_dict()
        for key, value in wide.items():
            assert loaded[key].dtype == np.float32
            np.testing.assert_array_equal(loaded[key], value.astype(np.float32))
        assert all(p.grad.dtype == np.float32 for p in model.parameters())

    @pytest.mark.parametrize("kind", [np.int64, np.bool_, np.complex128])
    def test_non_floating_entry_rejected_before_any_weight_moves(self, rng, kind):
        model = Sequential(Conv2d(2, 3, 3, rng=rng), BatchNorm2d(3))
        before = model.state_dict()
        versions = [p.version for p in model.parameters()]
        state = {key: value + 1.0 for key, value in before.items()}
        # The last entry checked: every weight before it would have moved
        # in a load that assigned as it went.
        state["modules.1.running_var"] = np.ones(3, dtype=kind)
        with pytest.raises(ValueError, match="modules.1.running_var"):
            model.load_state_dict(state)
        after = model.state_dict()
        for key, value in before.items():
            np.testing.assert_array_equal(after[key], value)
        assert [p.version for p in model.parameters()] == versions

    def test_loaded_copy_is_independent(self, rng):
        a = Sequential(Conv2d(2, 3, 3, rng=rng))
        state = a.state_dict()
        state["modules.0.bias"][:] = 123.0
        assert not np.any(a.state_dict()["modules.0.bias"] == 123.0)
