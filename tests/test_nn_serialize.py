"""Unit tests for saving and loading model weights."""

import os

import numpy as np
import pytest

from repro.nn.containers import Sequential
from repro.nn.layers import Conv2d, ReLU
from repro.nn.module import Module
from repro.nn.serialize import load_state, save_state


def test_save_load_roundtrip(tmp_path, rng):
    a = Sequential(Conv2d(2, 3, 3, rng=np.random.default_rng(1)), ReLU())
    b = Sequential(Conv2d(2, 3, 3, rng=np.random.default_rng(2)), ReLU())
    path = tmp_path / "model.npz"
    save_state(a, path)
    load_state(b, path)
    x = rng.standard_normal((1, 2, 4, 4))
    assert np.allclose(a(x), b(x))


def test_save_parameterless_module_rejected(tmp_path):
    class Empty(Module):
        pass

    with pytest.raises(ValueError):
        save_state(Empty(), tmp_path / "empty.npz")


def test_load_into_wrong_architecture_rejected(tmp_path, rng):
    a = Sequential(Conv2d(2, 3, 3, rng=rng))
    b = Sequential(Conv2d(2, 4, 3, rng=rng))
    path = tmp_path / "model.npz"
    save_state(a, path)
    with pytest.raises(ValueError):
        load_state(b, path)


def test_save_state_ignores_stale_tmp(tmp_path, rng):
    """A stale temporary from a crashed writer is never installed."""
    module = Sequential(Conv2d(2, 3, 3, rng=rng))
    path = tmp_path / "model.npz"
    with open(str(path) + ".tmp", "wb") as handle:
        handle.write(b"half-written garbage from a crashed run")
    save_state(module, path)
    target = Sequential(Conv2d(2, 3, 3, rng=np.random.default_rng(9)))
    load_state(target, path)
    for key, value in module.state_dict().items():
        np.testing.assert_array_equal(target.state_dict()[key], value)
    assert sorted(os.listdir(tmp_path)) == ["model.npz"]


def test_save_state_overwrite_is_atomic_and_clean(tmp_path):
    a = Sequential(Conv2d(2, 3, 3, rng=np.random.default_rng(1)))
    b = Sequential(Conv2d(2, 3, 3, rng=np.random.default_rng(2)))
    path = tmp_path / "model.npz"
    save_state(a, path)
    save_state(b, path)
    target = Sequential(Conv2d(2, 3, 3, rng=np.random.default_rng(3)))
    load_state(target, path)
    for key, value in b.state_dict().items():
        np.testing.assert_array_equal(target.state_dict()[key], value)
    assert sorted(os.listdir(tmp_path)) == ["model.npz"]


@pytest.mark.parametrize("fault", ["encode", "rename"])
def test_failed_save_keeps_the_previous_archive(tmp_path, monkeypatch, fault):
    """A save that raises partway never leaves a torn archive behind."""
    old = Sequential(Conv2d(2, 3, 3, rng=np.random.default_rng(1)))
    new = Sequential(Conv2d(2, 3, 3, rng=np.random.default_rng(2)))
    path = tmp_path / "model.npz"
    save_state(old, path)

    def torn_savez(file, **arrays):
        # Half an archive reaches the target, then the disk fills up.
        if isinstance(file, (str, os.PathLike)):
            with open(file, "wb") as handle:
                handle.write(b"PK\x03\x04 half an archive")
        else:
            file.write(b"PK\x03\x04 half an archive")
        raise OSError("No space left on device")

    def failed_replace(src, dst):
        raise OSError("rename failed")

    if fault == "encode":
        monkeypatch.setattr(np, "savez_compressed", torn_savez)
    else:
        monkeypatch.setattr(os, "replace", failed_replace)
    with pytest.raises(OSError):
        save_state(new, path)
    monkeypatch.undo()
    target = Sequential(Conv2d(2, 3, 3, rng=np.random.default_rng(3)))
    load_state(target, path)
    for key, value in old.state_dict().items():
        np.testing.assert_array_equal(target.state_dict()[key], value)
    assert sorted(os.listdir(tmp_path)) == ["model.npz"]


def test_float64_model_file_loads_as_its_float32_rounding(tmp_path):
    # A model file written while the network was float64.
    module = Sequential(Conv2d(2, 3, 3, rng=np.random.default_rng(1)))
    rng = np.random.default_rng(0)
    wide = {
        key: rng.uniform(0.5, 1.5, size=value.shape)
        for key, value in module.state_dict().items()
    }
    assert not any(np.array_equal(v, v.astype(np.float32)) for v in wide.values())
    path = tmp_path / "wide.npz"
    np.savez_compressed(path, **wide)
    load_state(module, path)
    for key, value in wide.items():
        got = module.state_dict()[key]
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, value.astype(np.float32))


def test_load_state_names_missing_and_unexpected_keys(tmp_path, rng):
    source = Sequential(Conv2d(2, 3, 3, rng=rng))
    target = Sequential(Conv2d(2, 3, 3, rng=rng), Conv2d(3, 3, 1, rng=rng))
    path = tmp_path / "weights.npz"
    state = source.state_dict()
    state["stray.weight"] = np.zeros(2)
    np.savez_compressed(path, **state)
    with pytest.raises(ValueError) as excinfo:
        load_state(target, path)
    message = str(excinfo.value)
    assert "missing" in message and "1.weight" in message
    assert "unexpected" in message and "stray.weight" in message


def test_full_model_roundtrip(tmp_path, rng):
    from repro.models import IRFusionNet

    a = IRFusionNet(in_channels=5, base_channels=4, depth=2, seed=1)
    b = IRFusionNet(in_channels=5, base_channels=4, depth=2, seed=2)
    path = tmp_path / "fusion.npz"
    save_state(a, path)
    load_state(b, path)
    x = rng.standard_normal((1, 5, 8, 8))
    a.eval(), b.eval()
    assert np.allclose(a(x), b(x))
