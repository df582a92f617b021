"""What a training epoch leaves in the layers' workspaces.

Every convolution runs the per-tap kernel in training too, so no
layer holds a ``(N, C*kh*kw, H*W)`` patch matrix: the workspaces keep the
staged inputs and gradients, a few MB at the suite's ``train_epoch``
sizes (32 px, base 8, depth 3, batch 8) where patch matrices took over
40 MB.  The audit reads the workspaces just before the trainer releases
them, the way ``tests/test_nn_dtype_audit.py`` does.
"""

import numpy as np

from repro.data.dataset import DesignSample, IRDropDataset
from repro.features.maps import FeatureStack
from repro.models.registry import create_model
from repro.nn.layers import Conv2d, FusedConvBiasReLU
from repro.train.trainer import TrainConfig, Trainer

CHANNELS, PIXELS, BATCH = 12, 32, 8
BUDGET_BYTES = 20e6


def _dataset(count):
    rng = np.random.default_rng(0)
    samples = []
    for k in range(count):
        label = rng.uniform(0.0, 2e-3, size=(PIXELS, PIXELS))
        samples.append(
            DesignSample(
                name=f"s{k}",
                kind="real",
                features=FeatureStack(
                    channels=[f"c{i}" for i in range(CHANNELS)],
                    data=rng.normal(size=(CHANNELS, PIXELS, PIXELS)),
                ),
                label=label,
                rough_label=label * 0.9,
            )
        )
    return IRDropDataset(samples)


def _patch_shape(conv):
    """The ``(N, C*kh*kw, H*W)`` patch matrix of a conv's last forward."""
    n, c, h, w = conv._x_shape
    (kh, kw), (ph, pw) = conv.kernel, conv.padding
    return (n, c * kh * kw, (h + 2 * ph - kh + 1) * (w + 2 * pw - kw + 1))


def _epoch_workspaces(monkeypatch, count):
    """(buffer shapes, summed bytes, patch shapes) at the end of one epoch."""
    model = create_model(
        "ir_fusion", in_channels=CHANNELS, base_channels=8, depth=3, seed=0
    )
    trainer = Trainer(model, config=TrainConfig(epochs=1, batch_size=BATCH))
    seen = {}
    release = Trainer._release_workspaces

    def audit_then_release(self):
        buffers = [b for ws in self.model.workspaces() for b in ws._buffers.values()]
        convs = [
            m
            for _, m in self.model.named_modules()
            if isinstance(m, (Conv2d, FusedConvBiasReLU)) and m.kernel != (1, 1)
        ]
        seen["shapes"] = {b.shape for b in buffers}
        seen["bytes"] = sum(b.nbytes for b in buffers)
        seen["patches"] = {_patch_shape(m) for m in convs}
        release(self)

    monkeypatch.setattr(Trainer, "_release_workspaces", audit_then_release)
    trainer.fit(_dataset(count))
    return seen["shapes"], seen["bytes"], seen["patches"]


def test_training_holds_no_patch_matrix(monkeypatch):
    shapes, total, patches = _epoch_workspaces(monkeypatch, BATCH)
    assert patches, "no spatial conv ran"
    assert not shapes & patches, sorted(shapes & patches)
    assert total <= BUDGET_BYTES, f"{total / 1e6:.1f} MB of workspace"


def test_short_trailing_batch_replaces_the_full_batch_buffers(monkeypatch):
    _, full, _ = _epoch_workspaces(monkeypatch, BATCH)
    shapes, ragged, _ = _epoch_workspaces(monkeypatch, BATCH + 3)
    assert ragged <= full, (ragged, full)
    assert all(shape[0] != BATCH for shape in shapes if len(shape) >= 3)
