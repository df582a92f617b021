"""Every array the network owns is float32, for every registered model.

One ``Trainer.fit`` epoch (with a checkpoint) and one prediction per
model, then an audit of parameters and gradients, Adam moments,
BatchNorm running statistics, the layers' scratch workspaces (captured
just before the trainer releases them), the inference plan's arena, the
training and inference outputs and the checkpoint's arrays.  A single
float64 allocation anywhere in the network widens what flows past it, so
one stray default shows up here.
"""

import numpy as np
import pytest

from repro.data.dataset import DesignSample, IRDropDataset
from repro.features.maps import FeatureStack
from repro.models.registry import MODEL_REGISTRY, create_model
from repro.nn.serialize import load_checkpoint
from repro.train.trainer import TrainConfig, Trainer

CHANNELS = 3


def _dataset(count=3, size=16):
    rng = np.random.default_rng(0)
    samples = []
    for k in range(count):
        label = rng.uniform(0.0, 2e-3, size=(size, size))
        samples.append(
            DesignSample(
                name=f"s{k}",
                kind="real",
                features=FeatureStack(
                    channels=[f"c{i}" for i in range(CHANNELS)],
                    data=rng.normal(size=(CHANNELS, size, size)),
                ),
                label=label,
                rough_label=label * 0.9,
            )
        )
    return IRDropDataset(samples)


def _not_float32(named):
    return sorted(name for name, dtype in named if dtype != np.float32)


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_every_network_array_is_float32(name, tmp_path, monkeypatch):
    model = create_model(name, in_channels=CHANNELS, base_channels=4, depth=2)
    ckpt = tmp_path / "ckpt.npz"
    config = TrainConfig(
        epochs=1, batch_size=2, checkpoint_every=1, checkpoint_path=str(ckpt)
    )
    trainer = Trainer(model, config=config)
    dataset = _dataset()

    scratch, outputs = [], []
    release = Trainer._release_workspaces

    def audit_then_release(self):
        for i, workspace in enumerate(self.model.workspaces()):
            scratch.extend(
                (f"workspace{i}.{key}", buffer.dtype)
                for key, buffer in workspace._buffers.items()
            )
        release(self)

    loss_forward = trainer.loss.forward

    def recording_loss(prediction, target):
        outputs.extend([("prediction", prediction.dtype), ("target", target.dtype)])
        return loss_forward(prediction, target)

    monkeypatch.setattr(Trainer, "_release_workspaces", audit_then_release)
    monkeypatch.setattr(trainer.loss, "forward", recording_loss)
    trainer.fit(dataset)

    assert scratch and outputs
    assert _not_float32(scratch) == []
    assert _not_float32(outputs) == []
    assert _not_float32(
        (f"{path}.{kind}", getattr(p, kind).dtype)
        for path, p in model.named_parameters()
        for kind in ("data", "grad")
    ) == []
    optimizer = trainer.optimizer
    assert _not_float32(
        (f"adam.{slot}{i}", moment.dtype)
        for slot, moments in (("m", optimizer._m), ("v", optimizer._v))
        for i, moment in enumerate(moments)
    ) == []
    assert _not_float32(
        (path, np.asarray(getattr(owner, attr)).dtype)
        for path, owner, attr in model.named_buffers()
    ) == []

    arrays, _ = load_checkpoint(ckpt)
    assert _not_float32(
        (key, value.dtype) for key, value in arrays.items() if key != "optim/t"
    ) == []

    plan = trainer.inference_plan()
    out = plan(np.stack([s.features.data for s in dataset]))
    assert out.dtype == np.float32
    arena = plan._arena._buffers
    assert arena
    assert _not_float32((key, buffer.dtype) for key, buffer in arena.items()) == []
    assert trainer.predict(dataset).dtype == np.float64
