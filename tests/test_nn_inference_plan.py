"""``InferencePlan`` against the eval-mode module graph it replaced.

``_graph_predict`` is what ``Trainer.predict`` did before the plan:
``model.eval(); model(x); model.train()`` through the training modules
(unfolded convolutions, per-call BatchNorm affine, argmax pooling).  It is
the oracle for every planned kernel; agreement is to rounding, not
bitwise — folding BatchNorm and accumulating per tap reorder the sums.
The plan runs in float32, the network's dtype; the graph runs in float32
too, or in float64 on a widened copy of the model (``fp64`` ids), and
both agree with the plan to 1e-5 of the largest magnitude.
"""

import copy
import json
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.core.batch import BatchAnalyzer, _PipelineTask
from repro.core.config import FusionConfig
from repro.core.pipeline import IRFusionPipeline
from repro.core.pool import shutdown_pool
from repro.data.dataset import DesignSample, IRDropDataset
from repro.data.synthetic import generate_design, make_fake_spec, make_real_spec
from repro.features.fusion import channel_names
from repro.features.maps import FeatureStack
from repro.models.registry import MODEL_REGISTRY, create_model
from repro.nn.attention import ChannelAttention
from repro.nn.containers import Sequential
from repro.nn.inference import InferencePlan, PlannedConv
from repro.nn.layers import BatchNorm2d
from repro.nn.serialize import save_state
from repro.obs import counters_delta, metrics_snapshot, trace
from repro.obs.registry import MODEL_LOAD, SpanName
from repro.spice.writer import write_spice
from repro.train.trainer import TrainConfig, Trainer
from tests.helpers import widen

CHANNELS = 5
TOLERANCE = 1e-5
DTYPES = [np.float64, np.float32]
IDS = ["fp64", "fp32"]


def _randomise(model, seed):
    """Non-trivial weights *and* BatchNorm running stats (a fresh model's
    head is zero and its BN is the identity, which would hide most bugs)."""
    rng = np.random.default_rng(seed)
    for parameter in model.parameters():
        parameter.data[...] = rng.normal(scale=0.3, size=parameter.data.shape)
        parameter.bump_version()
    for _, owner, attr in model.named_buffers():
        low = 0.5 if attr == "running_var" else -0.5
        shape = getattr(owner, attr).shape
        setattr(owner, attr, rng.uniform(low, 1.5, size=shape).astype(np.float32))


def _trainer(name="ir_fusion", seed=0, **config):
    model = create_model(name, in_channels=CHANNELS, base_channels=4, depth=2)
    _randomise(model, seed)
    return Trainer(model, config=TrainConfig(**config))


def _sample(shape, seed, rough=False):
    rng = np.random.default_rng(seed)
    features = FeatureStack(
        channels=[f"c{i}" for i in range(CHANNELS)],
        data=rng.normal(size=(CHANNELS, *shape)),
    )
    return DesignSample(
        name=f"s{seed}",
        kind="real",
        features=features,
        label=rng.normal(scale=1e-3, size=shape),
        rough_label=rng.normal(scale=1e-3, size=shape) if rough else None,
    )


def _graph_predict(trainer, samples, dtype=np.float32):
    """The eval graph's prediction, run in *dtype* (float64 on a widened copy)."""
    model = trainer.model
    if dtype == np.float64:
        model = widen(copy.deepcopy(model))
    x = np.stack([s.features.data for s in samples]).astype(dtype)
    model.eval()
    out = model(x)
    model.train()
    assert out.dtype == dtype
    return out[:, 0].astype(np.float64) / trainer.config.label_scale


def _relative(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def _leaves(model):
    """Every childless module in *model*'s tree."""
    return [module for _, module in model.named_modules() if not module.children()]


# -- numerics ------------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES, ids=IDS)
@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_plan_matches_eval_graph(name, dtype):
    trainer = _trainer(name)
    for count, shape in [(1, (32, 48)), (3, (32, 48)), (1, (16, 16))]:
        samples = [_sample(shape, seed) for seed in range(count)]
        want = _graph_predict(trainer, samples, dtype)
        got = trainer.predict(samples)
        assert got.shape == want.shape == (count, *shape)
        assert got.dtype == np.float64  # widened at the network's boundary
        assert np.abs(want).max() > 1e-3  # the comparison is not 0 == 0
        assert _relative(got, want) <= TOLERANCE


def test_fold_patterns_with_and_without_conv_relu_fusion():
    for fuse in (True, False):
        model = create_model("ir_fusion", in_channels=CHANNELS, base_channels=4, depth=2)
        _randomise(model, 3)
        trainer = Trainer(model, fuse=fuse)
        samples = [_sample((16, 32), 0)]
        assert _relative(trainer.predict(samples), _graph_predict(trainer, samples)) <= TOLERANCE
        plan = trainer.inference_plan()
        # conv+BN+ReLU is one op: the double-conv bottleneck plans to two
        # kernels and four placeholders, at the source tree's positions.
        kinds = [type(m).__name__ for m in plan.root.bottleneck.modules]
        assert kinds == ["PlannedConv", "Identity", "Identity"] * 2
        assert plan.num_ops < len(_leaves(model))


def test_unplanned_leaves_keep_their_own_forward():
    """Channel attention has no planned kernel; it runs as itself on the
    live weights."""
    model = Sequential(BatchNorm2d(CHANNELS), ChannelAttention(CHANNELS, reduction=2))
    _randomise(model, 5)
    plan = InferencePlan(model)
    x = np.random.default_rng(0).normal(size=(2, CHANNELS, 16, 16)).astype(np.float32)
    model.eval()
    assert _relative(plan(x), model(x)) <= TOLERANCE
    leaf = plan.root.modules[1]
    assert type(leaf) is ChannelAttention and leaf is not model.modules[1]
    model.modules[1].w1.data *= 2.0
    model.modules[1].w1.bump_version()
    assert _relative(plan(x), model(x)) <= TOLERANCE


# -- determinism ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_batch_members_and_repeats_are_bitwise_stable(name):
    trainer = _trainer(name)
    a, b = _sample((96, 96), 0, rough=True), _sample((96, 96), 1, rough=True)
    small = _sample((32, 32), 2, rough=True)
    first = trainer.predict([a])[0]
    assert np.array_equal(trainer.predict([a, b])[0], first)
    trainer.predict([small])
    # 96 -> 32 -> 96 px: nothing leaks from one size's buffers to the next.
    assert np.array_equal(trainer.predict([a])[0], first)
    assert np.array_equal(trainer.predict([b, a])[1], first)


def test_buffers_are_bounded_by_one_input_size():
    trainer = _trainer()
    plan = trainer.inference_plan()
    assert plan.buffer_bytes == 0
    trainer.predict([_sample((64, 64), 0)])
    large = plan.buffer_bytes
    trainer.predict([_sample((16, 16), 0)])
    assert 0 < plan.buffer_bytes < large
    trainer.predict([_sample((64, 64), 0)])
    assert plan.buffer_bytes == large


# -- staleness is impossible -----------------------------------------------------


def _fit_samples():
    return [_sample((16, 16), seed, rough=True) for seed in range(4)]


def _refolds(before):
    counters = counters_delta(before)["counters"]
    return counters.get("nn.plan_builds", 0), counters.get("nn.plan_refolds", 0)


@pytest.mark.parametrize("dtype", DTYPES, ids=IDS)
def test_predict_follows_every_kind_of_weight_change(dtype):
    trainer = _trainer(epochs=1, batch_size=2)
    probe = [_sample((16, 16), 9)]

    def check(builds, refolds, before):
        got = trainer.predict(probe)
        assert got.dtype == np.float64
        assert _relative(got, _graph_predict(trainer, probe, dtype)) <= TOLERANCE
        assert _refolds(before) == (builds, refolds)
        return got

    before = metrics_snapshot()
    start = check(1, 0, before)  # first use builds; nothing to re-fold

    before = metrics_snapshot()
    trainer.fit(IRDropDataset(_fit_samples()))
    after_fit = check(0, 1, before)  # one epoch of steps = exactly one re-fold
    assert not np.array_equal(after_fit, start)

    before = metrics_snapshot()
    state = {k: v * 1.5 for k, v in trainer.model.state_dict().items()}
    trainer.model.load_state_dict(state)
    after_load = check(0, 1, before)
    assert not np.array_equal(after_load, after_fit)

    before = metrics_snapshot()
    conv = trainer.model.bottleneck.modules[0]
    conv.weight.data[:] = 0.25
    conv.weight.bump_version()
    after_poke = check(0, 1, before)
    assert not np.array_equal(after_poke, after_load)

    before = metrics_snapshot()
    x = np.stack([s.features.data for s in _fit_samples()]).astype(np.float32)
    old_mean = trainer.model.bottleneck.modules[1].running_mean
    trainer.model(x)  # a training-mode forward moves the BN running stats
    assert trainer.model.bottleneck.modules[1].running_mean is not old_mean
    after_stats = check(0, 1, before)
    assert not np.array_equal(after_stats, after_poke)

    before = metrics_snapshot()
    assert np.array_equal(check(0, 0, before), after_stats)  # warm: fold-free


def test_predict_leaves_the_training_flag_alone():
    trainer = _trainer()
    calls = []
    trainer.model.train = lambda mode=True: calls.append(mode)
    trainer.predict([_sample((16, 16), 0)])
    assert calls == [] and trainer.model.training


# -- no patch matrix -------------------------------------------------------------


def test_ir_fusion_predict_never_builds_a_patch_matrix():
    """The plan's arena holds only the per-tap kernel's staged rows and
    accumulators and the box filter's sums: no patch matrix."""
    trainer = _trainer("ir_fusion")
    sample = [_sample((32, 32), 0)]
    want = _graph_predict(trainer, sample)
    assert _relative(trainer.predict(sample), want) <= TOLERANCE
    plan = trainer.inference_plan()
    names = list(plan._arena._buffers)
    assert names and all(n.startswith(("stage", "acc", "tap", "sums")) for n in names)
    assert any(isinstance(module, PlannedConv) for module in _leaves(plan.root))


# -- two threads, one model ------------------------------------------------------


def _probe(pipeline, design):
    result = pipeline.analyze_design(design)
    return DesignSample(
        name=design.spec.name,
        kind="real",
        features=result.features,
        label=np.zeros(result.features.shape),
        rough_label=result.rough_drop,
    )


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """(pipeline from a checkpoint with randomised weights, two designs)."""
    designs = [
        generate_design(make_real_spec("plan_r0", seed=0, pixels=96)),
        generate_design(make_fake_spec("plan_f1", seed=1, pixels=96)),
    ]
    config = FusionConfig(pixels=96)
    channels = len(channel_names(config.features, designs[0].grid.layers_present()))
    model = IRFusionPipeline(config).build_model(channels)
    _randomise(model, 11)
    path = tmp_path_factory.mktemp("plan-model") / "model.npz"
    save_state(model, path)
    recorded = {
        key: getattr(config, key)
        for key in ("pixels", "base_channels", "depth", "solver_iterations")
    }
    meta = {"in_channels": channels, "config": recorded}
    (path.parent / "model.npz.json").write_text(json.dumps(meta))
    with trace(SpanName("load")) as tracer:
        pipeline = IRFusionPipeline.from_model_file(path)
    return pipeline, designs, tracer


def test_from_model_file_builds_the_plan_under_model_load(loaded):
    pipeline, _, tracer = loaded
    load = tracer.root.find(MODEL_LOAD)
    assert [child.name for child in load.children] == ["model_build", "plan_build"]
    before = metrics_snapshot()
    pipeline.trainer.inference_plan()  # held since the load; not built again
    assert _refolds(before) == (0, 0)


def test_warm_analyze_builds_and_refolds_nothing(loaded):
    pipeline, designs, _ = loaded
    pipeline.analyze_design(designs[0])
    before = metrics_snapshot()
    pipeline.analyze_design(designs[0])
    assert _refolds(before) == (0, 0)


def test_two_threads_one_model_equal_serial(loaded):
    pipeline, designs, _ = loaded
    probes = [_probe(pipeline, design) for design in designs]
    serial = [pipeline.trainer.predict([probe])[0] for probe in probes]
    assert not np.array_equal(serial[0], serial[1])
    rounds = 60
    mismatches = [0, 0]
    errors = []

    def loop(i):
        try:
            for _ in range(rounds):
                got = pipeline.trainer.predict([probes[i]])[0]
                mismatches[i] += not np.array_equal(got, serial[i])
        except Exception as exc:  # surfaced below; a thread must not die silently
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=loop, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert mismatches == [0, 0]


# -- processes -------------------------------------------------------------------


def test_batch_payload_ships_no_plan_and_workers_agree_bitwise(loaded, tmp_path):
    pipeline, designs, _ = loaded
    pipeline.analyze_design(designs[0])  # plan buffers are warm
    assert pipeline.trainer.inference_plan().buffer_bytes > 0
    weights = sum(p.data.nbytes for p in pipeline.model.parameters())
    payload = pickle.dumps(_PipelineTask(pipeline))
    assert len(payload) < 2 * weights + 65536
    # A plan itself pickles without its buffers or its lock.
    clone = pickle.loads(pickle.dumps(pipeline.trainer.inference_plan()))
    assert clone.buffer_bytes == 0
    decks = []
    for seed in (3, 4):
        spec = make_real_spec(f"plan_s{seed}", seed=seed, pixels=32)
        decks.append(tmp_path / f"{spec.name}.sp")
        write_spice(generate_design(spec).netlist, decks[-1])
    try:
        parent = BatchAnalyzer(pipeline, jobs=1).analyze_files(decks)
        pooled = BatchAnalyzer(pipeline, jobs=2).analyze_files(decks)
    finally:
        shutdown_pool()
    for mine, theirs in zip(parent.items, pooled.items):
        assert mine.ok and theirs.ok
        assert np.array_equal(mine.result.predicted_drop, theirs.result.predicted_drop)
