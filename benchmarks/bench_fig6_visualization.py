"""Fig. 6 — qualitative IR-drop map comparison.

Renders golden vs MAUnet vs IR-Fusion maps for one held-out real design as
character art (no plotting stack offline) and saves the raw arrays so they
can be replotted elsewhere.  Expected shape: the IR-Fusion map tracks the
golden hotspot layout more closely (lower per-pixel error) than MAUnet's.
"""

from __future__ import annotations

import numpy as np

from common import ARTIFACTS, bench_config, save_artifact
from repro.core.pipeline import IRFusionPipeline
from repro.eval.report import ascii_map, side_by_side
from repro.train.metrics import mae


def _run_fig6():
    config = bench_config()
    fusion = IRFusionPipeline(config)
    fusion.train()

    from dataclasses import replace

    from repro.features.fusion import FeatureConfig

    maunet_config = config.with_(
        model_name="maunet",
        features=FeatureConfig(use_numerical=False, hierarchical=False),
        train=replace(config.train, use_curriculum=False),
    )
    maunet = IRFusionPipeline(maunet_config)
    maunet.train()

    _, test_set = fusion.build_datasets()
    _, maunet_test = maunet.build_datasets()
    sample_fusion = test_set[0]
    sample_maunet = maunet_test[0]
    golden = sample_fusion.label
    predicted_fusion = fusion.predict_sample(sample_fusion)
    predicted_maunet = maunet.predict_sample(sample_maunet)
    return golden, predicted_maunet, predicted_fusion


def test_fig6_visualization(capsys):
    golden, map_maunet, map_fusion = _run_fig6()
    art = side_by_side(
        [ascii_map(golden, 32), ascii_map(map_maunet, 32), ascii_map(map_fusion, 32)],
        ["(a) Golden", "(b) MAUnet", "(c) IR-Fusion (Ours)"],
    )
    err_maunet = mae(map_maunet, golden)
    err_fusion = mae(map_fusion, golden)
    caption = (
        f"\nMAE vs golden: MAUnet={err_maunet * 1e4:.2f}e-4 V, "
        f"IR-Fusion={err_fusion * 1e4:.2f}e-4 V"
    )
    save_artifact("fig6_visualization.txt", art + caption)
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        ARTIFACTS / "fig6_maps.npz",
        golden=golden,
        maunet=map_maunet,
        ir_fusion=map_fusion,
    )
    with capsys.disabled():
        print("\n" + art + caption)
    # Paper shape: the fusion map is closer to golden than MAUnet's.
    assert err_fusion < err_maunet
