"""Datasets: synthetic PG benchmarks, augmentation, curriculum, I/O.

The ICCAD-2023 contest data (120 designs: ~100 BeGAN-generated "fake" and
20 tape-out-derived "real" designs) is not redistributable, so
:mod:`repro.data.synthetic` generates an equivalent suite: regular
blob-load "fake" designs and irregular "real" designs (macros, stripe
dropout, clustered pads, resistance jitter).  The remaining modules supply
the training-set machinery the paper describes: 4x rotation augmentation,
fake-x2 / real-x5 oversampling, and predefined curriculum learning.
"""

from repro.data.augment import augment_dataset, oversample, rotate_sample
from repro.data.curriculum import CurriculumScheduler, difficulty_of
from repro.data.dataset import DesignSample, IRDropDataset, build_sample
from repro.data.iccad import save_iccad_design
from repro.data.synthetic import (
    Design,
    DesignSpec,
    generate_benchmark_suite,
    generate_design,
    make_fake_spec,
    make_real_spec,
)

__all__ = [
    "CurriculumScheduler",
    "Design",
    "DesignSample",
    "DesignSpec",
    "IRDropDataset",
    "augment_dataset",
    "build_sample",
    "difficulty_of",
    "generate_benchmark_suite",
    "generate_design",
    "make_fake_spec",
    "make_real_spec",
    "oversample",
    "rotate_sample",
    "save_iccad_design",
]
