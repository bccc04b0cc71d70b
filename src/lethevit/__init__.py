"""Attention-guided contrastive unlearning for small Vision Transformers.

The package is organized around the unlearning workflow:

- `tensor`: reverse-mode autodiff engine over numpy buffers
- `vit`: minimal ViT classifier exposing final-block attention
- `masking`: attention-guided top-k patch masking
- `unlearning`: the contrastive pipeline plus Retrain/FT/GA/RL baselines
- `evaluation`: FA/RA/TA/MIA metrics and the average gap to Retrain
- `data`: toy dataset generation, splits, persistence
- `cli`: the `lethevit` command-line entry point
"""

from .data import (
    DataSplit,
    LabeledDataset,
    generate_toy_dataset,
    load_dataset,
    save_dataset,
    split_random_forget,
)
from .evaluation import (
    GapReport,
    MetricsReport,
    average_gap,
    evaluate_model,
    evaluate_models,
    masking_sweep,
)
from .masking import MaskSpec, MaskType, build_masked_view
from .tensor import Tape, Tensor, backward
from .unlearning import (
    TrainConfig,
    UnlearnConfig,
    contrastive_loss,
    fine_tune,
    gradient_ascent,
    random_labels,
    retrain,
    train_model,
    unlearn,
)
from .vit import ViTConfig, ViTParams, forward, init_params, load_params, save_params

__version__ = "0.1.0"

__all__ = [
    "DataSplit",
    "GapReport",
    "LabeledDataset",
    "MaskSpec",
    "MaskType",
    "MetricsReport",
    "Tape",
    "Tensor",
    "TrainConfig",
    "UnlearnConfig",
    "ViTConfig",
    "ViTParams",
    "average_gap",
    "backward",
    "build_masked_view",
    "contrastive_loss",
    "evaluate_model",
    "evaluate_models",
    "fine_tune",
    "forward",
    "generate_toy_dataset",
    "gradient_ascent",
    "init_params",
    "load_dataset",
    "load_params",
    "masking_sweep",
    "random_labels",
    "retrain",
    "save_dataset",
    "save_params",
    "split_random_forget",
    "train_model",
    "unlearn",
]
