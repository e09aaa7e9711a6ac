"""Dual-head contrastive fine-tuning engine.

A desk-scale trainer joining three objectives over one backbone: plain
cross-entropy on a classifier head, a key-bank contrastive variant of it
against class prototypes, and a multi-positive contrastive loss on a
projector head; keys come from per-class momentum queues or a memory
bank. All math runs on a small verified reverse-mode autodiff core.
"""

from .config import RunConfig, load_config, validate_config
from .data import Dataset, load_delimited, make_blobs, make_rings, subsample_per_class
from .keypool import KeyBatch, KeyEntry, MemoryBank, MocoQueues
from .losses import LossTerms, ccl, cce, ce, info_nce, joint_total, objective
from .model import ModelDims, ModelParams, forward_key, forward_query, init_params, init_twin, momentum_update
from .ndgrad import Tensor
from .trainer import TrainRun, evaluate, fit, step, warmup

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "KeyBatch",
    "KeyEntry",
    "LossTerms",
    "MemoryBank",
    "MocoQueues",
    "ModelDims",
    "ModelParams",
    "RunConfig",
    "Tensor",
    "TrainRun",
    "ccl",
    "cce",
    "ce",
    "evaluate",
    "fit",
    "forward_key",
    "forward_query",
    "info_nce",
    "init_params",
    "init_twin",
    "joint_total",
    "load_config",
    "load_delimited",
    "make_blobs",
    "make_rings",
    "momentum_update",
    "objective",
    "step",
    "subsample_per_class",
    "validate_config",
    "warmup",
]
