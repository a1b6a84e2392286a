"""Desk-scale unified multimodal retrieval lab.

A complete pipeline over synthetic token corpora: a small transformer
retriever, its weights plain read-only arrays, with prefix layer pruning
and a hand-written backward through its block stack; contrastive and
self-distillation objectives with a modality-adaptive temperature matrix,
each one node on a small loss tape with a hand-written vjp; a deterministic
simulated data-parallel trainer; and a flat cosine retrieval index with
Recall@k evaluation.
"""

from .encoder import Encoder, EncoderConfig, estimate_flops, prune
from .datagen import Corpus, CorpusSpec, generate_corpus
from .losses import (
    TemperatureSchedule,
    infonce,
    mac_loss,
    self_distill,
)
from .tensor import Tensor
from .trainer import TrainConfig, run_stage, train_step

__all__ = [
    "Corpus",
    "CorpusSpec",
    "Encoder",
    "EncoderConfig",
    "TemperatureSchedule",
    "Tensor",
    "TrainConfig",
    "estimate_flops",
    "generate_corpus",
    "infonce",
    "mac_loss",
    "prune",
    "run_stage",
    "self_distill",
    "train_step",
]

__version__ = "0.1.0"
