"""Synthetic datasets and loaders (substitutes for CIFAR-10 / ImageNet /
WikiText-2 / WMT16 — see DESIGN.md for the substitution rationale)."""

from .synthetic import make_cifar_like, make_imagenet_like, random_crop_flip
from .text import (
    make_lm_corpus,
    batchify,
    get_lm_batch,
    lm_chunks,
    TranslationDataset,
    make_translation_dataset,
)
from .loader import DataLoader, shard_dataset

__all__ = [
    "make_cifar_like",
    "make_imagenet_like",
    "random_crop_flip",
    "make_lm_corpus",
    "batchify",
    "get_lm_batch",
    "lm_chunks",
    "TranslationDataset",
    "make_translation_dataset",
    "DataLoader",
    "shard_dataset",
]
