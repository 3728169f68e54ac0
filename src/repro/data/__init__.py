"""Synthetic datasets and loaders (substitutes for CIFAR-10 / ImageNet /
WikiText-2 / WMT16 — see DESIGN.md for the substitution rationale)."""

from .synthetic import (
    SyntheticImageDataset,
    make_cifar_like,
    make_imagenet_like,
    random_crop_flip,
    CIFAR_MEAN,
    CIFAR_STD,
    IMAGENET_MEAN,
    IMAGENET_STD,
)
from .text import (
    MarkovCorpus,
    make_lm_corpus,
    batchify,
    get_lm_batch,
    lm_chunks,
    TranslationDataset,
    make_translation_dataset,
)
from .loader import DataLoader, shard_dataset

__all__ = [
    "SyntheticImageDataset",
    "make_cifar_like",
    "make_imagenet_like",
    "random_crop_flip",
    "CIFAR_MEAN",
    "CIFAR_STD",
    "IMAGENET_MEAN",
    "IMAGENET_STD",
    "MarkovCorpus",
    "make_lm_corpus",
    "batchify",
    "get_lm_batch",
    "lm_chunks",
    "TranslationDataset",
    "make_translation_dataset",
    "DataLoader",
    "shard_dataset",
]
