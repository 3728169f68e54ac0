"""Shared utilities: seeding, logging, checkpointing."""

from .seed import set_seed, get_rng, spawn_rng
from .logging import Logger
from .serialization import (
    canonical_digest,
    save_checkpoint,
    load_checkpoint,
    save_model,
    load_model,
    peek_checkpoint,
    amend_checkpoint,
)

__all__ = [
    "set_seed",
    "get_rng",
    "spawn_rng",
    "Logger",
    "canonical_digest",
    "save_checkpoint",
    "load_checkpoint",
    "save_model",
    "load_model",
    "peek_checkpoint",
    "amend_checkpoint",
]
