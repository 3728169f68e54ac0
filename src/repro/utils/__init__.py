"""Shared utilities: seeding, checkpointing."""

from .seed import set_seed, get_rng, spawn_rng, derive_seed
from .serialization import (
    canonical_digest,
    save_checkpoint,
    load_checkpoint,
    peek_checkpoint,
    amend_checkpoint,
)

__all__ = [
    "set_seed",
    "get_rng",
    "spawn_rng",
    "derive_seed",
    "canonical_digest",
    "save_checkpoint",
    "load_checkpoint",
    "peek_checkpoint",
    "amend_checkpoint",
]
