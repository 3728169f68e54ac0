"""Checkpointing: save/load model and optimizer state as ``.npz`` files.

Keeps the whole training state restartable — model parameters and buffers,
the optimizer's learning rate and flat state (momentum buffer, Adam moments,
step count), and arbitrary user metadata (epoch, best metric, ...).  Also home
of :func:`canonical_digest`, the canonical-JSON hash reports are compared by.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # imported lazily to keep repro.utils free of cycles
    from ..nn.module import Module
    from ..optim.optimizer import Optimizer

__all__ = [
    "canonical_digest",
    "save_checkpoint",
    "load_checkpoint",
    "peek_checkpoint",
    "amend_checkpoint",
]

_META_KEY = "__meta_json__"


def canonical_digest(obj) -> str:
    """16-hex sha256 of ``obj``'s key-sorted JSON — the one digest every
    report, timeline and trace in the repo is compared by."""
    payload = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def save_checkpoint(
    path: str | Path,
    model: Module,
    optimizer: Optimizer | None = None,
    **metadata,
) -> None:
    """Write model + optimizer + JSON-serializable metadata to one .npz.

    The optimizer section is its :meth:`~repro.optim.Optimizer.state_dict`:
    flat state slabs as ``opt/<key>`` arrays, scalars (arena size, step
    count, an unset momentum buffer) in the metadata record.
    """
    arrays: dict[str, np.ndarray] = {
        f"model/{k}": v for k, v in model.state_dict().items()
    }
    meta: dict = {"metadata": metadata}
    if optimizer is not None:
        scalars = {}
        for key, value in optimizer.state_dict().items():
            if isinstance(value, np.ndarray):
                arrays[f"opt/{key}"] = value
            else:
                scalars[key] = value
        meta["optimizer"] = {
            "lr": optimizer.lr, "type": type(optimizer).__name__, "state": scalars
        }
    arrays[_META_KEY] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def peek_checkpoint(path: str | Path) -> dict:
    """The metadata dict of a checkpoint without touching any model.

    Lets loaders decide *how* to build the architecture before loading
    weights — e.g. a promoted lifecycle checkpoint carries its rank map,
    which must shape the hybrid before :func:`load_checkpoint` can succeed.
    Returns ``{}`` for a file without metadata.
    """
    with np.load(path) as data:
        if _META_KEY not in data.files:
            return {}
        meta = json.loads(bytes(data[_META_KEY]).decode())
    return meta.get("metadata", {})


def amend_checkpoint(src: str | Path, dst: str | Path, **metadata) -> None:
    """Copy a checkpoint while merging ``metadata`` into its metadata dict.

    Arrays are carried over verbatim — only the embedded JSON changes.
    Used by the promotion registry to stamp lineage into an existing
    training artifact without re-serializing the model.
    """
    with np.load(src) as data:
        arrays = {k: data[k] for k in data.files if k != _META_KEY}
        meta = (
            json.loads(bytes(data[_META_KEY]).decode())
            if _META_KEY in data.files
            else {}
        )
    meta.setdefault("metadata", {}).update(metadata)
    arrays[_META_KEY] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(dst, **arrays)


def load_checkpoint(
    path: str | Path,
    model: Module,
    optimizer: Optimizer | None = None,
) -> dict:
    """Restore model (+ optimizer) state; returns the saved metadata dict
    (``{}`` for a file without metadata, whose model still loads)."""
    with np.load(path) as data:
        meta = json.loads(bytes(data[_META_KEY]).decode()) if _META_KEY in data.files else {}
        state = {k[len("model/"):]: data[k] for k in data.files if k.startswith("model/")}
        if optimizer is not None and "optimizer" in meta:
            # Loaded first: a section that does not fit raises before the
            # model or the optimizer changes.
            opt_state = dict(meta["optimizer"].get("state", {}))
            opt_state.update(
                {k[len("opt/"):]: data[k] for k in data.files if k.startswith("opt/")}
            )
            optimizer.load_state_dict(opt_state)
            optimizer.lr = float(meta["optimizer"]["lr"])
        model.load_state_dict(state)
    return meta.get("metadata", {})
