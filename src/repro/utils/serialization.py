"""Checkpointing: save/load model and optimizer state as ``.npz`` files.

Keeps the whole training state restartable — model parameters and buffers,
optimizer hyper-parameters and per-parameter state (momentum buffers, Adam
moments), and arbitrary user metadata (epoch, best metric, ...).  Also home
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
    "save_model",
    "load_model",
    "peek_checkpoint",
    "amend_checkpoint",
]

_META_KEY = "__meta_json__"


def canonical_digest(obj) -> str:
    """16-hex sha256 of ``obj``'s key-sorted JSON — the one digest every
    report, timeline and trace in the repo is compared by."""
    payload = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def save_model(model: Module, path: str | Path) -> None:
    """Write a model's state dict to ``path`` (.npz)."""
    arrays = {f"model/{k}": v for k, v in model.state_dict().items()}
    np.savez(path, **arrays)


def load_model(model: Module, path: str | Path, strict: bool = True) -> None:
    """Load a state dict saved by :func:`save_model` into ``model``."""
    with np.load(path) as data:
        state = {k[len("model/"):]: data[k] for k in data.files if k.startswith("model/")}
    model.load_state_dict(state, strict=strict)


def save_checkpoint(
    path: str | Path,
    model: Module,
    optimizer: Optimizer | None = None,
    **metadata,
) -> None:
    """Write model + optimizer + JSON-serializable metadata to one .npz."""
    arrays: dict[str, np.ndarray] = {
        f"model/{k}": v for k, v in model.state_dict().items()
    }
    meta: dict = {"metadata": metadata}
    if optimizer is not None:
        meta["optimizer"] = {"lr": optimizer.lr, "type": type(optimizer).__name__}
        # Optimizer state is keyed by parameter position (stable across a
        # save/load as long as the parameter list order is unchanged).
        for idx, p in enumerate(optimizer.params):
            state = optimizer.state.get(id(p), {})
            for key, value in state.items():
                if isinstance(value, np.ndarray):
                    arrays[f"opt/{idx}/{key}"] = value
                else:
                    meta.setdefault("opt_scalars", {})[f"{idx}/{key}"] = value
    arrays[_META_KEY] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def peek_checkpoint(path: str | Path) -> dict:
    """The metadata dict of a checkpoint without touching any model.

    Lets loaders decide *how* to build the architecture before loading
    weights — e.g. a promoted lifecycle checkpoint carries its rank map,
    which must shape the hybrid before ``load_model`` can succeed.
    Returns ``{}`` for plain :func:`save_model` files.
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
    strict: bool = True,
) -> dict:
    """Restore model (+ optimizer) state; returns the saved metadata dict."""
    with np.load(path) as data:
        meta = json.loads(bytes(data[_META_KEY]).decode()) if _META_KEY in data.files else {}
        state = {k[len("model/"):]: data[k] for k in data.files if k.startswith("model/")}
        model.load_state_dict(state, strict=strict)
        if optimizer is not None:
            if "optimizer" in meta:
                optimizer.lr = float(meta["optimizer"]["lr"])
            for key in data.files:
                if not key.startswith("opt/"):
                    continue
                _, idx, state_key = key.split("/", 2)
                p = optimizer.params[int(idx)]
                optimizer._state_for(p)[state_key] = data[key].copy()
            for flat_key, value in meta.get("opt_scalars", {}).items():
                idx, state_key = flat_key.split("/", 1)
                p = optimizer.params[int(idx)]
                optimizer._state_for(p)[state_key] = value
    return meta.get("metadata", {})
