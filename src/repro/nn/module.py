"""Module / Parameter abstractions (the ``repro`` analogue of ``torch.nn``).

A :class:`Module` auto-registers :class:`Parameter`, buffer and child-module
attributes on assignment, exposes recursive iteration over parameters, and
supports (de)serialization through flat ``state_dict`` mappings — which the
Pufferfish warm-start machinery relies on to move weights between vanilla
and factorized architectures.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from ..observability import trace as _trace
from ..tensor import Tensor

__all__ = ["Parameter", "Module", "FoldedModelError"]


class FoldedModelError(RuntimeError):
    """Training or loading weights into a model whose BatchNorms were folded
    into its convs for serving (:func:`repro.core.fold_batchnorm`).  The
    folded kernels are derived from the parameters once, so either would
    leave the model computing something its state dict does not say."""


class Parameter(Tensor):
    """A trainable tensor; ``requires_grad`` is always True.

    Unlike :class:`Tensor` (which uses ``__slots__``), Parameter carries an
    instance ``__dict__`` so components can attach metadata — e.g. the
    ``no_decay`` flag optimizers use to exempt norm scales from weight decay.
    """

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        self.no_decay = False


class Module:
    """Base class for every network component.

    Subclasses assign parameters, buffers (plain ndarrays tracked for
    serialization, e.g. BatchNorm running statistics) and child modules as
    attributes; registration is automatic.
    """

    # True on every module of a :func:`repro.core.fold_batchnorm` copy.
    folded = False

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Attribute registration
    # ------------------------------------------------------------------

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            object.__setattr__(self, name, value)
        elif isinstance(value, Module):
            self._modules[name] = value
            object.__setattr__(self, name, value)
        else:
            # Replacing a registered entry with a non-matching type unregisters it.
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
            object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Track a non-trainable array in the state dict (e.g. BN stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def _set_buffer(self, name: str, value: np.ndarray) -> None:
        """Update a registered buffer's array in place of the registry."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------

    def parameters(self) -> Iterator[Parameter]:
        for _, p in self.named_parameters():
            yield p

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._parameters.items():
            yield prefix + name, p
        for mod_name, mod in self._modules.items():
            yield from mod.named_parameters(prefix + mod_name + ".")

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name in self._buffers:
            # Read through the attribute so in-place replacement is seen.
            yield prefix + name, getattr(self, name)
        for mod_name, mod in self._modules.items():
            yield from mod.named_buffers(prefix + mod_name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for mod in self._modules.values():
            yield from mod.modules()

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for mod_name, mod in self._modules.items():
            yield from mod.named_modules(prefix + mod_name + ".")

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def get_submodule(self, path: str) -> "Module":
        """Fetch a nested child by dotted path (e.g. ``"features.3"``)."""
        mod: Module = self
        if path:
            for part in path.split("."):
                mod = mod._modules[part]
        return mod

    def set_submodule(self, path: str, new: "Module") -> None:
        """Replace a nested child by dotted path (used by the hybrid builder)."""
        parts = path.split(".")
        parent = self
        for part in parts[:-1]:
            parent = parent._modules[part]
        setattr(parent, parts[-1], new)

    # ------------------------------------------------------------------
    # Modes & grads
    # ------------------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        if mode:
            _refuse_folded(self.modules(), "train(True)")
        for mod in self.modules():
            object.__setattr__(mod, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        """Total scalar parameter count (the paper's "# Params" column)."""
        return sum(p.data.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        out: OrderedDict[str, np.ndarray] = OrderedDict()
        for name, p in self.named_parameters():
            out[name] = p.data.copy()
        for name, b in self.named_buffers():
            out[name] = np.array(b, copy=True)
        return out

    def load_state_dict(self, state: dict, strict: bool = True) -> None:
        _refuse_folded(self.modules(), "load_state_dict")
        params = dict(self.named_parameters())
        buffers = dict(self.named_buffers())
        for key, value in state.items():
            if key in params or key in buffers:
                have = params[key].data if key in params else buffers[key]
                if np.shape(have) != np.shape(value):
                    raise ValueError(
                        f"shape mismatch for {key}: {np.shape(have)} vs {np.shape(value)}"
                    )
            if key in params:
                # In-place copy (not a rebind) so views into a flat
                # parameter arena stay aliased; assignment casts like the
                # previous ``astype`` did.
                params[key].data[...] = value
            elif key in buffers:
                self._assign_buffer(key, value)
            elif strict:
                raise KeyError(f"unexpected key in state dict: {key}")
        if strict:
            missing = (set(params) | set(buffers)) - set(state)
            if missing:
                raise KeyError(f"missing keys in state dict: {sorted(missing)}")

    def _assign_buffer(self, dotted: str, value: np.ndarray) -> None:
        parts = dotted.split(".")
        mod: Module = self
        for part in parts[:-1]:
            mod = mod._modules[part]
        mod._set_buffer(parts[-1], np.array(value, copy=True))

    # ------------------------------------------------------------------
    # Calling
    # ------------------------------------------------------------------

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        # Per-module forward spans are finer-grained than the phase spans,
        # so they sit behind their own flag (see observability.trace).
        if _trace.MODULE_SPANS and _trace.ENABLED:
            with _trace.span(type(self).__name__, kind="module"):
                return self.forward(*args, **kwargs)
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        lines = [self.__class__.__name__ + "("]
        for name, mod in self._modules.items():
            child = repr(mod).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child}")
        lines.append(")")
        return "\n".join(lines) if len(lines) > 2 else self.__class__.__name__ + "()"


def _refuse_folded(mods, what: str) -> None:
    if any(mod.folded for mod in mods):
        raise FoldedModelError(
            f"{what} on a model with BatchNorm folded into its convs for "
            "serving; train or load the unfolded model and fold it again"
        )
