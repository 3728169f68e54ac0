"""Lifecycle-specific exceptions."""

from __future__ import annotations

__all__ = ["LifecycleError", "LifecycleConfigError", "PromotionError", "CorruptCheckpointError"]


class LifecycleError(Exception):
    """Base class for lifecycle failures."""


class LifecycleConfigError(LifecycleError, ValueError):
    """A lifecycle config that cannot produce a valid run."""


class PromotionError(LifecycleError):
    """Registry promotion or lookup failed (missing run, bad version, ...)."""


class CorruptCheckpointError(LifecycleError):
    """A promoted checkpoint file that NumPy cannot read back (truncated,
    emptied, overwritten) or that does not load into the model it was
    promoted as (an array of the wrong shape, a missing key); the message
    names the file."""
