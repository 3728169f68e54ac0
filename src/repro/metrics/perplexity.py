"""Perplexity for language modeling."""

from __future__ import annotations

import math

__all__ = ["perplexity"]


# Ceiling on the reported perplexity, so a diverged run prints a number.
_CAP = 1e9


def perplexity(mean_nll: float) -> float:
    """``exp(mean negative log-likelihood)``, clamped at ``1e9`` against overflow."""
    try:
        return min(math.exp(mean_nll), _CAP)
    except OverflowError:
        return _CAP
