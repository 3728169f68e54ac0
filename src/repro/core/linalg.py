"""The package's one door to LAPACK's SVD.

Every singular value decomposition goes through :func:`svd` (thin, with
factors) or :func:`svdvals` (values only, LAPACK's cheaper path): Algorithm
1's truncated SVD of trained weights, their spectra and rank allocations,
the Tucker-2 HOSVD, and the SVD codecs (AB-Training's resync, ATOMO).  Both
refuse a matrix that is not finite before LAPACK sees it: OpenBLAS 0.3.31's
SVD never returns on some such matrices (an ``inf`` at ``[0, 0]``), so a
diverged warm-up raises instead of hanging.  Callers that know the layer
path put it in the message with :func:`naming`.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = ["svd", "svdvals", "naming"]


def _require_finite(m: np.ndarray, what: str, error: type[np.linalg.LinAlgError]) -> None:
    if not np.isfinite(m).all():
        raise error(f"{what} is not finite")


def svd(m: np.ndarray, what: str, error: type[np.linalg.LinAlgError]):
    """Thin SVD ``(u, s, vt)`` of a finite ``m``; raises
    ``error("<what> is not finite")`` otherwise."""
    _require_finite(m, what, error)
    return np.linalg.svd(m, full_matrices=False)


def svdvals(m: np.ndarray, what: str, error: type[np.linalg.LinAlgError]) -> np.ndarray:
    """Singular values of a finite ``m``; raises ``error("<what> is not
    finite")`` otherwise."""
    _require_finite(m, what, error)
    return np.linalg.svd(m, compute_uv=False)


@contextmanager
def naming(path: str):
    """Prefix ``path`` to the message of a ``LinAlgError`` raised inside."""
    try:
        yield
    except np.linalg.LinAlgError as e:
        raise type(e)(f"{path}: {e}") from e
