"""The one SVD door (``repro.core.linalg``): a weight that is not finite
raises a typed ``LinAlgError`` naming its layer before LAPACK sees it.

OpenBLAS 0.3.31's SVD never returns on some matrices that are not finite
(an ``inf`` at ``[0, 0]``), so each test swaps ``np.linalg.svd`` for a
stand-in that asserts finiteness: a raw call fails loudly instead of
hanging.
"""

from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.core import (
    FactorizationConfig,
    allocation_report,
    budget_rank_allocation,
    build_hybrid,
    energy_rank_allocation,
    layer_spectra,
    tucker2_decompose,
)
from repro.models import MLP

SRC = Path(__file__).resolve().parent.parent / "src"
BAD_VALUES = {"+inf": np.inf, "nan": np.nan}


@pytest.fixture(autouse=True)
def lapack_sees_only_finite_matrices(monkeypatch):
    real_svd = np.linalg.svd

    def lapack(m, *args, **kwargs):
        assert np.isfinite(m).all(), "np.linalg.svd reached with a matrix that is not finite"
        return real_svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", lapack)


def _conv_model():
    return nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1),
        nn.ReLU(),
        nn.Conv2d(8, 8, 3, padding=1),
        nn.GlobalAvgPool2d(),
        nn.Linear(8, 4),
    )


# (model, path of a factorized leaf, name of the weight to poison)
MODELS = {
    "conv": (_conv_model, "2", "weight"),
    "linear": (lambda: MLP(8, [16, 16], 4), "net.2", "weight"),
    "lstm": (lambda: nn.LSTM(6, 8, num_layers=2), "layers.1", "weight_ih"),
}


def _poisoned(kind: str, bad: str):
    build, path, weight = MODELS[kind]
    model = build()
    w = getattr(model.get_submodule(path), weight).data
    w[(0,) * w.ndim] = BAD_VALUES[bad]
    return model, path


@pytest.mark.parametrize("bad", sorted(BAD_VALUES))
@pytest.mark.parametrize("kind", sorted(MODELS))
def test_build_hybrid_refuses_a_weight_that_is_not_finite(kind, bad):
    model, path = _poisoned(kind, bad)
    with pytest.raises(np.linalg.LinAlgError, match=rf"^{path}: the weight is not finite$"):
        build_hybrid(model, FactorizationConfig(rank_ratio=0.5))


@pytest.mark.parametrize("bad", sorted(BAD_VALUES))
@pytest.mark.parametrize("kind", sorted(MODELS))
def test_layer_spectra_refuses_a_weight_that_is_not_finite(kind, bad):
    model, path = _poisoned(kind, bad)
    with pytest.raises(np.linalg.LinAlgError, match=rf"^{path}: the weight is not finite$"):
        layer_spectra(model)


@pytest.mark.parametrize("bad", sorted(BAD_VALUES))
@pytest.mark.parametrize(
    "allocate",
    [
        energy_rank_allocation,
        lambda model: budget_rank_allocation(model, 10_000),
        lambda model: allocation_report(model, {"net.2": 2}),
    ],
    ids=["energy", "budget", "report"],
)
def test_rank_allocators_refuse_a_weight_that_is_not_finite(allocate, bad):
    model, path = _poisoned("linear", bad)
    with pytest.raises(np.linalg.LinAlgError, match=rf"^{path}: the weight is not finite$"):
        allocate(model)


@pytest.mark.parametrize("bad", sorted(BAD_VALUES))
def test_tucker2_refuses_a_kernel_that_is_not_finite(bad):
    w = np.random.default_rng(0).standard_normal((8, 6, 3, 3)).astype(np.float32)
    w[0, 0, 0, 0] = BAD_VALUES[bad]
    with pytest.raises(np.linalg.LinAlgError, match="^the kernel is not finite$"):
        tucker2_decompose(w, 4, 3)


def test_lapack_svd_is_called_from_one_module():
    """``np.linalg.svd`` appears in ``src/`` only in ``core/linalg.py``:
    once with factors, once values only."""
    calls = {
        path.relative_to(SRC).as_posix(): path.read_text().count("linalg.svd")
        for path in sorted(SRC.rglob("*.py"))
    }
    assert calls.pop("repro/core/linalg.py") == 2
    assert not {path: n for path, n in calls.items() if n}
