"""Characterization of the training loops behind Tables 2, 9 and 7.

Each row trains a small model through ``benchmarks/harness`` and hashes what
the table reads from it:

* ``lm-vanilla``: the LSTM LM after ``run_lm``, and the returned NLLs;
* ``lm-warmup``: Algorithm 1 on the LSTM LM by hand, as Tables 2 and 9 run
  it — ``run_lm`` warm-up, ``build_hybrid``, ``run_lm`` at half the LR;
* ``lm-scratch``: Table 9's other arm, the factorized LSTM trained from its
  random initialization;
* ``eb-search``: Table 7's EB-Train search on a small ResNet-50 — the epoch
  the ticket is drawn, the channel mask, and the slimmed model's state.

``run_lm(..., warmup_epochs=W)``, Algorithm 1 through ``PufferfishTrainer``,
must train the LM to the ``lm-warmup`` bytes (``W = 0``: ``lm-scratch``).

The LM learning rate is high enough that ``ReduceLROnPlateau`` decays it once
in the vanilla run, so the plateau decisions are pinned too.  The LM rows
train to the same bytes on both backends and run on the active one under one
digest; the EB rows reach the fast conv kernels and are pinned once per
backend.  Bytes depend on the BLAS kernels NumPy dispatches to, so the table
binds only where ``test_forward_frozen``'s ``PLATFORM_CANARY`` does.

Regenerate on purpose with
``PYTHONPATH=src python -m tests.test_table_loops_pinned``.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.harness import (
    eb_search,
    imagenet_loaders,
    lm_task,
    run_lm,
    scaled_resnet50,
)
from repro.core import build_hybrid
from repro.models import LSTMLanguageModel, lstm_lm_hybrid_config
from repro.pruning import EarlyBirdDetector, prune_resnet, resnet_internal_bns
from repro.tensor import backend
from repro.utils import canonical_digest, set_seed

from .test_forward_frozen import PLATFORM_CANARY, _sha, platform_canary

VOCAB = 24
EPOCHS = 5
WARMUP = 2
LR = 20.0
LM_SIZES = dict(bptt=8, batch=8)


def _lm_setup():
    set_seed(0)
    corpus = lm_task(
        np.random.default_rng(0), vocab=VOCAB, n_train=1200, n_valid=320, n_test=320, branching=4
    )
    return corpus, LSTMLanguageModel(VOCAB, embed_dim=16, num_layers=2, dropout=0.2)


def _lm_record(model, nlls: dict) -> dict:
    state = {k: _sha(v) for k, v in model.state_dict().items()}
    return {"state": state, "nll": {k: nlls[k] for k in ("train_nll", "val_nll", "test_nll")}}


def lm_vanilla() -> dict:
    corpus, model = _lm_setup()
    return _lm_record(model, run_lm(model, corpus, EPOCHS, lr=LR, **LM_SIZES))


def lm_warmup() -> dict:
    corpus, model = _lm_setup()
    run_lm(model, corpus, WARMUP, lr=LR, **LM_SIZES)
    hybrid, _ = build_hybrid(model, lstm_lm_hybrid_config(0.25))
    return _lm_record(hybrid, run_lm(hybrid, corpus, EPOCHS - WARMUP, lr=LR / 2, **LM_SIZES))


def lm_scratch() -> dict:
    corpus, model = _lm_setup()
    hybrid, _ = build_hybrid(model, lstm_lm_hybrid_config(0.25))
    return _lm_record(hybrid, run_lm(hybrid, corpus, EPOCHS, lr=LR, **LM_SIZES))


def lm_pufferfish(warmup_epochs: int) -> dict:
    corpus, model = _lm_setup()
    res = run_lm(model, corpus, EPOCHS, lr=LR, warmup_epochs=warmup_epochs, **LM_SIZES)
    return _lm_record(res["model"], res)


def eb() -> dict:
    set_seed(0)
    train, _, _ = imagenet_loaders(np.random.default_rng(0), n=40, classes=4, size=16, batch=8)
    model = scaled_resnet50(classes=4, width=0.125)
    detector = EarlyBirdDetector(
        0.5, threshold=0.15, patience=1, prunable_bns=resnet_internal_bns(model)
    )
    search_epochs = eb_search(model, train, detector, 4)
    slim = prune_resnet(model, detector.mask)
    return {
        "found_at": detector.found_at,
        "search_epochs": search_epochs,
        "mask": {k: _sha(v) for k, v in detector.mask.items()},
        "slim": {k: _sha(v) for k, v in slim.state_dict().items()},
    }


# name -> (row, backend to run under; None = the active one)
CONFIGS = {
    "lm-vanilla": (lm_vanilla, None),
    "lm-warmup": (lm_warmup, None),
    "lm-scratch": (lm_scratch, None),
    "eb-search-numpy": (eb, "numpy"),
    "eb-search-fast": (eb, "fast"),
}


def digest(name: str) -> str:
    row, be = CONFIGS[name]
    with backend.use(be or backend.active().name):
        return canonical_digest(row())


# fmt: off
PINNED = {
    "eb-search-fast": "b5379d876c1355fe",
    "eb-search-numpy": "e5fc78dc21208b33",
    "lm-scratch": "208864f2b817f947",
    "lm-vanilla": "8cd9788431135a27",
    "lm-warmup": "06be1778e85658ba",
}
# fmt: on


def test_table_covers_the_configs():
    assert set(PINNED) == set(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_digest_is_pinned(name):
    _require_canary()
    assert digest(name) == PINNED[name]


@pytest.mark.parametrize("warmup_epochs, hand", [(WARMUP, "lm-warmup"), (0, "lm-scratch")])
def test_run_lm_warmup_epochs_is_the_hand_sequence(warmup_epochs, hand):
    _require_canary()
    assert canonical_digest(lm_pufferfish(warmup_epochs)) == PINNED[hand]


def _require_canary():
    if platform_canary() != PLATFORM_CANARY:
        pytest.skip(
            "digest table was recorded on different BLAS kernels "
            f"(canary {platform_canary()} != {PLATFORM_CANARY})"
        )


if __name__ == "__main__":
    print("PINNED = {")
    for name in sorted(CONFIGS):
        print(f'    "{name}": "{digest(name)}",')
    print("}")
