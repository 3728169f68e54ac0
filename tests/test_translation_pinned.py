"""Characterization of ``repro train``: one pinned digest per run.

Every row runs the CLI end to end (Algorithm 1 under ``--method pufferfish``:
warm-up, truncated-SVD conversion, low-rank fine-tuning) and hashes every
array of the checkpoint it writes — the trained weights and the metadata
record that carries the score.  Most rows are ``--task transformer`` (Adam or
LAMB, greedy-decode BLEU); ``cifar-amp`` is the image task under the AMP
emulation with momentum SGD.  A change to how a task is trained or evaluated
that keeps these digests trains the same weights to the bit and reports the
same score.

The Adam rows run on whichever backend is active: every op they reach is
``bit-exact`` in :data:`repro.tensor.backend.PARITY`, so one digest binds
both.  The ``lamb`` and ``cifar-amp`` rows reach ``tolerance``-tagged ops
(LAMB's segmented norms, the fast conv kernels) and are pinned once per
backend.

Bytes depend on the BLAS kernels NumPy dispatches to, so the table binds only
where ``test_forward_frozen``'s ``PLATFORM_CANARY`` does.

Regenerate on purpose with
``PYTHONPATH=src python -m tests.test_translation_pinned``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.tensor import backend
from repro.utils import canonical_digest

from .test_forward_frozen import PLATFORM_CANARY, _sha, platform_canary

TRANSLATION = [
    "train", "--task", "transformer", "--epochs", "3", "--warmup-epochs", "1",
    "--samples", "96", "--batch-size", "32", "--seed", "1",
]
AMP = [
    "train", "--model", "vgg11", "--amp", "--epochs", "2", "--warmup-epochs", "1",
    "--samples", "64", "--batch-size", "16", "--seed", "1",
]
# name -> (argv, backend to run under; None = the active one)
CONFIGS = {
    method: (TRANSLATION + ["--method", method], None) for method in ("vanilla", "pufferfish")
}
for _be in ("numpy", "fast"):
    CONFIGS[f"lamb-{_be}"] = (TRANSLATION + ["--optimizer", "lamb"], _be)
    CONFIGS[f"cifar-amp-{_be}"] = (AMP, _be)


def run_config(config: tuple, directory: Path) -> dict:
    argv, be = config
    ckpt = directory / "train.npz"
    with backend.use(be or backend.active().name):
        assert main(argv + ["--checkpoint", str(ckpt)]) == 0
    with np.load(ckpt) as data:
        return {key: _sha(data[key]) for key in data.files}


# fmt: off
PINNED = {
    "cifar-amp-fast": "43518a0a05959ca1",
    "cifar-amp-numpy": "5e1391803d754849",
    "lamb-fast": "5b619da1a2ea8efe",
    "lamb-numpy": "81310d9d05fb19b2",
    "pufferfish": "f3ec3029e68f2a96",
    "vanilla": "a07f6e79abea13e1",
}
# fmt: on


def test_table_covers_the_matrix():
    assert set(PINNED) == set(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_digest_is_pinned(name, tmp_path):
    if platform_canary() != PLATFORM_CANARY:
        pytest.skip(
            "digest table was recorded on different BLAS kernels "
            f"(canary {platform_canary()} != {PLATFORM_CANARY})"
        )
    assert canonical_digest(run_config(CONFIGS[name], tmp_path)) == PINNED[name]


if __name__ == "__main__":
    print("PINNED = {")
    for name in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as tmp:
            digest = canonical_digest(run_config(CONFIGS[name], Path(tmp)))
        print(f'    "{name}": "{digest}",')
    print("}")
