"""Characterization of ``repro train --task transformer``: one pinned digest per run.

Every row runs the CLI end to end (Algorithm 1 under ``--method pufferfish``:
warm-up, truncated-SVD conversion, low-rank fine-tuning) and hashes every
array of the checkpoint it writes — the trained weights and the metadata
record that carries the greedy-decode BLEU.  A change to how the translation
task is trained or evaluated that keeps these digests trains the same weights
to the bit and reports the same score.

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
from repro.utils import canonical_digest

from .test_forward_frozen import PLATFORM_CANARY, _sha, platform_canary

ARGV = [
    "train", "--task", "transformer", "--epochs", "3", "--warmup-epochs", "1",
    "--samples", "96", "--batch-size", "32", "--seed", "1",
]
CONFIGS = {
    f"{method}{'-fused' if fused else ''}": ["--method", method] + (["--fused"] if fused else [])
    for method in ("vanilla", "pufferfish")
    for fused in (False, True)
}


def run_config(extra: list[str], directory: Path) -> dict:
    ckpt = directory / "translation.npz"
    assert main(ARGV + extra + ["--checkpoint", str(ckpt)]) == 0
    with np.load(ckpt) as data:
        return {key: _sha(data[key]) for key in data.files}


# fmt: off
PINNED = {
    "pufferfish": "f3ec3029e68f2a96",
    "pufferfish-fused": "f3ec3029e68f2a96",
    "vanilla": "a07f6e79abea13e1",
    "vanilla-fused": "a07f6e79abea13e1",
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
