"""Characterization of Fig. 4 (bottom): Algorithm 1 end to end under data
parallelism, as ``benchmarks/harness.fig4_endtoend`` runs it.

Both arms — vanilla SGD, and Pufferfish's full-rank warm-up, SVD and
low-rank epochs — train a small ResNet-18 on a simulated 2-rank ring.  Each
epoch's row is hashed without its wall clock: val loss and accuracy, the
modeled comm seconds, wire bytes per iteration, iterations and parameter
count.  The convs reach the fast kernels, so the rows are pinned once per
backend.  Bytes depend on the BLAS kernels NumPy dispatches to, so the table
binds only where ``test_forward_frozen``'s ``PLATFORM_CANARY`` does.

Regenerate on purpose with
``PYTHONPATH=src python -m tests.test_fig4_endtoend_pinned``.
"""

from __future__ import annotations

import pytest

from benchmarks.harness import fig4_endtoend
from repro.distributed import ClusterSpec
from repro.tensor import backend
from repro.utils import canonical_digest

from .test_forward_frozen import PLATFORM_CANARY, platform_canary

SIZES = dict(epochs=3, warmup=1, worker_batch=8, iters=2, width=0.125, seed=3)


def digest(be: str) -> str:
    with backend.use(be):
        arms = fig4_endtoend(ClusterSpec(2, bandwidth_gbps=1.0), **SIZES)
    rows = {arm: [{k: v for k, v in r.items() if k != "clock"} for r in arms[arm]]
            for arm in arms}
    return canonical_digest(rows)


# fmt: off
PINNED = {
    "fast": "df4a73d284a5b0b4",
    "numpy": "b321ee86b965e9bf",
}
# fmt: on


@pytest.mark.parametrize("be", sorted(PINNED))
def test_digest_is_pinned(be):
    if platform_canary() != PLATFORM_CANARY:
        pytest.skip(
            "digest table was recorded on different BLAS kernels "
            f"(canary {platform_canary()} != {PLATFORM_CANARY})"
        )
    assert digest(be) == PINNED[be]


if __name__ == "__main__":
    print("PINNED = {")
    for be in sorted(PINNED):
        print(f'    "{be}": "{digest(be)}",')
    print("}")
