"""Encoding order does not reach the numerics: worker-major == group-major.

``DistributedTrainer`` may encode one iteration's gradients in two orders:

* **group-major** — for each gradient group (overlap bucket), every worker;
* **worker-major** — for each worker, every group, as soon as that worker's
  backward ends.

Both make exactly one ``encode`` per ``(worker, group)`` before any decode,
so a codec whose state is keyed per worker and per global layer, and moved
only in ``decode_aggregate`` / ``advance_step``, cannot tell them apart.
This suite proves that codec by codec, over several rounds: the decoded
aggregates, every worker's ``error_norm`` and the claimed ``nbytes`` are
byte-identical between the two orders.

Allreduce-compatible codecs are tiled with the buckets of
``tests/test_powersgd_rounds.py``.  The others cannot ride the overlap path
(the trainer rejects it), so they are only ever encoded as one group, and
three of them (``qsgd``, ``binary``, ``atomo``) draw from one shared random
stream in call order; they are checked in the one tiling they run in.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import make_compressor, registered_compressors
from repro.utils import set_seed
from tests.test_powersgd_rounds import BUCKETS, SHAPES, gradients

WORLD = 4
ROUNDS = 4
ALL_NAMES = sorted(registered_compressors())


def groups_for(name: str) -> tuple[tuple[int, ...], ...]:
    """The tiling the trainer can encode ``name`` in: buckets under overlap
    for allreduce-compatible codecs, otherwise one group."""
    if registered_compressors()[name].allreduce_compatible:
        return BUCKETS
    return (tuple(range(len(SHAPES))),)


def encode_round(comp, grads, groups, worker_major: bool):
    """``encoded[j][k]``: worker ``k``'s result for group ``j``, produced in
    the requested order."""
    encoded = [[None] * WORLD for _ in groups]
    order = (
        [(w, j) for w in range(WORLD) for j in range(len(groups))]
        if worker_major
        else [(w, j) for j in range(len(groups)) for w in range(WORLD)]
    )
    for w, j in order:
        g = groups[j]
        encoded[j][w] = comp.encode(w, [grads[w][i] for i in g], layer_offset=g[0])
    return encoded


def run(name: str, worker_major: bool) -> list[dict]:
    """Per round: decoded bytes, error norms and claimed bytes."""
    set_seed(1234)  # the stochastic codecs spawn their stream from here
    comp = make_compressor(name, WORLD)
    groups = groups_for(name)
    rounds = []
    for r in range(ROUNDS):
        grads = [gradients(r, w) for w in range(WORLD)]
        with np.errstate(all="ignore"):
            encoded = encode_round(comp, grads, groups, worker_major)
            decoded = [comp.decode_aggregate(per_worker) for per_worker in encoded]
        comp.advance_step()
        rounds.append(
            {
                "agg": [a.tobytes() for bucket in decoded for a in bucket],
                "error_norm": [float(comp.error_norm(w)).hex() for w in range(WORLD)],
                "nbytes": [[res.nbytes for res in per_worker] for per_worker in encoded],
            }
        )
    return rounds


@pytest.mark.parametrize("name", ALL_NAMES)
def test_worker_major_equals_group_major(name):
    group_major = run(name, worker_major=False)
    worker_major = run(name, worker_major=True)
    assert len(group_major) == ROUNDS >= 3
    for r, (a, b) in enumerate(zip(group_major, worker_major)):
        assert a == b, f"{name}: round {r} depends on the encoding order"


def test_allreduce_compatible_codecs_are_tiled():
    """The tiled half is not vacuous: every allreduce-compatible codec runs
    with more than one group, so the two orders interleave differently."""
    tiled = [n for n in ALL_NAMES if len(groups_for(n)) > 1]
    assert {"powersgd", "abtrain", "sgd"} <= set(tiled)
