"""The autograd graph keeps only what a backward reads.

An op output's array lives while the caller holds its ``Tensor`` or some
backward captured it — not because it is a vertex of the graph.  In the
``Conv2d → BatchNorm2d → ReLU`` block every conv net here is built from,
no backward reads the conv output (BatchNorm saves its own ``x_hat``) or
the BatchNorm output (ReLU saves its own output or mask), so once the
caller lets go of those two tensors their arrays must be gone while the
loss, and with it the whole graph, is still alive.  Backward over the
slimmer graph must give the same gradient bytes as over one whose every
intermediate tensor is still held.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro.nn import BatchNorm2d, Conv2d, ReLU
from repro.tensor import Tensor, backend
from repro.utils import set_seed


def _block_step(hold: bool):
    """Forward the block and its loss in train mode; return the loss, the
    parameters, weak references to the conv and BatchNorm output arrays, and
    (when ``hold``) the intermediate tensors themselves."""
    set_seed(0)
    conv, norm, relu = Conv2d(3, 8, 3, padding=1), BatchNorm2d(8), ReLU()
    x = Tensor(np.random.default_rng(1).standard_normal((4, 3, 8, 8)).astype(np.float32))
    held = [conv(x)]
    held.append(norm(held[0]))
    refs = [weakref.ref(t.data) for t in held]
    out = relu(held[-1])
    loss = (out * out).mean()
    params = list(conv.parameters()) + list(norm.parameters())
    return loss, params, refs, held if hold else None


@pytest.mark.parametrize("name", ["numpy", "fast"])
def test_intermediates_nobody_reads_are_freed_before_backward(name):
    with backend.use(name):
        loss, params, refs, _ = _block_step(hold=False)
        assert [r() is None for r in refs] == [True, True], "conv / BatchNorm output kept"
        loss.backward()
        got = [p.grad for p in params]

        ref_loss, ref_params, ref_refs, held = _block_step(hold=True)
        assert all(r() is not None for r in ref_refs)
        ref_loss.backward()
    assert loss.data.tobytes() == ref_loss.data.tobytes()
    for g, p in zip(got, ref_params):
        assert g.dtype == p.grad.dtype and g.tobytes() == p.grad.tobytes()


def test_backward_twice_on_the_slim_graph():
    """Nothing a backward captured is released by running it: a second
    backward from the same root gives what it gives over the held graph."""
    loss, params, _, _ = _block_step(hold=False)
    ref_loss, ref_params, _, held = _block_step(hold=True)
    for root in (loss, ref_loss):
        root.backward()
        root.backward()
    for p, r in zip(params, ref_params):
        assert p.grad.tobytes() == r.grad.tobytes()
