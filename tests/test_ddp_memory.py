"""What one simulated DDP iteration holds, counted by ``tracemalloc``.

A real data-parallel worker holds its own gradient and its own error
memory, nothing more.  ``DistributedTrainer`` simulates its workers in one
process, one after another, so it must hold what one of them would:

* one worker's gradient, encoded as its backward ends and dropped before
  the next worker's backward starts;
* PowerSGD's error memory resident from the first round (the codec copies
  each gradient matrix in; no round keeps a worker's gradient alive);
* the decoded output the optimizer applies.

``tracemalloc`` counts every NumPy buffer exactly, so the bounds below are
derived from the parameter shapes alone: a whole iteration, first round
included, may rise above the level it starts or ends at by at most one
worker's gradient plus the decoded output (two model sizes; holding all
four workers' gradients at once needs four).

Between iterations the level is exact.  ``tracemalloc`` puts NumPy's array
buffers in a domain of their own, and the bytes there are a sum over the
parameter shapes: the optimizer's state and one chunk of gradient scratch,
the error memory, and the decoded gradient — whose matrices are the ``m̂``
the error memory keeps, handed over once rather than copied.

The arena optimizers allocate only the arena-sized slabs an update reads: a
``weight_decay=0`` update reads no decay mask, the step streams the gradient
through chunk-sized scratch instead of gathering it into a slab, and ``SGD``
without decay or Nesterov writes its final ``lr·d`` into the gradient chunk
it already overwrites.  The decay mask follows ``weight_decay`` when it
changes, as the per-tensor loops in ``tests/oracles.py`` do.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.compression import make_compressor
from repro.data import DataLoader
from repro.distributed import ClusterSpec, DistributedTrainer
from repro.models import MLP
from repro.optim import LAMB, SGD, Adam
from repro.optim.optimizer import CHUNK
from repro.tensor.backend import TOLERANCE_ATOL, TOLERANCE_RTOL
from repro.utils import set_seed
from tests.oracles import AdamLoop, LAMBLoop, SGDLoop

WORLD = 4
BATCH = 4
RANK = 2
FLOAT32 = 4
#: tracemalloc's domain for NumPy's array data buffers.
NUMPY_DOMAIN = 389047


def powersgd_trainer(optimizer_cls, overlap: bool, widths=(256, 128, 128)):
    """A 4-worker PowerSGD trainer whose parameters dwarf its activations
    (batch 4), and loaders that yield one batch per epoch."""
    set_seed(0)
    model = MLP(widths[0], list(widths[1:]), 10)
    opt = optimizer_cls(list(model.parameters()), lr=0.01, momentum=0.9)
    trainer = DistributedTrainer(
        model,
        opt,
        ClusterSpec(WORLD),
        compressor=make_compressor("powersgd", WORLD, rank=RANK),
        overlap=overlap,
        bucket_mb=0.05,
    )
    rng = np.random.default_rng(1)
    x = rng.standard_normal((BATCH * WORLD, widths[0])).astype(np.float32)
    y = rng.integers(0, 10, BATCH * WORLD)
    loaders = [DataLoader(x[w::WORLD], y[w::WORLD], BATCH) for w in range(WORLD)]
    return model, trainer, loaders


def iteration_rises(trainer, loaders, iterations: int) -> list[int]:
    """Per iteration, the traced peak above the higher of the levels the
    iteration starts and ends at."""
    rises = []
    tracemalloc.start()
    try:
        for _ in range(iterations):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            trainer.train_epoch(loaders)
            end, peak = tracemalloc.get_traced_memory()
            rises.append(peak - max(start, end))
    finally:
        tracemalloc.stop()
    return rises


@pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "overlap"])
# A per-tensor optimizer reads every gradient in place, the arena streams
# them through a chunk of scratch; the ids are the names the two had when
# both lived in repro.optim.
@pytest.mark.parametrize("optimizer_cls", [SGDLoop, SGD], ids=["SGD", "FusedSGD"])
def test_an_iteration_holds_one_workers_gradient(optimizer_cls, overlap):
    model, trainer, loaders = powersgd_trainer(optimizer_cls, overlap)
    model_bytes = sum(p.data.nbytes for p in model.parameters())
    gradient, decoded = model_bytes, model_bytes
    bound = gradient + decoded
    rises = iteration_rises(trainer, loaders, 4)
    assert trainer._buckets is None or len(trainer._buckets) > 1
    # Round one allocates the residual store; rounds 2-4 are steady state.
    for r, rise in enumerate(rises):
        assert rise <= bound, f"round {r + 1}: {rise} B above its level, bound {bound} B"


def numpy_bytes() -> int:
    """Bytes of every NumPy array buffer allocated since tracing started
    and still alive."""
    snapshot = tracemalloc.take_snapshot()
    traces = snapshot.filter_traces([tracemalloc.DomainFilter(True, NUMPY_DOMAIN)]).traces
    return sum(t.size for t in traces)


#: The level of the test below after three iterations, traced from before
#: the trainer is built, on the code before the step streamed and PowerSGD
#: handed its ``m̂`` over once: that optimizer gathered every gradient into
#: an arena-sized slab, and the decode gave the trainer a copy of each ``m̂``.
GATHERING_LEVEL = 5_990_768


@pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "overlap"])
def test_the_steady_state_level_is_exact(overlap):
    """Between iterations the trainer holds, byte for byte, what it held once
    built (the arena and the momentum slab, the data) plus the sum below.
    That is two model-sized slabs fewer than :data:`GATHERING_LEVEL` — the
    gathered gradient and the copy of every ``m̂`` — less the one chunk of
    scratch the streamed step reads the gradient through."""
    tracemalloc.start()
    try:
        start = numpy_bytes()
        model, trainer, loaders = powersgd_trainer(SGD, overlap, widths=(512, 256, 128))
        built = numpy_bytes() - start
        levels = []
        for _ in range(3):
            trainer.train_epoch(loaders)
            levels.append(numpy_bytes() - start)
    finally:
        tracemalloc.stop()
    params = list(model.parameters())
    model_bytes = sum(p.data.nbytes for p in params)
    assert model_bytes > CHUNK * FLOAT32
    matrices = [p.data.reshape(p.data.shape[0], -1) for p in params if p.data.ndim >= 2]
    matrix_bytes = sum(m.nbytes for m in matrices)
    held = {
        "gradient chunk": CHUNK * FLOAT32,
        "error memory": WORLD * matrix_bytes,
        "m̂, the matrices' p.grad": matrix_bytes,
        "the vectors' p.grad": model_bytes - matrix_bytes,
        "warm-start Q": sum(m.shape[1] * RANK * FLOAT32 for m in matrices),
    }
    assert [level - built for level in levels] == [sum(held.values())] * 3, held
    assert GATHERING_LEVEL - levels[-1] == model_bytes + matrix_bytes - CHUNK * FLOAT32


def held_arrays(opt) -> dict[str, int]:
    """Name -> element count of every array the optimizer holds."""
    return {k: v.size for k, v in vars(opt).items() if isinstance(v, np.ndarray)}


def stepped(opt_cls, **kwargs):
    """Two steps on an arena of more than one chunk, so a chunk-sized
    scratch and an arena-sized slab cannot be mistaken for each other."""
    set_seed(0)
    model = MLP(300, [256], 4)
    opt = opt_cls(list(model.parameters()), lr=1e-3, **kwargs)
    rng = np.random.default_rng(0)
    for _ in range(2):
        for p in model.parameters():
            p.grad = rng.standard_normal(p.data.shape).astype(np.float32)
        opt.step()
    return opt


@pytest.mark.parametrize(
    "opt_cls,kwargs,slabs,chunks",
    [
        (SGD, {}, set(), {"_grad_chunk"}),
        (SGD, {"momentum": 0.9}, {"_momentum_buf"}, {"_grad_chunk"}),
        (SGD, {"momentum": 0.9, "nesterov": True}, {"_momentum_buf"}, {"_grad_chunk", "_tmp_chunk"}),
        (SGD, {"weight_decay": 1e-2}, {"_decay_mask"}, {"_grad_chunk", "_tmp_chunk"}),
        (Adam, {}, {"_m", "_v"}, {"_grad_chunk", "_tmp_chunk"}),
        (Adam, {"weight_decay": 1e-2}, {"_m", "_v", "_decay_mask"}, {"_grad_chunk", "_tmp_chunk"}),
        (LAMB, {}, {"_m", "_v", "_u"}, set()),
    ],
    ids=["sgd", "sgd-momentum", "sgd-nesterov", "sgd-decay", "adam", "adam-decay", "lamb"],
)
def test_fused_optimizers_hold_only_the_slabs_an_update_reads(opt_cls, kwargs, slabs, chunks):
    """Every array the optimizer holds is an arena-sized slab the update
    reads, a chunk of scratch, or (LAMB) one segment boundary per tensor."""
    opt = stepped(opt_cls, **kwargs)
    size = opt._arena.size
    assert size > CHUNK
    want = {**{k: size for k in slabs}, **{k: CHUNK for k in chunks}}
    if opt_cls is LAMB:
        want.update(_seg_starts=len(opt.params), _seg_sizes=len(opt.params))
    assert held_arrays(opt) == want


PAIRS = [(SGDLoop, SGD, {"momentum": 0.9}), (AdamLoop, Adam, {}), (LAMBLoop, LAMB, {})]


@pytest.mark.parametrize("loop_cls,fused_cls,kwargs", PAIRS, ids=["sgd", "adam", "lamb"])
def test_a_changed_weight_decay_reaches_the_fused_step(loop_cls, fused_cls, kwargs):
    """``weight_decay`` set between steps — raised, changed, dropped to 0 —
    lands on the next fused step exactly as on the per-tensor loop."""
    models = []
    for _ in range(2):
        set_seed(7)
        models.append(MLP(12, [10, 8], 4))
    for m in models:
        list(m.parameters())[1].no_decay = True
    loop = loop_cls(list(models[0].parameters()), lr=1e-2, **kwargs)
    fused = fused_cls(list(models[1].parameters()), lr=1e-2, **kwargs)
    rng = np.random.default_rng(3)
    for step, wd in enumerate([0.0, 0.0, 1e-2, 1e-2, 5e-2, 0.0, 1e-2]):
        loop.weight_decay = fused.weight_decay = wd
        grads = [rng.standard_normal(p.data.shape).astype(np.float32) for p in loop.params]
        for opt in (loop, fused):
            for p, g in zip(opt.params, grads):
                p.grad = g.copy()
            opt.step()
        for a, b in zip(loop.params, fused.params):
            if fused_cls is LAMB:
                np.testing.assert_allclose(b.data, a.data, rtol=TOLERANCE_RTOL, atol=TOLERANCE_ATOL)
            else:
                assert a.data.tobytes() == b.data.tobytes(), f"step {step} (wd={wd})"
