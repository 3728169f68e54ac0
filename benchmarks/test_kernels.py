"""Per-op backend kernel benchmark: ``numpy`` reference vs ``fast``.

Times every op the ``fast`` backend overrides under both backends at
CPU-scaled widths (ops it merely inherits — ``matmul``, ``sgd_update`` —
would time one method against itself), re-checks the parity contract from
:data:`repro.tensor.backend.PARITY`, times the fused ``functional.linear``
node against the three-node composite it replaced and a PowerSGD round
with in-place error feedback against the allocate-per-round codec it
replaced, the chunked exact gradient mean against the whole-array formula it
replaced, and writes ``BENCH_kernels.json`` (speedup tables + parity summary).
``check_kernels_regression.py`` gates the artifact against the committed
baseline: structure exactly, parity booleans, and per-op speedup floors
(the headline: ≥1.5× on the batched im2col-matmul conv forward).

Wall-clock speedups are machine-dependent; the committed baseline's
numbers document the reference machine and only the floors are enforced.
"""

from __future__ import annotations

import json
import time
import tracemalloc

import numpy as np
import pytest

from harness import print_table, scaled_vgg19
from repro.compression import EncodeResult, PowerSGD
from repro.compression.base import exact_mean
from repro.compression.powersgd import _as_matrix, _orthogonalize
from repro.optim import LAMB, Adam, FusedAdam, FusedLAMB
from repro.tensor import Tensor, backend, functional, graph_nodes_created, max_pool2d
from repro.tensor.backend import (
    PARITY,
    TOLERANCE_ATOL,
    TOLERANCE_RTOL,
    _linear_transposed,
    conv_grad_atol,
)
from repro.utils import set_seed
from tests.oracles import argmax_pool_oracle, exact_mean_oracle

KERNELS_FILE = "BENCH_kernels.json"
REPEATS = 5
SMALL_ROW_ROUNDS = 4 * REPEATS  # sub-millisecond conv rows: a best-of-5 still moves by 10 %
WARMUP_S = 1.5

# Per-op enforced speedup floor (None = parity-coverage op, no perf claim:
# either sub-millisecond, memory-bound, or running the identical kernel).
MIN_SPEEDUP = {
    "conv2d_forward": 1.5,
    # A low-rank U conv on a 4×4 map at batch 32: the batch is the longer run,
    # so the columns are gathered batch-innermost (n > 2·out_w).
    "conv2d_forward_small_map": 1.5,
    # The input gradient is a gather over c_out channels + one GEMM, where
    # the reference GEMMs into c_in·k² rows and scatter-adds them: the fast
    # path wins in proportion to c_in / c_out.  Hence a floor per ratio: the
    # two shapes that carry a hybrid VGG-19 (equal widths: 12 of its 16
    # convs; the low-rank U factor, c_in = 4·rank, on the 4×4 and the 2×2 maps
    # where the hybrid VGG-19 has it — both batch-innermost) and the
    # channel-doubling shape, where the two routes move the same bytes and
    # fast must merely not lose (docs/PERFORMANCE.md has the pairs).
    "conv2d_backward": 1.5,
    "conv2d_backward_lowrank": 2.5,
    "conv2d_backward_small_map": 2.5,
    "conv2d_backward_expand": 1.0,
    "batch_norm_backward": 1.3,
    "relu": None,
    "bias_relu": None,
    # The fused-optimizer arena chains: adam_update's fast win is
    # allocation elimination on one big slab; lamb_update's is dispatch
    # amortization across many segments (reduceat norms instead of a
    # per-segment loop). The headline fused-vs-loop claim lives in the
    # fused_step section.
    "adam_update": 1.0,
    "lamb_update": 1.0,
    # functional.linear's forward GEMM: a short batch through a wide layer
    # runs as (W @ xᵀ)ᵀ on fast (backend._linear_transposed).  Three layers of
    # the DDP MLPs at batch 32, and train_seq's 448-row shape, where the rule
    # keeps the reference's orientation: the same kernel on both sides.
    "linear_fwd_b32_3072x512": 1.1,
    "linear_fwd_b32_3072x128": 1.1,
    "linear_fwd_b32_512x512": 1.1,
    "linear_fwd_b448_128x128": None,
}

# Fused optimizer step vs the in-place per-tensor loop at CPU-scaled
# wide-model widths (VGG-19: ~54 tensors, dispatch-bound loop).
FUSED_STEP_FLOOR = 2.0

# functional.linear (one node, weight gradient written in (out, in) layout)
# vs the ``x @ W.T + b`` composite at the DDP MLP's first layer, batch 32,
# input as data: the composite's cost is the strided transposed copy of the
# weight gradient, so the full-rank layer gains most and its rank-factorized
# pair (small factors, dispatch-bound) mostly sheds graph nodes.  Measured
# 5.2-7.7× and 1.7-2.6× under either backend (docs/PERFORMANCE.md).
LINEAR_FLOOR = {"vanilla": 2.5, "lowrank": 1.3}

# max_pool2d (k² shifted strided slabs, forward + backward) vs the route it
# replaced, kept in tests/oracles.py: as_strided windows, argmax,
# put_along_axis, a scatter-add per offset.  One implementation serves both
# backends, so this is rewrite-vs-oracle, not numpy-vs-fast.
POOL_FLOOR = {"vgg_2x2": 3.0, "resnet_3x3s2": 1.5}

# One PowerSGD protocol round (every worker's encode + the decode) with the
# error-feedback residual folded into one resident matrix per (worker,
# layer), vs the codec it replaced, kept below as the oracle: ``m = g + err``
# and ``err = m - m_hat`` as fresh arrays every round.  Same GEMMs, same QR;
# the win is the two 7.9 MB-per-worker allocations and the working set.
POWERSGD_FLOOR = {"mlp_rank4": 1.2}

# The exact gradient mean of ddp_factorized's decode (4 workers × the hybrid
# MLP's 641 284 float32 parameters) in cache-sized float64 chunks, vs the
# whole-array formula it replaced (tests/oracles.py): the same float64 adds
# and division, without streaming float64 temporaries through memory.
EXACT_MEAN_FLOOR = {"w4_641284": 1.1}

_RESULTS: dict[str, dict] = {}
_FUSED: dict[str, dict] = {}
_LINEAR: dict[str, dict] = {}
_POOL: dict[str, dict] = {}
_POWERSGD: dict[str, dict] = {}
_EXACT_MEAN: dict[str, dict] = {}


def best_ms(call, setup=None, repeats=REPEATS) -> float:
    """Best-of-N wall time in milliseconds (min is the noise-robust stat)."""
    best = float("inf")
    for _ in range(repeats):
        args = setup() if setup is not None else ()
        t0 = time.perf_counter()
        call(*args)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def paired_best_ms(ref_call, fast_call, rounds=REPEATS) -> tuple[float, float]:
    """Best-of-N milliseconds of two calls with the legs interleaved.

    The reference box has two speed levels minutes apart; timing one leg
    after the other lets a switch land on one of them and pass for a
    speedup or a regression (the 1.39× conv2d_forward reading of ROADMAP
    3(d)).  Interleaved, both legs meet the same machine."""
    ref = fast = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        ref_call()
        t1 = time.perf_counter()
        fast_call()
        t2 = time.perf_counter()
        ref, fast = min(ref, t1 - t0), min(fast, t2 - t1)
    return ref * 1e3, fast * 1e3


def check_parity(op: str, ref, got, atol: float = TOLERANCE_ATOL) -> tuple[bool, float]:
    """(parity_ok, max_abs_err) under the op's published tag."""
    ref, got = np.asarray(ref), np.asarray(got)
    err = float(np.max(np.abs(ref - got))) if ref.size else 0.0
    if PARITY[op] == "bit-exact":
        return bool(np.array_equal(ref, got)), err
    ok = bool(
        np.allclose(got, ref, rtol=TOLERANCE_RTOL, atol=atol)
    )
    return ok, err


def record(op: str, shape: str, numpy_ms: float, fast_ms: float, parity_ok: bool,
           max_abs_err: float, tag_op: str | None = None) -> None:
    _RESULTS[op] = {
        "tag": PARITY[tag_op or op],
        "shape": shape,
        "numpy_ms": round(numpy_ms, 4),
        "fast_ms": round(fast_ms, 4),
        "speedup": round(numpy_ms / fast_ms, 3) if fast_ms > 0 else None,
        "parity_ok": parity_ok,
        "max_abs_err": max_abs_err,
        "min_speedup": MIN_SPEEDUP[op],
    }


def conv_inputs(rng, n=32, c=16, hw=32, co=32, k=3):
    x = rng.standard_normal((n, c, hw, hw)).astype(np.float32)
    w = (rng.standard_normal((co, c, k, k)) * 0.1).astype(np.float32)
    b = rng.standard_normal((co,)).astype(np.float32)
    return x, w, b


@pytest.fixture(scope="module", autouse=True)
def warm_box():
    """Run both backends' conv forward for WARMUP_S before the first timing.

    A process started on an idle box spends its first second or so in a slow
    phase that hits memory-bound code hardest: the fast conv forward reads
    21 ms there and 8 ms after it, the reference 33 and 23, so the file's
    first row — ``conv2d_forward``, floor 1.5 — read 1.4–1.7× cold and
    2.4–3.0× warm (ROADMAP 3(d)'s red gate on an untouched kernel)."""
    x, w, b = conv_inputs(np.random.default_rng(0))
    deadline = time.perf_counter() + WARMUP_S
    while time.perf_counter() < deadline:
        for name in ("numpy", "fast"):
            backend.get(name).conv2d_forward(x, w, b, 1, 1, 1, False)


def _conv_forward_case(op, rng, c, hw, co, rounds=REPEATS):
    x, w, b = conv_inputs(rng, c=c, hw=hw, co=co)
    ref_be, fast_be = backend.get("numpy"), backend.get("fast")
    ref_out, _ = ref_be.conv2d_forward(x, w, b, 1, 1, 1, False)
    got_out, _ = fast_be.conv2d_forward(x, w, b, 1, 1, 1, False)
    ok, err = check_parity("conv2d_forward", ref_out, got_out)
    n_ms, f_ms = paired_best_ms(lambda: ref_be.conv2d_forward(x, w, b, 1, 1, 1, False),
                                lambda: fast_be.conv2d_forward(x, w, b, 1, 1, 1, False),
                                rounds=rounds)
    record(op, f"N32 C{c} {hw}x{hw} k3 s1 p1 -> C{co}", n_ms, f_ms, ok, err,
           tag_op="conv2d_forward")
    assert ok


def test_conv2d_forward_speedup(rng):
    """Headline: batched im2col matmul at CPU-scaled conv widths."""
    _conv_forward_case("conv2d_forward", rng, c=16, hw=32, co=32)


def test_conv2d_forward_small_map_speedup(rng):
    """The low-rank U conv of VGG-19's 4×4 stage, batch-innermost columns."""
    _conv_forward_case("conv2d_forward_small_map", rng, c=128, hw=4, co=32, rounds=SMALL_ROW_ROUNDS)


def _conv_backward_case(op, rng, c, hw, co, rounds=REPEATS):
    x, w, b = conv_inputs(rng, c=c, hw=hw, co=co)
    g = rng.standard_normal((32, co, hw, hw)).astype(np.float32)
    ref_be, fast_be = backend.get("numpy"), backend.get("fast")
    _, ref_ctx = ref_be.conv2d_forward(x, w, b, 1, 1, 1, True)
    _, fast_ctx = fast_be.conv2d_forward(x, w, b, 1, 1, 1, True)
    ref_g = ref_be.conv2d_backward(g, ref_ctx, True, True, True)
    got_g = fast_be.conv2d_backward(g, fast_ctx, True, True, True)
    # gw and gb take the published wider absolute term where their sums are
    # permuted (batch-innermost columns), the plain one elsewhere, as does gx.
    sums_atol = conv_grad_atol(len(g), hw, hw)
    oks, errs = zip(*(
        check_parity("conv2d_backward", r, o, atol)
        for r, o, atol in zip(ref_g, got_g, (sums_atol, sums_atol, TOLERANCE_ATOL))
    ))
    n_ms, f_ms = paired_best_ms(lambda: ref_be.conv2d_backward(g, ref_ctx, True, True, True),
                                lambda: fast_be.conv2d_backward(g, fast_ctx, True, True, True),
                                rounds=rounds)
    record(op, f"N32 C{c} {hw}x{hw} k3 s1 p1 -> C{co}", n_ms, f_ms, all(oks), max(errs),
           tag_op="conv2d_backward")
    assert all(oks)


def test_conv2d_backward_speedup(rng):
    """Equal widths, as in 12 of VGG-19's 16 convs."""
    _conv_backward_case("conv2d_backward", rng, c=32, hw=16, co=32)


def test_conv2d_backward_lowrank_speedup(rng):
    """The U factor of a rank-0.25 LowRankConv2d: c_in = 4·rank, where the
    paper's factorization should pay in the backward pass too."""
    _conv_backward_case("conv2d_backward_lowrank", rng, c=128, hw=4, co=32, rounds=SMALL_ROW_ROUNDS)


def test_conv2d_backward_small_map_speedup(rng):
    """The same U factor on VGG-19's last, 2×2 stage: 128 columns of 1 152
    rows, where the reference's scatter-add is at its relative worst."""
    _conv_backward_case("conv2d_backward_small_map", rng, c=128, hw=2, co=32,
                        rounds=SMALL_ROW_ROUNDS)


def test_conv2d_backward_expand_speedup(rng):
    """Channel-doubling at full resolution: the gather route's worst ratio."""
    _conv_backward_case("conv2d_backward_expand", rng, c=16, hw=32, co=32)


def test_batch_norm_backward_speedup(rng):
    shape, axes = (32, 32, 16, 16), (0, 2, 3)
    g = rng.standard_normal(shape).astype(np.float32)
    x_hat = rng.standard_normal(shape).astype(np.float32)
    inv_std = (rng.random((1, 32, 1, 1)) + 0.5).astype(np.float32)
    gamma = rng.standard_normal(32).astype(np.float32)
    args = (g, x_hat, inv_std, gamma, axes, True, True, True, True)
    ref_be, fast_be = backend.get("numpy"), backend.get("fast")
    oks, errs = zip(*(
        check_parity("batch_norm_backward", r, o)
        for r, o in zip(ref_be.batch_norm_backward(*args), fast_be.batch_norm_backward(*args))
    ))
    n_ms, f_ms = paired_best_ms(lambda: ref_be.batch_norm_backward(*args),
                                lambda: fast_be.batch_norm_backward(*args), rounds=3 * REPEATS)
    record("batch_norm_backward", "N32 C32 16x16 training, all three gradients",
           n_ms, f_ms, all(oks), max(errs))
    assert all(oks)


def test_relu_parity_speed(rng):
    x = rng.standard_normal((1 << 21,)).astype(np.float32)
    ref_be, fast_be = backend.get("numpy"), backend.get("fast")
    ok, err = check_parity("relu", ref_be.relu(x)[0], fast_be.relu(x)[0])
    n_ms = best_ms(lambda: ref_be.relu(x))
    f_ms = best_ms(lambda: fast_be.relu(x))
    record("relu", "2M elements", n_ms, f_ms, ok, err)
    assert ok


def test_bias_relu_parity_speed(rng):
    x = rng.standard_normal((8192, 256)).astype(np.float32)
    b = rng.standard_normal((256,)).astype(np.float32)
    ref_be, fast_be = backend.get("numpy"), backend.get("fast")
    ok, err = check_parity("bias_relu", ref_be.bias_relu(x, b)[0],
                           fast_be.bias_relu(x, b)[0])
    n_ms = best_ms(lambda: ref_be.bias_relu(x, b))
    f_ms = best_ms(lambda: fast_be.bias_relu(x, b))
    record("bias_relu", "8192x256 + (256,)", n_ms, f_ms, ok, err)
    assert ok


def test_adam_update_parity_speed(rng):
    size = 2_000_000
    flat0 = rng.standard_normal(size).astype(np.float32)
    g0 = rng.standard_normal(size).astype(np.float32)
    m0 = (rng.standard_normal(size) * 0.1).astype(np.float32)
    v0 = (rng.random(size) * 0.01).astype(np.float32)
    mask = (rng.random(size) > 0.3).astype(np.float32) * 1e-2
    tmp = np.empty(size, dtype=np.float32)
    ref_be, fast_be = backend.get("numpy"), backend.get("fast")

    states = {}
    for name, be in (("numpy", ref_be), ("fast", fast_be)):
        flat, g, m, v = flat0.copy(), g0.copy(), m0.copy(), v0.copy()
        be.adam_update(flat, g, m, v, tmp, mask, 1e-3, 0.9, 0.999, 1e-8, 7)
        states[name] = (flat, m, v)
    oks, errs = zip(*(
        check_parity("adam_update", r, o)
        for r, o in zip(states["numpy"], states["fast"])
    ))

    def setup():
        return flat0.copy(), g0.copy(), m0.copy(), v0.copy()

    n_ms = best_ms(
        lambda f, g_, m, v: ref_be.adam_update(f, g_, m, v, tmp, mask, 1e-3, 0.9, 0.999, 1e-8, 7),
        setup=setup,
    )
    f_ms = best_ms(
        lambda f, g_, m, v: fast_be.adam_update(f, g_, m, v, tmp, mask, 1e-3, 0.9, 0.999, 1e-8, 7),
        setup=setup,
    )
    record("adam_update", "2M-param arena, decay mask, step 7", n_ms, f_ms,
           all(oks), max(errs))
    assert all(oks)


def test_lamb_update_parity_speed(rng):
    # CPU-scaled wide-model tiling: per block a conv/attention slab, its
    # bias + norm vectors, and a projection. The reference's per-segment
    # loop pays ~15 dispatches + temporaries per segment, which is what
    # the segmented-reduceat fast path amortizes. (At multi-megaparam
    # arenas tiled into >30k-element slabs the per-segment loop becomes
    # accidentally cache-blocked and the two draw — that regime is far
    # above the CPU-scaled widths this repo runs.)
    parts: list[int] = []
    while sum(parts) < 400_000:
        parts += [int(rng.integers(2000, 6000)), int(rng.integers(8, 64)),
                  int(rng.integers(8, 64)), int(rng.integers(256, 2048))]
    sizes = np.array(parts, dtype=np.intp)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)
    size = int(sizes.sum())
    flat0 = rng.standard_normal(size).astype(np.float32)
    g0 = rng.standard_normal(size).astype(np.float32)
    m0 = (rng.standard_normal(size) * 0.1).astype(np.float32)
    v0 = (rng.random(size) * 0.01).astype(np.float32)
    mask = (rng.random(size) > 0.3).astype(np.float32) * 1e-2
    tmp = np.empty(size, dtype=np.float32)
    ref_be, fast_be = backend.get("numpy"), backend.get("fast")

    states = {}
    for name, be in (("numpy", ref_be), ("fast", fast_be)):
        flat, g, m, v = flat0.copy(), g0.copy(), m0.copy(), v0.copy()
        be.lamb_update(flat, g, m, v, tmp, mask, starts, sizes, 1e-3, 0.9, 0.999, 1e-6, 5)
        states[name] = (flat, m, v)
    oks, errs = zip(*(
        check_parity("lamb_update", r, o)
        for r, o in zip(states["numpy"], states["fast"])
    ))

    def setup():
        return flat0.copy(), g0.copy(), m0.copy(), v0.copy()

    n_ms = best_ms(
        lambda f, g_, m, v: ref_be.lamb_update(f, g_, m, v, tmp, mask, starts, sizes,
                                               1e-3, 0.9, 0.999, 1e-6, 5),
        setup=setup,
    )
    f_ms = best_ms(
        lambda f, g_, m, v: fast_be.lamb_update(f, g_, m, v, tmp, mask, starts, sizes,
                                                1e-3, 0.9, 0.999, 1e-6, 5),
        setup=setup,
    )
    record("lamb_update", f"{size/1e3:.0f}k-param arena, {len(sizes)} segments, step 5",
           n_ms, f_ms, all(oks), max(errs))
    assert all(oks)


def _fill_grads(params, seed):
    g_rng = np.random.default_rng(seed)
    for p in params:
        p.grad = g_rng.standard_normal(p.data.shape).astype(np.float32)


def _time_steps(opt, reps=7, steps=50) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(steps):
            opt.step()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def _fused_step_case(name, loop_cls, fused_cls, match):
    """FusedAdam/FusedLAMB vs the in-place per-tensor loop on a VGG-19
    parameter set at CPU-scaled width: the loop is dispatch-bound (~12
    numpy call sites per tensor per step, ~54 tensors), which is exactly
    what the arena collapses into one dispatched vector chain."""
    width = 0.03125
    set_seed(0)
    loop_model = scaled_vgg19(width=width)
    set_seed(0)
    fused_model = scaled_vgg19(width=width)
    kwargs = dict(lr=1e-3, weight_decay=1e-2)
    loop_opt = loop_cls(loop_model.parameters(), **kwargs)
    fused_opt = fused_cls(fused_model.parameters(), **kwargs)
    fused_opt._ensure_arena()  # exclude one-time arena build from timing
    _fill_grads(loop_opt.params, 7)
    _fill_grads(fused_opt.params, 7)

    loop_ms = _time_steps(loop_opt)
    # The fused path is timed under the fast backend — that is the deployed
    # configuration (pooled scratch, reduceat segment norms); the reference
    # backend exists for parity, not speed.
    with backend.use("fast"):
        fused_ms = _time_steps(fused_opt)
    for a, b in zip(loop_model.parameters(), fused_model.parameters()):
        if match == "bit-exact":
            assert np.array_equal(a.data, b.data), f"{name}: fused diverged from loop"
        else:
            np.testing.assert_allclose(b.data, a.data, rtol=TOLERANCE_RTOL,
                                       atol=TOLERANCE_ATOL)
    n_tensors = len(fused_opt.params)
    n_params = int(sum(p.data.size for p in fused_opt.params))
    _FUSED[name] = {
        "n_tensors": n_tensors,
        "n_params": n_params,
        "loop_ms": round(loop_ms, 4),
        "fused_ms": round(fused_ms, 4),
        "speedup": round(loop_ms / fused_ms, 3),
        "match": match,
        "match_ok": True,
        "min_speedup": FUSED_STEP_FLOOR,
    }
    assert loop_ms / fused_ms >= FUSED_STEP_FLOOR, (
        f"{name}: fused step {loop_ms / fused_ms:.2f}x < {FUSED_STEP_FLOOR}x floor"
    )


def test_fused_adam_step_speedup():
    _fused_step_case("adam", Adam, FusedAdam, "bit-exact")


def test_fused_lamb_step_speedup():
    _fused_step_case("lamb", LAMB, FusedLAMB, "tolerance")


def _linear_case(name, rng, shape, params, composite, fused):
    batch, out_features = 32, 512
    x = Tensor(rng.standard_normal((batch, 3072)).astype(np.float32))
    g = rng.standard_normal((batch, out_features)).astype(np.float32)

    def fwd_bwd(fn):
        for p in params:
            p.grad = None
        before = graph_nodes_created()
        out = fn(x)
        nodes = graph_nodes_created() - before
        out.backward(g)
        return nodes, [out.data] + [p.grad for p in params]

    nodes_c, ref = fwd_bwd(composite)
    nodes_f, got = fwd_bwd(fused)
    oks, errs = zip(*(check_parity("linear", r, o) for r, o in zip(ref, got)))
    c_ms = best_ms(lambda: fwd_bwd(composite), repeats=3 * REPEATS)
    f_ms = best_ms(lambda: fwd_bwd(fused), repeats=3 * REPEATS)
    _LINEAR[name] = {
        "shape": shape,
        "nodes_composite": nodes_c,
        "nodes_fused": nodes_f,
        "composite_ms": round(c_ms, 4),
        "fused_ms": round(f_ms, 4),
        "speedup": round(c_ms / f_ms, 3),
        "match": PARITY["linear"],
        "match_ok": all(oks),
        "max_abs_err": max(errs),
        "min_speedup": LINEAR_FLOOR[name],
    }
    assert all(oks)


def _param(rng, *shape):
    return Tensor((rng.standard_normal(shape) * 0.02).astype(np.float32), requires_grad=True)


def test_linear_fwd_bwd_vanilla(rng):
    w, b = _param(rng, 512, 3072), _param(rng, 512)
    _linear_case(
        "vanilla", rng, "B32 3072 -> 512", [w, b],
        lambda x: x @ w.T + b,
        lambda x: functional.linear(x, w, b),
    )


def test_linear_fwd_bwd_lowrank(rng):
    vt, u, b = _param(rng, 128, 3072), _param(rng, 512, 128), _param(rng, 512)
    _linear_case(
        "lowrank", rng, "B32 3072 -> r128 -> 512", [vt, u, b],
        lambda x: (x @ vt.T) @ u.T + b,
        lambda x: functional.linear(functional.linear(x, vt), u, b),
    )


@pytest.mark.parametrize("rows,in_f,out_f,transposed", [
    (32, 3072, 512, True),
    (32, 3072, 128, True),
    (32, 512, 512, True),
    (448, 128, 128, False),
])
def test_linear_forward(rng, rows, in_f, out_f, transposed):
    assert _linear_transposed(rows, in_f, out_f) is transposed
    x = rng.standard_normal((rows, in_f)).astype(np.float32)
    w = (rng.standard_normal((out_f, in_f)) * 0.02).astype(np.float32)
    ref_be, fast_be = backend.get("numpy"), backend.get("fast")
    ok, err = check_parity("linear", ref_be.linear(x, w), fast_be.linear(x, w))
    n_ms, f_ms = paired_best_ms(lambda: ref_be.linear(x, w), lambda: fast_be.linear(x, w),
                                rounds=SMALL_ROW_ROUNDS)
    record(f"linear_fwd_b{rows}_{in_f}x{out_f}", f"B{rows} {in_f} -> {out_f}", n_ms, f_ms,
           ok, err, tag_op="linear")
    assert ok


def _pool_case(name, rng, shape, kernel, stride):
    # Post-ReLU activations: half the entries tie at zero, as in the models.
    x = np.maximum(rng.standard_normal(shape), 0).astype(np.float32)
    t = Tensor(x, requires_grad=True)
    out = max_pool2d(t, kernel, stride)
    g = rng.standard_normal(out.shape).astype(np.float32)

    def slab_route():
        t.grad = None
        y = max_pool2d(t, kernel, stride)
        y.backward(g)
        return y.data, t.grad

    ref, got = argmax_pool_oracle(x, kernel, stride, g), slab_route()
    match_ok = all(r.tobytes() == o.tobytes() for r, o in zip(ref, got))
    o_ms, s_ms = paired_best_ms(lambda: argmax_pool_oracle(x, kernel, stride, g), slab_route,
                                rounds=2 * REPEATS)
    _POOL[name] = {
        "shape": f"N{shape[0]} C{shape[1]} {shape[2]}x{shape[3]} k{kernel} s{stride}",
        "oracle_ms": round(o_ms, 4),
        "slab_ms": round(s_ms, 4),
        "speedup": round(o_ms / s_ms, 3),
        "match": "bit-exact",
        "match_ok": match_ok,
        "min_speedup": POOL_FLOOR[name],
    }
    assert match_ok


def test_max_pool_fwd_bwd_vgg(rng):
    _pool_case("vgg_2x2", rng, (32, 16, 32, 32), 2, 2)


def test_max_pool_fwd_bwd_resnet_stem(rng):
    """Overlapping windows: the backward accumulates instead of writing."""
    _pool_case("resnet_3x3s2", rng, (32, 16, 32, 32), 3, 2)


class _AllocPerRoundPowerSGD(PowerSGD):
    """PowerSGD's error feedback as it was: the residual lives in an array of
    its own, ``encode`` adds it into a fresh matrix and ``decode_aggregate``
    subtracts ``m_hat`` into another, per worker, every round."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._errors: dict[tuple[int, int], np.ndarray] = {}

    def encode(self, worker, grads, layer_offset=0):
        ps, matrices, raw = {}, {}, {}
        for i, g in enumerate(grads):
            if g.ndim < 2:
                raw[i] = g
                continue
            m = _as_matrix(g).astype(np.float32, copy=False)
            err = self._errors.get((worker, layer_offset + i))
            if err is not None:
                m = m + err
            q = self._q_for(layer_offset + i, m.shape[1])
            ps[i] = m @ q[:, : min(self.rank, *m.shape)]
            matrices[i] = m
        shapes = [g.shape for g in grads]
        return EncodeResult(payload=(ps, matrices, raw, worker, shapes, layer_offset), nbytes=0)

    def decode_aggregate(self, results):
        first_ps, first_ms, _, _, shapes, layer_offset = results[0].payload
        out = [None] * len(shapes)
        for i in first_ps:
            layer = layer_offset + i
            p_hat = _orthogonalize(np.mean([res.payload[0][i] for res in results], axis=0))
            q_acc = np.zeros((first_ms[i].shape[1], p_hat.shape[1]), dtype=np.float64)
            for res in results:
                q_acc += res.payload[1][i].T @ p_hat
            q_new = (q_acc / len(results)).astype(np.float32)
            if self._qs[layer].shape == q_new.shape:
                self._qs[layer] = q_new
            m_hat = p_hat @ q_new.T
            for res in results:
                self._errors[(res.payload[3], layer)] = res.payload[1][i] - m_hat
            out[i] = m_hat.reshape(shapes[i])
        return out


def _powersgd_round(comp, grads):
    return comp.decode_aggregate([comp.encode(w, g) for w, g in enumerate(grads)])


def _powersgd_memory(make, grads_for_round, rounds):
    """(resident, peak) MB of everything ``rounds`` protocol rounds allocate:
    what the codec still holds once the round's gradients and payloads are
    dropped, and the most that was alive at once (gradients included)."""
    tracemalloc.start()
    comp = make()
    for r in range(rounds):
        _powersgd_round(comp, grads_for_round(r))
    resident, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return round(resident / 2**20, 1), round(peak / 2**20, 1)


def test_powersgd_round_in_place(rng):
    """The ``ddp_powersgd`` MLP's three matrix layers, 4 workers, rank 4:
    rounds 3…8 (steady state: every worker holds a residual), the oracle's
    round and the in-place round interleaved."""
    world, shapes = 4, ((512, 3072), (512, 512), (256, 512))
    pool = [
        [[rng.standard_normal(s).astype(np.float32) for s in shapes] for _ in range(world)]
        for _ in range(2)
    ]

    def fresh(r):  # the trainer hands over new arrays every iteration
        return [[g.copy() for g in grads] for grads in pool[r % 2]]

    oracle, inplace = _AllocPerRoundPowerSGD(world, rank=4), PowerSGD(world, rank=4)
    match_ok, o_ms, i_ms = True, float("inf"), float("inf")
    for r in range(8):
        grads, out = fresh(r), {}
        a, b = paired_best_ms(
            lambda: out.update(oracle=_powersgd_round(oracle, grads)),
            lambda: out.update(inplace=_powersgd_round(inplace, grads)),
            rounds=1,
        )
        if r >= 2:
            o_ms, i_ms = min(o_ms, a), min(i_ms, b)
        match_ok &= all(
            x.tobytes() == y.tobytes() for x, y in zip(out["oracle"], out["inplace"])
        )
    del oracle, inplace, grads, out
    o_mem = _powersgd_memory(lambda: _AllocPerRoundPowerSGD(world, rank=4), fresh, 4)
    i_mem = _powersgd_memory(lambda: PowerSGD(world, rank=4), fresh, 4)
    _POWERSGD["mlp_rank4"] = {
        "shape": f"W{world} r4 " + " + ".join(f"{n}x{m}" for n, m in shapes),
        "oracle_ms": round(o_ms, 4),
        "inplace_ms": round(i_ms, 4),
        "speedup": round(o_ms / i_ms, 3),
        "oracle_resident_mb": o_mem[0],
        "oracle_peak_mb": o_mem[1],
        "inplace_resident_mb": i_mem[0],
        "inplace_peak_mb": i_mem[1],
        "match": "bit-exact",
        "match_ok": match_ok,
        "min_speedup": POWERSGD_FLOOR["mlp_rank4"],
    }
    assert match_ok
    assert i_mem[1] < o_mem[1]


def test_exact_mean_chunked(rng):
    world, size = 4, 641_284
    vectors = [rng.standard_normal(size).astype(np.float32) for _ in range(world)]
    match_ok = exact_mean(vectors).tobytes() == exact_mean_oracle(vectors).tobytes()
    o_ms, c_ms = paired_best_ms(lambda: exact_mean_oracle(vectors), lambda: exact_mean(vectors),
                                rounds=SMALL_ROW_ROUNDS)
    _EXACT_MEAN["w4_641284"] = {
        "shape": f"W{world} x {size} float32",
        "oracle_ms": round(o_ms, 4),
        "chunked_ms": round(c_ms, 4),
        "speedup": round(o_ms / c_ms, 3),
        "match": "bit-exact",
        "match_ok": match_ok,
        "min_speedup": EXACT_MEAN_FLOOR["w4_641284"],
    }
    assert match_ok


def test_emit_kernels_artifact():
    """Runs last (file order): all ops recorded, floors hold, artifact out."""
    assert set(_RESULTS) == set(MIN_SPEEDUP), (
        f"op set mismatch: {sorted(_RESULTS)} vs expected {sorted(MIN_SPEEDUP)}"
    )
    assert set(_FUSED) == {"adam", "lamb"}, (
        f"fused-step set mismatch: {sorted(_FUSED)}"
    )
    assert set(_LINEAR) == set(LINEAR_FLOOR), (
        f"linear_fwd_bwd set mismatch: {sorted(_LINEAR)}"
    )
    assert set(_POOL) == set(POOL_FLOOR), f"max_pool_fwd_bwd set mismatch: {sorted(_POOL)}"
    assert set(_POWERSGD) == set(POWERSGD_FLOOR), (
        f"powersgd_round set mismatch: {sorted(_POWERSGD)}"
    )
    assert set(_EXACT_MEAN) == set(EXACT_MEAN_FLOOR), (
        f"exact_mean set mismatch: {sorted(_EXACT_MEAN)}"
    )
    rows = []
    for op in sorted(_RESULTS):
        r = _RESULTS[op]
        rows.append([
            op, r["tag"], r["shape"], r["numpy_ms"], r["fast_ms"],
            r["speedup"], "yes" if r["parity_ok"] else "NO",
            r["min_speedup"] if r["min_speedup"] is not None else "-",
        ])
    print_table(
        "Backend kernels: numpy vs fast (per-op)",
        ["Op", "Parity tag", "Shape", "numpy (ms)", "fast (ms)", "Speedup",
         "Parity", "Floor"],
        rows,
    )
    print_table(
        "Fused optimizer step vs in-place per-tensor loop (50 steps, best of 7)",
        ["Optimizer", "Tensors", "Params", "loop (ms)", "fused (ms)", "Speedup",
         "Match", "Floor"],
        [
            [name, s["n_tensors"], s["n_params"], s["loop_ms"], s["fused_ms"],
             s["speedup"], s["match"], s["min_speedup"]]
            for name, s in sorted(_FUSED.items())
        ],
    )
    print_table(
        "functional.linear vs the x @ W.T + b composite (forward + backward, best of 15)",
        ["Layer", "Shape", "Nodes", "composite (ms)", "fused (ms)", "Speedup",
         "Match", "Floor"],
        [
            [name, s["shape"], f"{s['nodes_composite']} -> {s['nodes_fused']}",
             s["composite_ms"], s["fused_ms"], s["speedup"], s["match"],
             s["min_speedup"]]
            for name, s in sorted(_LINEAR.items())
        ],
    )
    print_table(
        "max_pool2d: shifted slabs vs the argmax / col2im route (forward + backward, best of 10)",
        ["Case", "Shape", "oracle (ms)", "slabs (ms)", "Speedup", "Match", "Floor"],
        [
            [name, s["shape"], s["oracle_ms"], s["slab_ms"], s["speedup"], s["match"],
             s["min_speedup"]]
            for name, s in sorted(_POOL.items())
        ],
    )
    print_table(
        "PowerSGD round: error feedback in place vs allocate-per-round "
        "(4 encodes + decode, best of rounds 3-8)",
        ["Case", "Shape", "oracle (ms)", "in place (ms)", "Speedup",
         "resident MB", "peak MB", "Match", "Floor"],
        [
            [name, s["shape"], s["oracle_ms"], s["inplace_ms"], s["speedup"],
             f"{s['oracle_resident_mb']} -> {s['inplace_resident_mb']}",
             f"{s['oracle_peak_mb']} -> {s['inplace_peak_mb']}", s["match"], s["min_speedup"]]
            for name, s in sorted(_POWERSGD.items())
        ],
    )
    print_table(
        "Exact gradient mean: cache-sized float64 chunks vs whole-array casts "
        "(best of 20, interleaved)",
        ["Case", "Shape", "oracle (ms)", "chunked (ms)", "Speedup", "Match", "Floor"],
        [
            [name, s["shape"], s["oracle_ms"], s["chunked_ms"], s["speedup"], s["match"],
             s["min_speedup"]]
            for name, s in sorted(_EXACT_MEAN.items())
        ],
    )
    artifact = {
        "schema": 6,
        "ops": _RESULTS,
        "fused_step": _FUSED,
        "linear_fwd_bwd": _LINEAR,
        "max_pool_fwd_bwd": _POOL,
        "powersgd_round": _POWERSGD,
        "exact_mean": _EXACT_MEAN,
        "parity_all_ok": all(r["parity_ok"] for r in _RESULTS.values()),
    }
    with open(KERNELS_FILE, "w") as f:
        json.dump(artifact, f, indent=2, sort_keys=True)
    print(f"\nkernel benchmark written to {KERNELS_FILE}")
    assert artifact["parity_all_ok"]
