"""Arena Adam/LAMB: bit-exactness/tolerance vs the per-tensor loops kept in
``tests/oracles.py``, grad-is-None semantics, state persistence across an
arena rebuild, and the segmented-norm property behind LAMB's trust ratios.

Test ids keep the names the arena classes had when a per-tensor loop of
the same name sat beside each (``FusedAdam``, ``FusedLAMB``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.models import MLP
from repro.nn.module import Parameter
from repro.optim import LAMB, SGD, Adam
from repro.optim.optimizer import CHUNK
from repro.tensor import Tensor, backend
from repro.tensor.backend import TOLERANCE_ATOL, TOLERANCE_RTOL, FastBackend
from repro.utils import set_seed
from tests.oracles import AdamLoop, LAMBLoop, SGDLoop


def small_model(seed=0):
    set_seed(seed)
    return MLP(12, [10, 8], 4)


def conv_model(seed=0):
    set_seed(seed)
    return nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1),
        nn.BatchNorm2d(8),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Linear(8, 4),
    )


def fill_grads(model, seed):
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.grad = rng.standard_normal(p.data.shape).astype(np.float32)


def packed_grad(params):
    """Every ``p.grad`` flattened in order, zeros for a missing one: the flat
    gradient ``step_flat`` takes."""
    return np.concatenate(
        [np.zeros(p.data.size, np.float32) if p.grad is None else p.grad.reshape(-1)
         for p in params]
    ).astype(np.float32)


def rebind_through_fp16(model):
    """Round every parameter through float16 into a *fresh* array: the
    rebind invalidates an arena, the values are AMP's."""
    for p in model.parameters():
        p.data = p.data.astype(np.float16).astype(np.float32)


PAIRS = [
    pytest.param(AdamLoop, Adam, "exact", id="Adam-FusedAdam-exact"),
    pytest.param(LAMBLoop, LAMB, "tolerance", id="LAMB-FusedLAMB-tolerance"),
]


def assert_match(kind, a, b):
    if kind == "exact":
        assert np.array_equal(a, b)
    else:
        np.testing.assert_allclose(b, a, rtol=TOLERANCE_RTOL, atol=TOLERANCE_ATOL)


class TestFusedVsLoop:
    @pytest.mark.parametrize("loop_cls,fused_cls,kind", PAIRS)
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_matches_per_tensor_loop(self, loop_cls, fused_cls, kind, weight_decay):
        m1, m2 = small_model(7), small_model(7)
        # Exempt one parameter from decay, as BatchNorm scales are.
        list(m1.parameters())[1].no_decay = True
        list(m2.parameters())[1].no_decay = True
        o1 = loop_cls(m1.parameters(), lr=1e-3, weight_decay=weight_decay)
        o2 = fused_cls(m2.parameters(), lr=1e-3, weight_decay=weight_decay)
        for step in range(5):
            fill_grads(m1, 100 + step)
            fill_grads(m2, 100 + step)
            o1.step()
            o2.step()
            for a, b in zip(m1.parameters(), m2.parameters()):
                assert_match(kind, a.data, b.data)

    @pytest.mark.parametrize("loop_cls,fused_cls,kind", PAIRS)
    def test_matches_on_real_backward_grads(self, loop_cls, fused_cls, kind):
        """Gradcheck-style: gradients from a real backward pass through the
        arena views drive the fused update to matching weights."""
        m1, m2 = conv_model(3), conv_model(3)
        o1 = loop_cls(m1.parameters(), lr=1e-3, weight_decay=1e-2)
        o2 = fused_cls(m2.parameters(), lr=1e-3, weight_decay=1e-2)
        rng = np.random.default_rng(5)
        loss_fn = nn.CrossEntropyLoss()
        for step in range(3):
            x = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
            y = rng.integers(0, 4, size=4)
            for model, opt in ((m1, o1), (m2, o2)):
                opt.zero_grad()
                loss = loss_fn(model(Tensor(x)), y)
                loss.backward()
                opt.step()
            for a, b in zip(m1.parameters(), m2.parameters()):
                if kind == "tolerance" and a is m1[0].bias:
                    # A conv bias under BatchNorm has a true gradient of zero;
                    # backward returns rounding noise for it, LAMB normalises
                    # noise to full-size updates, and once the two models are
                    # 1e-7 apart their noise differs.  Each step moves an
                    # element by at most lr * ||w||, so that bounds the gap.
                    gap = 2 * (step + 1) * o1.lr * np.linalg.norm(a.data)
                    np.testing.assert_allclose(b.data, a.data, rtol=0, atol=gap)
                else:
                    assert_match(kind, a.data, b.data)

    @pytest.mark.parametrize("fused_cls", [Adam, LAMB], ids=["FusedAdam", "FusedLAMB"])
    def test_step_flat_matches_step(self, fused_cls):
        m1, m2 = small_model(11), small_model(11)
        o1 = fused_cls(m1.parameters(), lr=1e-3, weight_decay=1e-2)
        o2 = fused_cls(m2.parameters(), lr=1e-3, weight_decay=1e-2)
        for step in range(3):
            fill_grads(m1, 50 + step)
            fill_grads(m2, 50 + step)
            flat = packed_grad(o2.params)
            before = flat.copy()
            o1.step()
            o2.step_flat(flat)
            assert flat.tobytes() == before.tobytes()  # read, never written
            for a, b in zip(m1.parameters(), m2.parameters()):
                assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("loop_cls,fused_cls,kind", PAIRS)
    def test_fast_backend_matches_loop_too(self, loop_cls, fused_cls, kind):
        """The dispatched fast variants keep the same loop contract:
        adam_update stays bit-exact, lamb_update within tolerance."""
        m1, m2 = small_model(31), small_model(31)
        o1 = loop_cls(m1.parameters(), lr=1e-3, weight_decay=1e-2)
        o2 = fused_cls(m2.parameters(), lr=1e-3, weight_decay=1e-2)
        with backend.use("fast"):
            for step in range(4):
                fill_grads(m1, 900 + step)
                fill_grads(m2, 900 + step)
                o1.step()
                o2.step()
        for a, b in zip(m1.parameters(), m2.parameters()):
            assert_match(kind, a.data, b.data)


class TestGradNoneSemantics:
    """Pin the documented divergence: the loop *skips* None-grad params,
    the arena step treats them as zero-gradient segments."""

    @pytest.mark.parametrize(
        "loop_cls,fused_cls", [(AdamLoop, Adam), (LAMBLoop, LAMB)],
        ids=["Adam-FusedAdam", "LAMB-FusedLAMB"],
    )
    def test_loop_skips_fused_advances(self, loop_cls, fused_cls):
        m1, m2, m3 = small_model(41), small_model(41), small_model(41)
        o1 = loop_cls(m1.parameters(), lr=1e-3)
        o2 = fused_cls(m2.parameters(), lr=1e-3)
        o3 = loop_cls(m3.parameters(), lr=1e-3)
        # Step 1: every parameter has a gradient -> moments become nonzero.
        for m in (m1, m2, m3):
            fill_grads(m, 1)
        for o in (o1, o2, o3):
            o.step()
        # Step 2: first parameter's grad goes None in m1/m2, explicit
        # zeros in m3 (the fused semantics, spelled out).
        for m in (m1, m2, m3):
            fill_grads(m, 2)
        p1, p2, p3 = (list(m.parameters())[0] for m in (m1, m2, m3))
        before = p1.data.copy()
        p1.grad = None
        p2.grad = None
        p3.grad = np.zeros_like(p3.data)
        for o in (o1, o2, o3):
            o.step()
        # Loop: untouched.  Fused: moved (nonzero moments keep decaying).
        assert np.array_equal(p1.data, before)
        assert not np.array_equal(p2.data, before)
        # Fused None-grad == loop zero-grad (step counts agree: every m3
        # parameter stepped both times, matching the fused global count).
        assert np.array_equal(p2.data, p3.data)
        # Parameters that kept their gradients agree everywhere.
        for a, b in zip(list(m1.parameters())[1:], list(m2.parameters())[1:]):
            np.testing.assert_allclose(b.data, a.data, rtol=TOLERANCE_RTOL, atol=TOLERANCE_ATOL)


class TestStatePersistence:
    """state_dict/load_state_dict carry optimizer state across the arena
    rebuild forced by rebinding every ``p.data``."""

    CASES = [
        pytest.param(SGDLoop, SGD, dict(lr=0.05, momentum=0.9, weight_decay=1e-4), "exact",
                     id="SGD-FusedSGD-kwargs0-exact"),
        pytest.param(AdamLoop, Adam, dict(lr=1e-3, weight_decay=1e-2), "exact",
                     id="Adam-FusedAdam-kwargs1-exact"),
        pytest.param(LAMBLoop, LAMB, dict(lr=1e-3, weight_decay=1e-2), "tolerance",
                     id="LAMB-FusedLAMB-kwargs2-tolerance"),
    ]

    @pytest.mark.parametrize("loop_cls,fused_cls,kwargs,kind", CASES)
    def test_round_trip_through_amp_rebuild(self, loop_cls, fused_cls, kwargs, kind):
        m1, m2 = small_model(53), small_model(53)
        o1 = loop_cls(m1.parameters(), **kwargs)
        o2 = fused_cls(m2.parameters(), **kwargs)
        for step in range(3):
            fill_grads(m1, 700 + step)
            fill_grads(m2, 700 + step)
            o1.step()
            o2.step()
        arena_before = o2._arena
        state = o2.state_dict()
        # Rebinding every p.data invalidates the arena.  The loop
        # optimizer's state (keyed by parameter identity) is untouched by
        # the rebind, so it is the continuation reference.
        rebind_through_fp16(m1)
        rebind_through_fp16(m2)
        o2.load_state_dict(state)
        assert o2._arena is not arena_before
        assert o2._arena.intact()
        for step in range(2):
            fill_grads(m1, 800 + step)
            fill_grads(m2, 800 + step)
            o1.step()
            o2.step()
        for a, b in zip(m1.parameters(), m2.parameters()):
            assert_match(kind, a.data, b.data)

    @pytest.mark.parametrize("fused_cls,kwargs", [
        (SGD, dict(lr=0.05, momentum=0.9)),
        (Adam, dict(lr=1e-3)),
        (LAMB, dict(lr=1e-3)),
    ], ids=["FusedSGD-kwargs0", "FusedAdam-kwargs1", "FusedLAMB-kwargs2"])
    def test_size_mismatch_rejected(self, fused_cls, kwargs):
        o1 = fused_cls(small_model(61).parameters(), **kwargs)
        o2 = fused_cls(MLP(6, [5], 3).parameters(), **kwargs)
        with pytest.raises(ValueError, match="arena"):
            o2.load_state_dict(o1.state_dict())

    def test_rebuild_without_load_resets_state(self):
        """Without an explicit load, the rebuild drops moments — exactly
        as re-instantiating the optimizer would."""
        model = small_model(67)
        opt = Adam(model.parameters(), lr=1e-3)
        fill_grads(model, 1)
        opt.step()
        assert opt._t == 1 and float(np.abs(opt._m).max()) > 0
        rebind_through_fp16(model)
        fill_grads(model, 2)
        opt.step()  # transparently rebuilds; fresh state, step count 1
        assert opt._t == 1


class TestSegmentedNormProperty:
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=24),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_reduceat_matches_per_tensor_norms(self, sizes, seed):
        """For arbitrary arena tilings, the fast backend's segmented
        reduceat norms match per-tensor np.linalg.norm within the
        published tolerance."""
        total = sum(sizes)
        x = np.random.default_rng(seed).standard_normal(total).astype(np.float32)
        starts = np.cumsum([0] + sizes[:-1]).astype(np.intp)
        seg_sizes = np.asarray(sizes, dtype=np.intp)
        got = FastBackend().segment_norms(x, starts, seg_sizes)
        ref = np.array(
            [np.linalg.norm(x[o : o + s].astype(np.float64)) for o, s in zip(starts, sizes)]
        )
        np.testing.assert_allclose(got, ref, rtol=TOLERANCE_RTOL, atol=TOLERANCE_ATOL)
        # And the reference backend's per-segment dots agree with it too.
        ref_backend = backend.get("numpy").segment_norms(x, starts, seg_sizes)
        np.testing.assert_allclose(ref_backend, ref, rtol=TOLERANCE_RTOL, atol=TOLERANCE_ATOL)


def chunk_tiling(total):
    """Segment sizes tiling ``total`` elements: three tiny segments, one
    large one, a short segment across the first chunk boundary when there is
    one (the parameter left without a gradient), then the rest."""
    gap = min(CHUNK, total) - 4
    sizes = [1, 5, 2, gap - 8, min(7, total - gap)]
    if total > sum(sizes):
        sizes.append(total - sum(sizes))
    return sizes


class TestStreamedStep:
    """The step runs one chunk of ``CHUNK`` elements at a time; its bytes must
    not depend on where the chunk boundaries fall.  Arenas of ``CHUNK - 1``,
    ``CHUNK`` and ``CHUNK + 1`` elements, tiny segments, a parameter with
    ``grad=None`` across a boundary (the loops get the zero gradient the
    arena gives it), a non-contiguous gradient, and ``-0.0`` gradients on
    the first step, against the per-tensor loops byte for byte."""

    REVERSED_SEGMENT = 3  # its gradient is a reversed, non-contiguous view
    NONE_SEGMENT = 4

    def run_pair(self, loop_cls, fused_cls, total, kwargs, backend_name, steps=3):
        rng = np.random.default_rng(total)
        sizes = chunk_tiling(total)
        init = [rng.standard_normal(n).astype(np.float32) for n in sizes]
        p_loop = [Parameter(w.copy()) for w in init]
        p_fused = [Parameter(w.copy()) for w in init]
        for ps in (p_loop, p_fused):
            ps[1].no_decay = True
        loop = loop_cls(p_loop, **kwargs)
        fused = fused_cls(p_fused, **kwargs)
        with backend.use(backend_name):
            for step in range(steps):
                grads = [rng.standard_normal(n).astype(np.float32) for n in sizes]
                if step == 0:
                    for g in grads:
                        g[::3] = -0.0
                for i, (a, b, g) in enumerate(zip(p_loop, p_fused, grads)):
                    if i == self.NONE_SEGMENT:
                        a.grad, b.grad = np.zeros_like(g), None
                    elif i == self.REVERSED_SEGMENT:
                        a.grad, b.grad = g.copy(), g[::-1].copy()[::-1]
                    else:
                        a.grad, b.grad = g.copy(), g.copy()
                loop.step()
                fused.step()
        return loop, fused, p_loop, p_fused

    @pytest.mark.parametrize("backend_name", ["numpy", "fast"])
    @pytest.mark.parametrize("total", [CHUNK - 1, CHUNK, CHUNK + 1], ids=["chunk-1", "chunk", "chunk+1"])
    @pytest.mark.parametrize(
        "loop_cls,fused_cls,kwargs",
        [
            (SGDLoop, SGD, dict(lr=0.05)),
            (SGDLoop, SGD, dict(lr=0.05, momentum=0.9)),
            (SGDLoop, SGD, dict(lr=0.05, momentum=0.9, nesterov=True)),
            (SGDLoop, SGD, dict(lr=0.05, momentum=0.9, weight_decay=1e-2)),
            (SGDLoop, SGD, dict(lr=0.05, momentum=0.9, weight_decay=1e-2, nesterov=True)),
            (AdamLoop, Adam, dict(lr=1e-3)),
            (AdamLoop, Adam, dict(lr=1e-3, weight_decay=1e-2)),
        ],
        ids=["sgd", "sgd-momentum", "sgd-nesterov", "sgd-decay", "sgd-decay-nesterov",
             "adam", "adam-decay"],
    )
    def test_bytes_match_the_loops(self, loop_cls, fused_cls, kwargs, total, backend_name):
        loop, fused, p_loop, p_fused = self.run_pair(loop_cls, fused_cls, total, kwargs, backend_name)
        assert fused._arena.size == total
        for a, b in zip(p_loop, p_fused):
            assert a.data.tobytes() == b.data.tobytes()
        if kwargs.get("momentum"):
            # The momentum slab too: a first-step -0.0 gradient stays -0.0.
            want = np.concatenate([loop.state[id(p)]["momentum"] for p in p_loop])
            assert fused._momentum_buf.tobytes() == want.tobytes()

    def test_first_momentum_step_keeps_negative_zero(self):
        p = Parameter(np.ones(CHUNK + 5, dtype=np.float32))
        opt = SGD([p], lr=0.1, momentum=0.9)
        p.grad = np.full(CHUNK + 5, -0.0, dtype=np.float32)
        opt.step()
        assert np.signbit(opt._momentum_buf).all()

    @pytest.mark.parametrize("backend_name", ["numpy", "fast"])
    @pytest.mark.parametrize("total", [CHUNK - 1, CHUNK + 1], ids=["chunk-1", "chunk+1"])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_lamb_matches_its_whole_arena_chain(self, total, backend_name, weight_decay):
        """LAMB packs the gradient into its ``u`` slab and runs the backend's
        whole-arena chain: byte-equal to that chain on the packed gradient,
        and within the tolerance tag of the per-tensor loop."""
        kwargs = dict(lr=1e-3, weight_decay=weight_decay)
        loop, fused, p_loop, p_fused = self.run_pair(
            LAMBLoop, LAMB, total, kwargs, backend_name, steps=2
        )
        for a, b in zip(p_loop, p_fused):
            np.testing.assert_allclose(b.data, a.data, rtol=TOLERANCE_RTOL, atol=TOLERANCE_ATOL)
        # One more step, against the chain run by hand on a packed copy.
        rng = np.random.default_rng(99)
        for p in p_fused:
            p.grad = rng.standard_normal(p.data.size).astype(np.float32)
        p_fused[self.NONE_SEGMENT].grad = None
        flat, m, v = fused._arena.flat.copy(), fused._m.copy(), fused._v.copy()
        g = packed_grad(p_fused)
        mask = fused._mask()
        with backend.use(backend_name):
            backend.active().lamb_update(
                flat, g, m, v, mask, fused._seg_starts, fused._seg_sizes,
                1e-3, 0.9, 0.999, 1e-6, fused._t + 1,
            )
            fused.step()
        assert fused._arena.flat.tobytes() == flat.tobytes()
        assert fused._m.tobytes() == m.tobytes() and fused._v.tobytes() == v.tobytes()
