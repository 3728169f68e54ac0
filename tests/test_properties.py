"""Property-based tests (hypothesis) over the core data structures and
numerical invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression import NoCompression, Signum, TopK
from repro.core import approximation_error, default_rank, factorize_matrix
from repro.metrics import corpus_bleu, perplexity, topk_accuracy
from repro.tensor import Tensor, softmax
from repro.tensor.tensor import _unbroadcast

SMALL_FLOATS = st.floats(-100, 100, allow_nan=False, width=32)


def float_matrix(max_dim=8):
    return hnp.arrays(
        np.float32,
        st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)),
        elements=SMALL_FLOATS,
    )


class TestUnbroadcast:
    @given(float_matrix())
    @settings(max_examples=40, deadline=None)
    def test_identity_when_shapes_match(self, m):
        assert np.array_equal(_unbroadcast(m, m.shape), m)

    @given(float_matrix())
    @settings(max_examples=40, deadline=None)
    def test_sums_prepended_axes(self, m):
        g = np.broadcast_to(m, (3,) + m.shape)
        out = _unbroadcast(np.array(g), m.shape)
        assert np.allclose(out, 3 * m, rtol=1e-4, atol=1e-3)

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_sums_stretched_axes(self, rows, cols):
        g = np.ones((rows, cols), dtype=np.float32)
        out = _unbroadcast(g, (rows, 1))
        assert out.shape == (rows, 1)
        assert np.allclose(out, cols)


class TestAutogradLinearity:
    @given(float_matrix(5), st.floats(-5, 5, allow_nan=False, width=32))
    @settings(max_examples=30, deadline=None)
    def test_grad_scales_linearly(self, m, scale):
        # d(sum(c*x))/dx == c everywhere, for any c.
        t = Tensor(m, requires_grad=True)
        (t * float(scale)).sum().backward()
        assert np.allclose(t.grad, scale, rtol=1e-4, atol=1e-4)

    @given(float_matrix(5))
    @settings(max_examples=30, deadline=None)
    def test_sum_of_parts_equals_whole(self, m):
        t1 = Tensor(m, requires_grad=True)
        (t1.sum() + t1.sum()).backward()
        assert np.allclose(t1.grad, 2.0)


class TestSoftmaxProperties:
    @given(float_matrix(6))
    @settings(max_examples=40, deadline=None)
    def test_simplex_output(self, m):
        s = softmax(Tensor(m)).data
        assert np.all(s >= 0)
        assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-4)

    @given(float_matrix(6), st.floats(-50, 50, allow_nan=False, width=32))
    @settings(max_examples=40, deadline=None)
    def test_shift_invariance(self, m, c):
        a = softmax(Tensor(m)).data
        b = softmax(Tensor(m + np.float32(c))).data
        assert np.allclose(a, b, atol=1e-4)


class TestFactorizationProperties:
    @given(float_matrix(10), st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_shapes_and_rank_clamp(self, m, r):
        u, vt = factorize_matrix(m, r)
        eff = min(r, min(m.shape))
        assert u.shape == (m.shape[0], eff)
        assert vt.shape == (eff, m.shape[1])

    @given(float_matrix(8))
    @settings(max_examples=40, deadline=None)
    def test_full_rank_exact(self, m):
        r = min(m.shape)
        u, vt = factorize_matrix(m, r)
        assert np.allclose(u @ vt, m, atol=1e-2 + 1e-4 * np.abs(m).max())

    @given(float_matrix(8))
    @settings(max_examples=40, deadline=None)
    def test_error_monotone_in_rank(self, m):
        errs = [
            approximation_error(m, *factorize_matrix(m, r))
            for r in range(1, min(m.shape) + 1)
        ]
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-5

    @given(st.integers(1, 4096), st.floats(0.01, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_default_rank_bounds(self, full, ratio):
        r = default_rank(full, ratio)
        assert 1 <= r <= max(1, full)


class TestCompressorProperties:
    @given(
        hnp.arrays(np.float32, st.tuples(st.integers(2, 8), st.integers(2, 8)),
                   elements=SMALL_FLOATS),
        st.integers(2, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_nocompression_identity_for_equal_workers(self, g, n_workers):
        comp = NoCompression(n_workers)
        res = [comp.encode(w, [g]) for w in range(n_workers)]
        agg = comp.decode_aggregate(res)
        assert np.allclose(agg[0], g, atol=1e-4)

    @given(hnp.arrays(np.float32, st.integers(8, 64),
                      elements=st.floats(-10, 10, allow_nan=False, width=32)))
    @settings(max_examples=30, deadline=None)
    def test_signum_outputs_signs(self, g):
        comp = Signum(1, momentum=0.0)
        agg = comp.decode_aggregate([comp.encode(0, [g])])
        assert set(np.unique(agg[0])).issubset({-1.0, 0.0, 1.0})

    @given(
        hnp.arrays(np.float32, st.integers(10, 100),
                   elements=st.floats(-10, 10, allow_nan=False, width=32)),
        st.floats(0.05, 1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_topk_sparsity_bound(self, g, ratio):
        comp = TopK(1, ratio=float(ratio), error_feedback=False)
        agg = comp.decode_aggregate([comp.encode(0, [g])])
        k = max(1, int(ratio * g.size))
        assert (agg[0] != 0).sum() <= k


class TestMetricProperties:
    @given(
        hnp.arrays(np.float64, st.tuples(st.integers(1, 20), st.integers(2, 10)),
                   elements=st.floats(-10, 10, allow_nan=False)),
    )
    @settings(max_examples=40, deadline=None)
    def test_topk_accuracy_monotone_in_k(self, logits):
        rng = np.random.default_rng(0)
        t = rng.integers(0, logits.shape[1], logits.shape[0])
        accs = [topk_accuracy(logits, t, k) for k in range(1, logits.shape[1] + 1)]
        assert accs == sorted(accs)
        assert accs[-1] == 1.0

    @given(st.floats(0, 15, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_perplexity_monotone(self, nll):
        assert perplexity(nll) <= perplexity(nll + 0.1)

    @given(
        st.lists(st.lists(st.integers(3, 10), min_size=1, max_size=8),
                 min_size=1, max_size=5)
    )
    @settings(max_examples=40, deadline=None)
    def test_bleu_bounds_and_self_score(self, seqs):
        score = corpus_bleu(seqs, seqs)
        assert 0.0 <= score <= 100.0 + 1e-6
        # Self-BLEU is 100 whenever 4-grams exist in every sentence.
        if all(len(s) >= 4 for s in seqs):
            assert score == pytest.approx(100.0, abs=0.1)


class TestModuleInvariants:
    @given(st.integers(1, 16), st.integers(1, 16), st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_lowrank_param_arithmetic(self, m, n, r):
        from repro.core import LowRankLinear

        r = min(r, m, n)
        layer = LowRankLinear(n, m, rank=r, bias=False)
        assert layer.num_parameters() == r * (m + n)

    @given(st.integers(2, 12), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_state_dict_roundtrip_linear(self, dim, out):
        from repro import nn

        a, b = nn.Linear(dim, out), nn.Linear(dim, out)
        b.load_state_dict(a.state_dict())
        x = Tensor(np.random.default_rng(0).standard_normal((3, dim)))
        assert np.allclose(a(x).data, b(x).data)
