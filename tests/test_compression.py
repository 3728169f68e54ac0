"""Gradient compressors: exactness, unbiasedness, error feedback, wire
sizes, and allreduce compatibility flags."""

import numpy as np
import pytest

from repro.compression import (
    ABTraining,
    NoCompression,
    PowerSGD,
    QSGD,
    Signum,
    StochasticBinary,
    TopK,
    UndecodedRoundError,
    VarianceGated,
    make_compressor,
    registered_compressors,
)


def grads_for(rng, shapes=((8, 6), (5,), (4, 3, 3, 3))):
    return [rng.standard_normal(s).astype(np.float32) for s in shapes]


class TestNoCompression:
    def test_exact_average(self, rng):
        comp = NoCompression(3)
        gsets = [grads_for(rng) for _ in range(3)]
        agg = comp.decode_aggregate([comp.encode(w, g) for w, g in enumerate(gsets)])
        for i in range(3):
            expected = np.mean([g[i] for g in gsets], axis=0)
            assert np.allclose(agg[i], expected, atol=1e-6)

    def test_wire_size_is_fp32(self, rng):
        comp = NoCompression(1)
        g = grads_for(rng)
        res = comp.encode(0, g)
        assert res.nbytes == sum(x.size for x in g) * 4

    def test_allreduce_compatible(self):
        assert NoCompression(2).allreduce_compatible


class TestPowerSGD:
    def test_wire_size_much_smaller(self, rng):
        comp = PowerSGD(2, rank=2)
        g = [rng.standard_normal((128, 128)).astype(np.float32)]
        res = comp.encode(0, g)
        assert res.nbytes < 0.1 * g[0].size * 4

    def test_rank1_tensors_sent_raw(self, rng):
        comp = PowerSGD(1, rank=2)
        g = [rng.standard_normal(7).astype(np.float32)]
        agg = comp.decode_aggregate([comp.encode(0, g)])
        assert np.allclose(agg[0], g[0], atol=1e-6)

    def test_exact_for_lowrank_gradient_after_warmup(self, rng):
        # A truly rank-2 gradient should be recovered (nearly) exactly once
        # the power iteration has aligned Q.
        comp = PowerSGD(1, rank=2, error_feedback=False)
        a = rng.standard_normal((16, 2)).astype(np.float32)
        b = rng.standard_normal((2, 12)).astype(np.float32)
        g = [a @ b]
        for _ in range(4):
            agg = comp.decode_aggregate([comp.encode(0, g)])
        assert np.linalg.norm(agg[0] - g[0]) / np.linalg.norm(g[0]) < 0.05

    def test_error_feedback_reduces_bias_over_rounds(self, rng):
        # With EF, the *sum* of decoded gradients over T rounds approaches
        # the sum of true gradients (memory compensates what was dropped).
        g_true = [rng.standard_normal((20, 20)).astype(np.float32)]
        comp = PowerSGD(1, rank=2, error_feedback=True)
        total = np.zeros_like(g_true[0])
        for _ in range(30):
            agg = comp.decode_aggregate([comp.encode(0, g_true)])
            total += agg[0]
        err = np.linalg.norm(total / 30 - g_true[0]) / np.linalg.norm(g_true[0])
        assert err < 0.25

    def test_shapes_restored_for_conv_grads(self, rng):
        comp = PowerSGD(1, rank=2)
        g = [rng.standard_normal((8, 4, 3, 3)).astype(np.float32)]
        agg = comp.decode_aggregate([comp.encode(0, g)])
        assert agg[0].shape == (8, 4, 3, 3)

    def test_allreduce_compatible(self):
        assert PowerSGD(2).allreduce_compatible


class TestSignum:
    def test_one_bit_per_coordinate(self, rng):
        comp = Signum(1)
        g = [rng.standard_normal(800).astype(np.float32)]
        res = comp.encode(0, g)
        assert res.nbytes == 100  # 800 bits

    def test_majority_vote(self):
        comp = Signum(3, momentum=0.0)
        mk = lambda v: [np.array(v, dtype=np.float32)]
        res = [
            comp.encode(0, mk([1.0, -1.0])),
            comp.encode(1, mk([1.0, 1.0])),
            comp.encode(2, mk([-1.0, -1.0])),
        ]
        agg = comp.decode_aggregate(res)
        assert np.allclose(agg[0], [1.0, -1.0])

    def test_momentum_smooths_sign(self):
        comp = Signum(1, momentum=0.9)
        g_pos = [np.array([10.0], dtype=np.float32)]
        g_neg = [np.array([-0.1], dtype=np.float32)]
        comp.decode_aggregate([comp.encode(0, g_pos)])
        agg = comp.decode_aggregate([comp.encode(0, g_neg)])
        # Momentum keeps the sign positive despite the small negative grad.
        assert agg[0][0] == 1.0

    def test_not_allreduce_compatible(self):
        assert not Signum(2).allreduce_compatible

    def test_output_values_are_signs(self, rng):
        comp = Signum(2)
        gsets = [grads_for(rng), grads_for(rng)]
        agg = comp.decode_aggregate([comp.encode(w, g) for w, g in enumerate(gsets)])
        for a in agg:
            assert set(np.unique(a)).issubset({-1.0, 0.0, 1.0})


class TestQSGD:
    def test_unbiased(self, rng):
        comp = QSGD(1, levels=8)
        g = [rng.standard_normal(500).astype(np.float32)]
        est = np.mean(
            [comp.decode_aggregate([comp.encode(0, g)])[0] for _ in range(300)], axis=0
        )
        noise_bound = np.linalg.norm(g[0]) / 8 / np.sqrt(300) * 5
        assert np.abs(est - g[0]).max() < noise_bound + 0.05

    def test_zero_gradient_roundtrip(self):
        comp = QSGD(1, levels=4)
        g = [np.zeros(10, dtype=np.float32)]
        agg = comp.decode_aggregate([comp.encode(0, g)])
        assert np.allclose(agg[0], 0)

    def test_invalid_levels_raise(self):
        with pytest.raises(ValueError):
            QSGD(1, levels=0)
        with pytest.raises(ValueError):
            QSGD(1, levels=1000)

    def test_wire_smaller_than_fp32(self, rng):
        comp = QSGD(1, levels=16)
        g = [rng.standard_normal(1000).astype(np.float32)]
        assert comp.encode(0, g).nbytes < 1000 * 4


class TestTopK:
    def test_keeps_exactly_k(self, rng):
        comp = TopK(1, ratio=0.05, error_feedback=False)
        g = [rng.standard_normal(1000).astype(np.float32)]
        agg = comp.decode_aggregate([comp.encode(0, g)])
        assert (agg[0] != 0).sum() == 50

    def test_keeps_largest_magnitudes(self, rng):
        comp = TopK(1, ratio=0.01, error_feedback=False)
        g = [np.arange(100, dtype=np.float32)]
        agg = comp.decode_aggregate([comp.encode(0, g)])
        assert agg[0][99] == 99

    def test_error_feedback_accumulates_residual(self):
        comp = TopK(1, ratio=0.5, error_feedback=True)
        g = [np.array([10.0, 1.0], dtype=np.float32)]
        comp.decode_aggregate([comp.encode(0, g)])  # keeps 10, residual has 1
        # Second round: residual (1) + new grad (1) = 2 competes with 10's 10.
        agg = comp.decode_aggregate([comp.encode(0, g)])
        assert agg[0][0] == 10.0  # still the larger coordinate

    def test_ef_sum_preserved_over_rounds(self, rng):
        # With EF and constant gradient, total transmitted mass approaches
        # total true mass.
        comp = TopK(1, ratio=0.25, error_feedback=True)
        g = [rng.standard_normal(64).astype(np.float32)]
        total = np.zeros(64, dtype=np.float64)
        for _ in range(40):
            total += comp.decode_aggregate([comp.encode(0, g)])[0]
        err = np.linalg.norm(total / 40 - g[0]) / np.linalg.norm(g[0])
        assert err < 0.2

    def test_invalid_ratio_raises(self):
        with pytest.raises(ValueError):
            TopK(1, ratio=0.0)

    def test_multi_tensor_shapes_restored(self, rng):
        comp = TopK(1, ratio=0.1)
        g = grads_for(rng)
        agg = comp.decode_aggregate([comp.encode(0, g)])
        assert [a.shape for a in agg] == [x.shape for x in g]


class TestStochasticBinary:
    def test_unbiased(self, rng):
        comp = StochasticBinary(1)
        g = [rng.standard_normal(200).astype(np.float32)]
        est = np.mean(
            [comp.decode_aggregate([comp.encode(0, g)])[0] for _ in range(400)], axis=0
        )
        spread = float(g[0].max() - g[0].min())
        assert np.abs(est - g[0]).max() < spread / np.sqrt(400) * 6

    def test_one_bit_plus_two_floats(self, rng):
        comp = StochasticBinary(1)
        g = [rng.standard_normal(800).astype(np.float32)]
        assert comp.encode(0, g).nbytes == 100 + 8

    def test_constant_tensor_exact(self):
        comp = StochasticBinary(1)
        g = [np.full(16, 3.0, dtype=np.float32)]
        agg = comp.decode_aggregate([comp.encode(0, g)])
        assert np.allclose(agg[0], 3.0)

    def test_values_within_minmax(self, rng):
        comp = StochasticBinary(1)
        g = [rng.standard_normal(64).astype(np.float32)]
        agg = comp.decode_aggregate([comp.encode(0, g)])
        assert agg[0].min() >= g[0].min() - 1e-5
        assert agg[0].max() <= g[0].max() + 1e-5

    def test_not_allreduce_compatible(self):
        assert not StochasticBinary(1).allreduce_compatible


class TestPowerSGDSeedDeterminism:
    """Regression: warm-start Q must be a pure function of (seed, layer),
    not of process-global RNG state or first-encode order."""

    def test_same_seed_reproduces_exactly(self, rng):
        g = [rng.standard_normal((12, 9)).astype(np.float32)]
        a = PowerSGD(1, rank=2, seed=7)
        b = PowerSGD(1, rank=2, seed=7)
        out_a = a.decode_aggregate([a.encode(0, g)])
        out_b = b.decode_aggregate([b.encode(0, g)])
        np.testing.assert_array_equal(out_a[0], out_b[0])

    def test_different_seeds_differ(self, rng):
        g = [rng.standard_normal((12, 9)).astype(np.float32)]
        a = PowerSGD(1, rank=2, seed=0)
        b = PowerSGD(1, rank=2, seed=1)
        assert not np.array_equal(
            a.encode(0, g).payload[0][0], b.encode(0, g).payload[0][0]
        )

    def test_encode_order_does_not_change_q(self, rng):
        # Layer 1 encoded first vs last: identical warm starts, because Q
        # is keyed on the global layer index, not on call order.
        grads = [
            rng.standard_normal((6, 5)).astype(np.float32),
            rng.standard_normal((4, 8)).astype(np.float32),
        ]
        forward = PowerSGD(1, rank=2, seed=3)
        forward.encode(0, grads)
        reverse = PowerSGD(1, rank=2, seed=3)
        reverse.encode(0, [grads[1]], layer_offset=1)
        reverse.encode(0, [grads[0]], layer_offset=0)
        for layer in (0, 1):
            np.testing.assert_array_equal(
                forward._qs[layer], reverse._qs[layer]
            )

    def test_immune_to_global_rng_consumption(self, rng):
        g = [rng.standard_normal((10, 10)).astype(np.float32)]
        a = PowerSGD(1, rank=2, seed=5)
        np.random.random(1000)  # perturb the legacy global RNG
        from repro.utils import spawn_rng

        spawn_rng().random(1000)  # and the library's own spawning stream
        b = PowerSGD(1, rank=2, seed=5)
        np.testing.assert_array_equal(
            a.encode(0, g).payload[0][0], b.encode(0, g).payload[0][0]
        )


class TestPowerSGDBorrowsItsInput:
    """``encode`` keeps no private copy of the gradient: the payload borrows
    the caller's arrays, so it must never write to them."""

    def test_encode_leaves_inputs_untouched_across_rounds(self, rng):
        comp = PowerSGD(2, rank=2, seed=1)
        grads = grads_for(rng)
        before = [g.copy() for g in grads]
        for _ in range(3):  # later rounds add the error-feedback residual
            comp.decode_aggregate([comp.encode(w, grads) for w in range(2)])
            comp.advance_step()
        for g, b in zip(grads, before):
            np.testing.assert_array_equal(g, b)

    def test_borrowed_and_copied_inputs_encode_identically(self, rng):
        grads = grads_for(rng)
        lent, copied = PowerSGD(1, rank=2, seed=1), PowerSGD(1, rank=2, seed=1)
        for _ in range(3):
            a = lent.encode(0, grads)
            b = copied.encode(0, [g.copy() for g in grads])
            assert a.nbytes == b.nbytes
            for part_a, part_b in zip(a.payload[:3], b.payload[:3]):
                assert part_a.keys() == part_b.keys()
                for i in part_a:
                    assert part_a[i].tobytes() == part_b[i].tobytes()
            out_a, out_b = lent.decode_aggregate([a]), copied.decode_aggregate([b])
            for x, y in zip(out_a, out_b):
                assert x.tobytes() == y.tobytes()


def _payload_arrays(obj):
    """Every ndarray reachable in an encode payload."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [a for v in obj for a in _payload_arrays(v)]
    return []


@pytest.mark.parametrize("name", sorted(registered_compressors()))
class TestEveryCompressorBorrowsItsInput:
    """The base-class contract, for the whole registry (``"sgd"`` included,
    whose payload *is* the caller's list): gradients are lent to ``encode``
    and payloads to ``decode_aggregate``; neither is ever written to."""

    def test_encode_leaves_inputs_untouched_across_rounds(self, name, rng):
        comp = make_compressor(name, 2)
        gsets = [grads_for(rng) for _ in range(2)]
        before = [[g.copy() for g in grads] for grads in gsets]
        for _ in range(3):  # later rounds add error-feedback residuals
            comp.decode_aggregate([comp.encode(w, g) for w, g in enumerate(gsets)])
            comp.advance_step()
        for grads, kept in zip(gsets, before):
            for g, b in zip(grads, kept):
                np.testing.assert_array_equal(g, b)

    def test_decode_aggregate_does_not_write_to_a_payload(self, name, rng):
        comp = make_compressor(name, 2)
        gsets = [grads_for(rng) for _ in range(2)]
        for _ in range(3):
            results = [comp.encode(w, g) for w, g in enumerate(gsets)]
            arrays = [a for r in results for a in _payload_arrays(r.payload)]
            before = [a.copy() for a in arrays]
            # Decoding twice is legal (once per bucket in the trainer): the
            # second pass must see the payload the first one saw.
            first = comp.decode_aggregate(results)
            second = comp.decode_aggregate(results)
            for a, b in zip(arrays, before):
                np.testing.assert_array_equal(a, b)
            for x, y in zip(first, second):
                assert not np.shares_memory(x, y)
            comp.advance_step()


@pytest.mark.parametrize("name", ["powersgd", "abtrain"])
class TestErrorFeedbackInPlace:
    """One resident matrix per ``(worker, layer)``: the residual of the last
    round is folded into it at the next ``encode``, so a round that was
    never decoded has no residual to fold — and must not pass for one."""

    def test_second_encode_without_a_decode_raises(self, name, rng):
        comp = make_compressor(name, 2)
        grads = grads_for(rng)
        # Round 1 holds no residual yet and stays re-encodable (benchmarks
        # time ``encode`` that way).
        first = [a.copy() for a in _payload_arrays(comp.encode(0, grads).payload)]
        again = _payload_arrays(comp.encode(0, grads).payload)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))
        comp.decode_aggregate([comp.encode(w, grads) for w in range(2)])
        comp.advance_step()
        comp.encode(0, grads)
        with pytest.raises(UndecodedRoundError, match="worker 0 encoded layer 0 twice"):
            comp.encode(0, grads)
        with pytest.raises(UndecodedRoundError, match="worker 0's residual"):
            comp.error_norm(0)
        assert comp.error_norm(1) >= 0.0  # the other worker's round is whole

    def test_from_round_two_the_payload_matrix_is_the_resident_buffer(self, name, rng):
        comp = make_compressor(name, 1)
        seen = []
        for _ in range(4):
            res = comp.encode(0, grads_for(rng))
            seen.append([a for a in _payload_arrays(res.payload) if a.shape == (8, 6)][0])
            comp.decode_aggregate([res])
            comp.advance_step()
        assert seen[0] is not seen[1]  # round 1 borrowed the caller's gradient
        assert seen[1] is seen[2] is seen[3]

    def test_the_decoded_aggregate_is_the_callers_to_overwrite(self, name, rng):
        """The trainer binds decoded arrays to ``p.grad``; whatever happens
        to them there must not reach the residual the codec still owes."""
        kept, scribbled = make_compressor(name, 2), make_compressor(name, 2)
        for _ in range(4):
            gsets = [grads_for(rng) for _ in range(2)]
            a = kept.decode_aggregate([kept.encode(w, g) for w, g in enumerate(gsets)])
            b = scribbled.decode_aggregate([scribbled.encode(w, g) for w, g in enumerate(gsets)])
            for x, y in zip(a, b):
                assert x.tobytes() == y.tobytes()
                y.fill(np.nan)
            assert kept.error_norm(0) == scribbled.error_norm(0)
            kept.advance_step()
            scribbled.advance_step()


def test_rejoining_worker_subtracts_the_m_hat_of_its_own_last_round(rng):
    """Worker 2 decodes round 1, sits out rounds 2–3 and comes back: its
    residual is still ``M₁ − m̂₁``, whatever the layer's ``m̂`` has become."""
    comp = PowerSGD(3, rank=1, seed=2)
    g = [[rng.standard_normal((8, 6)).astype(np.float32) for _ in range(3)] for _ in range(4)]
    m_hat_1 = comp.decode_aggregate([comp.encode(w, [g[0][w]]) for w in range(3)])[0]
    norm_1 = comp.error_norm(2)
    for r in (1, 2):
        m_hat_latest = comp.decode_aggregate([comp.encode(w, [g[r][w]]) for w in (0, 1)])[0]
        assert comp.error_norm(2) == norm_1
    matrix = comp.encode(2, [g[3][2]]).payload[1][0]
    assert matrix.tobytes() == (g[3][2] + (g[0][2] - m_hat_1)).tobytes()
    assert matrix.tobytes() != (g[3][2] + (g[0][2] - m_hat_latest)).tobytes()


class TestABTraining:
    def test_resync_step_is_exact_mean(self, rng):
        comp = ABTraining(3, rank=2, resync_every=4)
        gsets = [grads_for(rng) for _ in range(3)]
        agg = comp.decode_aggregate([comp.encode(w, g) for w, g in enumerate(gsets)])
        for i in range(len(gsets[0])):
            expected = np.mean([g[i] for g in gsets], axis=0)
            assert np.allclose(agg[i], expected, atol=1e-5)

    def test_factor_steps_send_rank_r_payloads(self, rng):
        comp = ABTraining(1, rank=2, resync_every=4)
        g = [rng.standard_normal((16, 12)).astype(np.float32)]
        full = comp.encode(0, g)
        comp.decode_aggregate([full])
        comp.advance_step()
        a_step = comp.encode(0, g)  # step 1: A-step
        # A-step wire: n x r floats, far below the full n x m matrix.
        assert a_step.nbytes == 16 * 2 * 4
        assert a_step.nbytes < full.nbytes
        comp.decode_aggregate([a_step])
        comp.advance_step()
        b_step = comp.encode(0, g)  # step 2: B-step
        assert b_step.nbytes == 2 * 12 * 4

    def test_schedule_alternates_and_resyncs(self):
        comp = ABTraining(1, rank=2, resync_every=4)
        modes = []
        for _ in range(8):
            modes.append(comp._mode())
            comp.advance_step()
        assert modes == ["resync", "a", "b", "a", "resync", "a", "b", "a"]

    def test_resync_flushes_error_feedback(self, rng):
        comp = ABTraining(1, rank=1, resync_every=2)
        g = [rng.standard_normal((8, 8)).astype(np.float32)]
        comp.decode_aggregate([comp.encode(0, g)])  # step 0: resync
        comp.advance_step()
        comp.decode_aggregate([comp.encode(0, g)])  # step 1: lossy A-step
        assert comp.error_norm(0) > 0.0
        comp.advance_step()
        comp.decode_aggregate([comp.encode(0, g)])  # step 2: resync again
        assert comp.error_norm(0) == 0.0

    def test_lowrank_gradient_recovered_on_factor_steps(self, rng):
        # After resync the bases span the gradient's own column space, so
        # a persistent rank-1 gradient survives the A/B projections.
        comp = ABTraining(1, rank=1, resync_every=4, error_feedback=False)
        u = rng.standard_normal((10, 1)).astype(np.float32)
        v = rng.standard_normal((1, 6)).astype(np.float32)
        g = [u @ v]
        comp.decode_aggregate([comp.encode(0, g)])
        comp.advance_step()
        agg = comp.decode_aggregate([comp.encode(0, g)])
        assert np.allclose(agg[0], g[0], atol=1e-4)

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            ABTraining(1, rank=0)
        with pytest.raises(ValueError):
            ABTraining(1, resync_every=1)

    def test_allreduce_compatible(self):
        assert ABTraining(2).allreduce_compatible


class TestVarianceGated:
    def test_first_step_sends_everything(self, rng):
        comp = VarianceGated(2, threshold=0.5)
        gsets = [grads_for(rng) for _ in range(2)]
        agg = comp.decode_aggregate([comp.encode(w, g) for w, g in enumerate(gsets)])
        for i in range(len(gsets[0])):
            expected = np.mean([g[i] for g in gsets], axis=0)
            assert np.allclose(agg[i], expected, atol=1e-5)

    def test_noisy_layer_gets_deferred_then_force_sent(self, rng):
        comp = VarianceGated(4, threshold=0.5, max_defer=2)
        shapes = ((6, 6),)

        def step():
            gsets = [grads_for(rng, shapes) for _ in range(4)]
            results = [comp.encode(w, g) for w, g in enumerate(gsets)]
            agg = comp.decode_aggregate(results)
            comp.advance_step()
            return results, agg

        step()  # step 0: no stats -> sent; iid noise -> high variance
        assert not comp.gate_open(0)
        results, agg = step()  # step 1: deferred
        assert results[0].nbytes == 1  # gate header only
        assert np.all(agg[0] == 0.0)
        assert comp.error_norm(0) > 0.0
        step()  # step 2: deferred again (hits max_defer)
        assert comp.gate_open(0)
        results, _ = step()  # step 3: force-sent, residual flushed
        assert results[0].nbytes == 1 + 36 * 4
        assert comp.error_norm(0) == 0.0

    def test_agreeing_workers_keep_gate_open(self, rng):
        comp = VarianceGated(3, threshold=0.5)
        base = grads_for(rng, ((5, 4),))
        for _ in range(3):
            # Near-identical gradients: relative variance ~ 0.
            gsets = [[g + 1e-4 * w for g in base] for w in range(3)]
            comp.decode_aggregate([comp.encode(w, g) for w, g in enumerate(gsets)])
            comp.advance_step()
            assert comp.gate_open(0)

    def test_deferred_gradients_accumulate_in_residual(self, rng):
        comp = VarianceGated(4, threshold=1e-9, max_defer=10)
        g = grads_for(rng, ((4, 4),))
        # Step 0 sends (no stats) and records high variance.
        comp.decode_aggregate(
            [comp.encode(w, grads_for(rng, ((4, 4),))) for w in range(4)]
        )
        comp.advance_step()
        comp.decode_aggregate([comp.encode(w, g) for w in range(4)])
        comp.advance_step()
        comp.decode_aggregate([comp.encode(w, g) for w in range(4)])
        expected = np.linalg.norm(2 * g[0].astype(np.float64))
        assert comp.error_norm(0) == pytest.approx(expected, rel=1e-5)

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            VarianceGated(1, threshold=0.0)
        with pytest.raises(ValueError):
            VarianceGated(1, max_defer=0)

    def test_allreduce_compatible(self):
        assert VarianceGated(2).allreduce_compatible
