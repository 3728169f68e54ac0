"""Parameter-server cost model, bandwidth traces, LTH-variant VGG."""

import pytest

from repro.distributed import (
    BandwidthTrace,
    ClusterSpec,
    effective_epoch_times,
    parameter_server_time,
    ring_allreduce_time,
)


class TestParameterServerModel:
    def test_single_node_free(self):
        assert parameter_server_time(1e9, ClusterSpec(1)) == 0.0

    def test_single_server_bottleneck_scales_with_workers(self):
        m = 10e6
        t4 = parameter_server_time(m, ClusterSpec(4, latency_s=0), num_servers=1)
        t16 = parameter_server_time(m, ClusterSpec(16, latency_s=0), num_servers=1)
        assert t16 / t4 == pytest.approx(4.0, rel=1e-6)

    def test_sharding_across_servers_helps(self):
        m = 10e6
        c = ClusterSpec(16, latency_s=0)
        t1 = parameter_server_time(m, c, num_servers=1)
        t4 = parameter_server_time(m, c, num_servers=4)
        assert t4 == pytest.approx(t1 / 4, rel=1e-6)

    def test_full_sharding_matches_allreduce_scaling(self):
        # s = p: per-server load 2M/B, same asymptote as ring allreduce.
        m = 100e6
        c = ClusterSpec(64, latency_s=0)
        ps = parameter_server_time(m, c, num_servers=64)
        ring = ring_allreduce_time(m, c)
        assert ps == pytest.approx(ring, rel=0.05)

    def test_invalid_servers_raise(self):
        with pytest.raises(ValueError):
            parameter_server_time(1e6, ClusterSpec(4), num_servers=0)


class TestBandwidthTrace:
    def test_constant_trace(self):
        tr = BandwidthTrace([(1.0, 10.0)])
        assert tr.bandwidth_at(0.0) == 10.0
        assert tr.bandwidth_at(1.0) == 10.0

    def test_appendix_k_decay(self):
        # "bandwidth decays sharply in the middle of the experiment".
        tr = BandwidthTrace([(0.4, 10.0), (0.6, 2.0)])
        assert tr.bandwidth_at(0.2) == 10.0
        assert tr.bandwidth_at(0.7) == 2.0

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            BandwidthTrace([(0.5, 10.0)])

    def test_positive_bandwidth_required(self):
        with pytest.raises(ValueError):
            BandwidthTrace([(1.0, 0.0)])

    def test_progress_clamped(self):
        tr = BandwidthTrace([(1.0, 8.0)])
        assert tr.bandwidth_at(-1.0) == 8.0
        assert tr.bandwidth_at(2.0) == 8.0


class TestEffectiveEpochTimes:
    def test_decay_slows_later_epochs(self):
        tr = BandwidthTrace([(0.5, 10.0), (0.5, 2.0)])
        times = effective_epoch_times(
            comm_seconds_at_nominal=1.0, compute_seconds=2.0, n_epochs=10, trace=tr
        )
        assert len(times) == 10
        assert times[0] == pytest.approx(3.0)       # 10 Gbps epoch
        assert times[-1] == pytest.approx(2.0 + 5.0)  # 2 Gbps epoch
        assert times == sorted(times)

    def test_smaller_model_less_exposed_to_decay(self):
        """Pufferfish's robustness bonus: with less to communicate, a
        bandwidth collapse costs it less absolute slowdown."""
        tr = BandwidthTrace([(0.5, 10.0), (0.5, 1.0)])
        vanilla = effective_epoch_times(1.0, 2.0, 4, tr)
        pufferfish = effective_epoch_times(0.3, 1.8, 4, tr)
        penalty_vanilla = vanilla[-1] - vanilla[0]
        penalty_pufferfish = pufferfish[-1] - pufferfish[0]
        assert penalty_pufferfish < penalty_vanilla


class TestVGGLTHVariant:
    def test_single_fc_head(self):
        from repro import nn
        from repro.models import vgg19_lth

        model = vgg19_lth(num_classes=10, width_mult=0.25)
        fcs = [m for m in model.modules() if isinstance(m, nn.Linear)]
        assert len(fcs) == 1
        assert fcs[0].out_features == 10

    def test_forward(self, rng):
        from repro.models import vgg19_lth
        from repro.tensor import Tensor

        model = vgg19_lth(num_classes=4, width_mult=0.125)
        out = model(Tensor(rng.standard_normal((2, 3, 32, 32))))
        assert out.shape == (2, 4)

    def test_hybrid_config_keeps_head(self):
        from repro.core import build_hybrid
        from repro.models import vgg19_lth
        from repro.models.vgg import vgg19_lth_hybrid_config

        model = vgg19_lth(num_classes=10, width_mult=0.25)
        hybrid, report = build_hybrid(model, vgg19_lth_hybrid_config())
        assert report.params_after < report.params_before
        assert "classifier.1" in report.kept

    def test_paper_scale_smaller_than_three_fc_vgg(self):
        from repro.models import vgg19, vgg19_lth

        assert vgg19_lth(10).num_parameters() < vgg19(10).num_parameters()
