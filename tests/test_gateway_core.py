"""The one serving driver: clock-agnostic core, batcher edges, ledger invariants.

The simulator and the live gateway are both clock adapters over
:class:`ServingCore`, so there is no second driver to compare against;
what used to be a sim-vs-replay parity property is stated directly as
invariants of the one driver — a Hypothesis property drives random
traces through it and checks the ledger it leaves behind.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability as obs
from repro.serve import (
    SHED_ADMISSION,
    SHED_DEADLINE,
    SHED_ERROR,
    SHED_SHUTDOWN,
    BatchPolicy,
    DynamicBatcher,
    LatencyProfile,
    Request,
    RequestOutcome,
    ServeConfig,
    ServeReport,
    ServeSimulator,
    ServingCore,
)


@pytest.fixture(autouse=True)
def _observability_off():
    obs.disable()
    obs.get_registry().reset()
    yield
    obs.disable()
    obs.get_registry().reset()


def profile(latencies=(0.01, 0.02, 0.03)):
    return LatencyProfile(batch_sizes=(1, 4, 8), latency_s=tuple(latencies))


class TestBatcherEdges:
    def test_empty_queue_flush_at_is_inf(self):
        b = DynamicBatcher(BatchPolicy(4, 0.01))
        assert b.flush_at() == math.inf
        assert len(b) == 0 and not b.full

    def test_empty_queue_take_returns_nothing(self):
        b = DynamicBatcher(BatchPolicy(4, 0.01))
        assert b.take() == []

    def test_fill_time_raises_until_full(self):
        b = DynamicBatcher(BatchPolicy(3, 0.01))
        b.enqueue(Request(0, 0.0, 1.0))
        b.enqueue(Request(1, 0.0, 1.0))
        with pytest.raises(ValueError):
            b.fill_time()
        b.enqueue(Request(2, 0.0, 1.0))
        assert b.full and b.fill_time() == 0.0

    def test_simultaneous_arrivals_at_max_batch_boundary(self):
        """max_batch requests arriving at the same instant fill exactly one
        batch; the (max_batch+1)-th starts the next with the same stamp."""
        b = DynamicBatcher(BatchPolicy(4, 0.01))
        t = 0.125
        for rid in range(5):
            b.enqueue(Request(rid, t, t + 1.0))
        assert b.full
        assert b.fill_time() == t  # arrival of the 4th member, not the 5th
        first = b.take()
        assert [r.rid for r in first] == [0, 1, 2, 3]
        assert len(b) == 1 and not b.full
        assert b.flush_at() == t + 0.01

    def test_out_of_order_enqueue_rejected(self):
        b = DynamicBatcher(BatchPolicy(4, 0.01))
        b.enqueue(Request(0, 1.0, 2.0))
        with pytest.raises(ValueError):
            b.enqueue(Request(1, 0.5, 1.5))
        b.enqueue(Request(2, 1.0, 2.0))  # ties are fine


class TestServingCore:
    def cfg(self, **kw):
        kw.setdefault("slo_s", 0.1)
        kw.setdefault("policy", BatchPolicy(4, 0.01))
        return ServeConfig(**kw)

    def test_dispatch_due_none_on_empty(self):
        core = ServingCore(profile(), self.cfg())
        assert core.dispatch_due() is None

    def test_dispatch_due_full_vs_flush(self):
        core = ServingCore(profile(), self.cfg())
        for rid in range(3):
            core.offer(Request(rid, 0.0, 1.0))
        # Partial batch: due at the head's flush deadline.
        assert core.dispatch_due() == pytest.approx(0.01)
        core.offer(Request(3, 0.005, 1.005))
        # Full batch: due the instant the last member arrived.
        assert core.dispatch_due() == pytest.approx(0.005)
        # ...but never before a replica frees up.
        core.start_batch(0.0, 0.02)
        assert core.dispatch_due() == pytest.approx(0.02)

    def test_cut_batch_splits_expired(self):
        core = ServingCore(profile(), self.cfg(slo_s=0.05))
        core.offer(Request(0, 0.0, 0.05))
        core.offer(Request(1, 0.04, 0.09))
        live, expired = core.cut_batch(dispatch_s=0.06)
        assert [r.rid for r in live] == [1]
        assert [o.rid for o in expired] == [0]
        assert expired[0].status == "shed_deadline"
        assert core.shed_counts == {SHED_DEADLINE: 1}

    def test_admission_shed_accounted(self):
        core = ServingCore(profile(), self.cfg(slo_s=0.015))
        # Replica busy far beyond the deadline: cannot possibly make it.
        core.start_batch(0.0, 10.0)
        decision = core.offer(Request(0, 0.0, 0.015))
        assert not decision.admitted
        assert core.n_seen == 1 and core.n_shed == 1
        assert core.shed_counts == {SHED_ADMISSION: 1}
        assert core.queue_depth == 0
        assert core.outcomes[0].status == "shed_admission"

    def test_shed_queue_drains_with_reason(self):
        core = ServingCore(profile(), self.cfg())
        for rid in range(6):
            core.offer(Request(rid, 0.0, 1.0))
        shed = core.shed_queue(SHED_SHUTDOWN)
        assert [o.rid for o in shed] == list(range(6))
        assert core.queue_depth == 0
        assert core.shed_counts == {SHED_SHUTDOWN: 6}

    def test_estimate_while_in_flight_actual_afterwards(self):
        """start-with-estimate → finish-with-actual: admission sees the
        estimate while the batch runs and the actual completion after."""
        core = ServingCore(profile((0.01, 0.01, 0.01)), self.cfg(slo_s=0.05))
        core.offer(Request(0, 0.0, 0.05))
        live, _ = core.cut_batch(0.01)
        replica = core.start_batch(0.01, est_service_s=0.10)
        assert core.free_at == [pytest.approx(0.11)]
        # In flight: the (pessimistic) estimate sheds a request the actual
        # service time would have let through.
        during = core.offer(Request(1, 0.02, 0.07))
        assert not during.admitted and during.est_start_s == pytest.approx(0.11)
        (done,) = core.finish_batch(replica, live, 0.01, service_s=0.005)
        assert core.free_at == [pytest.approx(0.015)]
        assert done.status == "completed" and done.batch == 0
        assert done.latency_s == pytest.approx(0.015) and done.slo_ok
        after = core.offer(Request(2, 0.02, 0.07))
        assert after.admitted and after.est_start_s == pytest.approx(0.02)
        report = core.report()
        assert [o.rid for o in report.outcomes] == [0, 1]  # rid 2 still queued
        assert report.batches[0].service_s == pytest.approx(0.005)
        assert report.duration_s == pytest.approx(0.02)  # last arrival > completion

    def test_fail_batch_sheds_it_and_frees_the_replica(self):
        core = ServingCore(profile(), self.cfg(replicas=2))
        for rid in range(2):
            core.offer(Request(rid, 0.0, 1.0))
        live, _ = core.cut_batch(0.01)
        replica = core.start_batch(0.01, 5.0)
        assert replica == 0
        # Replica 0 is in flight: the next batch must not land on it even
        # though replica 1's free time ties with nothing else idle.
        assert core.start_batch(0.01, 5.0) == 1
        shed = core.fail_batch(replica, live, now_s=0.02)
        assert [o.status for o in shed] == ["shed_error", "shed_error"]
        assert core.free_at[0] == pytest.approx(0.02)
        assert core.shed_counts == {SHED_ERROR: 2}
        assert core.batches == []
        assert core.report().summary()["n_shed_error"] == 2

    def test_refuse_is_seen_and_shed(self):
        core = ServingCore(profile(), self.cfg())
        outcome = core.refuse(Request(5, 0.3, 0.4), SHED_SHUTDOWN)
        assert outcome.status == "shed_shutdown"
        assert core.n_seen == core.n_shed == 1 and core.queue_depth == 0
        assert core.report().duration_s == pytest.approx(0.3)


class TestReportShedReasons:
    def test_shed_by_reason_tolerates_shutdown(self):
        report = ServeReport(
            duration_s=1.0,
            slo_s=0.1,
            outcomes=[
                RequestOutcome(0, 0.0, "shed_admission"),
                RequestOutcome(1, 0.1, "shed_shutdown"),
                RequestOutcome(2, 0.2, "shed_shutdown"),
            ],
            batches=[],
            queue_depths=[],
        )
        shed = report.shed_by_reason()
        assert shed == {"admission": 1, "deadline": 0, "shutdown": 2}
        summary = report.summary()
        assert summary["n_shed_shutdown"] == 2

    def test_sim_summary_has_no_extra_shed_keys(self):
        """Simulator runs never produce non-standard reasons, so their
        summaries keep the exact key set the committed baselines pin."""
        prof = LatencyProfile((1, 8), (0.01, 0.01))
        report = ServeSimulator(prof, ServeConfig(slo_s=0.05)).run([0.0, 0.001, 0.002])
        assert set(k for k in report.summary() if k.startswith("n_shed_")) == {
            "n_shed_admission",
            "n_shed_deadline",
        }


# -- the driver's invariants ----------------------------------------------

gaps = st.lists(st.floats(min_value=0.0, max_value=0.05), min_size=0, max_size=60)
latency_steps = st.tuples(
    st.floats(min_value=0.001, max_value=0.02),
    st.floats(min_value=0.0, max_value=0.02),
    st.floats(min_value=0.0, max_value=0.02),
)


class TestDriverInvariants:
    @given(
        gaps=gaps,
        lat=latency_steps,
        slo=st.floats(min_value=0.005, max_value=0.3),
        max_batch=st.integers(min_value=1, max_value=8),
        max_wait=st.floats(min_value=0.0, max_value=0.03),
        replicas=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_request_accounted_once_and_replicas_never_overlap(
        self, gaps, lat, slo, max_batch, max_wait, replicas
    ):
        arrivals = []
        t = 0.0
        for g in gaps:
            t += g
            arrivals.append(t)
        prof = LatencyProfile(
            batch_sizes=(1, 4, 8),
            latency_s=(lat[0], lat[0] + lat[1], lat[0] + lat[1] + lat[2] + 1e-6),
        )
        config = ServeConfig(
            slo_s=slo, policy=BatchPolicy(max_batch, max_wait), replicas=replicas
        )
        report = ServeSimulator(prof, config).run(arrivals)

        # Exactly one terminal outcome per request, in arrival order.
        assert [o.rid for o in report.outcomes] == list(range(len(arrivals)))
        assert report.n_completed + sum(report.shed_by_reason().values()) == len(arrivals)
        # Completed requests and batch records describe the same work.
        assert report.n_completed == sum(b.size for b in report.batches)
        assert all(1 <= b.size <= max_batch for b in report.batches)

        # Replaying the batch ledger: a batch starts only once its replica
        # is free, rides the replica that freed first, lowest index on ties.
        free_at = [0.0] * replicas
        for b in report.batches:
            assert b.completion_s == b.dispatch_s + b.service_s
            assert b.dispatch_s >= free_at[b.replica]
            assert b.replica == free_at.index(min(free_at))
            free_at[b.replica] = b.completion_s
