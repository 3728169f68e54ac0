"""The one serving driver: clock-agnostic core, batcher edges, ledger invariants.

The simulator and the live gateway are both clock adapters over
:class:`ServingCore`, so there is no second driver to compare against;
what used to be a sim-vs-replay parity property is stated directly as
invariants of the one driver — a Hypothesis property drives random
traces through it and checks the ledger it leaves behind.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability as obs
from repro.gateway import ProfileExecutor
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


def drawn_setup(lat, slo, max_batch, max_wait, replicas):
    """A non-decreasing latency profile and a config from drawn values."""
    prof = LatencyProfile(
        batch_sizes=(1, 4, 8),
        latency_s=(lat[0], lat[0] + lat[1], lat[0] + lat[1] + lat[2] + 1e-6),
    )
    config = ServeConfig(
        slo_s=slo, policy=BatchPolicy(max_batch, max_wait), replicas=replicas
    )
    return prof, config


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
        prof, config = drawn_setup(lat, slo, max_batch, max_wait, replicas)
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


# -- step-level batch membership --------------------------------------------

# ServeSimulator digests of the three pinned scenarios below, recorded at the
# commit before members could leave a batch early.
PARENT_DIGESTS = ["3f32dab1a180e314", "0ad56f043ef428f5", "cc1c44d20bf327d7"]


def drive_stepwise(prof, config, arrivals, steps, fail_at):
    """A modeled-clock twin of ``GatewayServer._run_batch``: request ``i``
    asks for ``steps[i]`` steps and leaves its batch after its own last one;
    batch ``k`` (in dispatch order) raises at step ``fail_at[k]`` if that is
    not ``None``.  Returns ``(core, returned, cuts)``: every outcome a core
    call handed back, and per dispatched batch ``(dispatch_s, replica, rids)``.
    """
    core = ServingCore(prof, config)
    requests = [Request(i, t, t + config.slo_s) for i, t in enumerate(arrivals)]
    returned, cuts, flights = [], [], {}
    now, i = 0.0, 0
    while i < len(requests) or len(core) or flights:
        t_step, replica = min(
            ((f["dispatch_s"] + f["service_s"], r) for r, f in flights.items()),
            default=(math.inf, None),
        )
        t_arrival = requests[i].arrival_s if i < len(requests) else math.inf
        t_dispatch = math.inf
        if len(core) and len(flights) < config.replicas:  # an idle worker
            t_dispatch = max(core.dispatch_due(), now)
        if t_step <= min(t_arrival, t_dispatch):
            now, f = t_step, flights[replica]
            aboard = f["aboard"]
            if f["fail_at"] == f["step"]:
                returned += core.fail_batch(replica, aboard, now)
                del flights[replica]
                continue
            f["step"] += 1
            staying = [r for r in aboard if steps[r.rid] > f["step"]]
            if not staying:
                returned += core.finish_batch(replica, aboard, f["dispatch_s"], f["service_s"])
                del flights[replica]
                continue
            if len(staying) < len(aboard):
                leavers = [r for r in aboard if steps[r.rid] == f["step"]]
                returned += core.leave_batch(replica, leavers, now)
                f["aboard"] = staying
            f["service_s"] += prof.latency(len(staying))
        elif t_arrival < t_dispatch:
            now = t_arrival
            if not core.offer(requests[i]).admitted:
                returned.append(core.outcomes[i])
            i += 1
        else:
            now = t_dispatch
            live, expired = core.cut_batch(now)
            returned += expired
            if not live:
                continue
            estimate = ProfileExecutor(prof).estimate([steps[r.rid] for r in live])
            replica = core.start_batch(now, estimate)
            flights[replica] = {
                "aboard": live,
                "dispatch_s": now,
                "service_s": prof.latency(len(live)),
                "step": 0,
                "fail_at": fail_at[len(cuts) % len(fail_at)],
            }
            cuts.append((now, replica, [r.rid for r in live]))
    return core, returned, cuts


class TestStepLevelLedger:
    @given(
        gaps=gaps,
        lat=latency_steps,
        slo=st.floats(min_value=0.02, max_value=0.5),
        max_batch=st.integers(min_value=1, max_value=6),
        max_wait=st.floats(min_value=0.0, max_value=0.03),
        replicas=st.integers(min_value=1, max_value=3),
        steps=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=12),
        fail_at=st.lists(
            st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_leave_finish_fail_keep_the_ledger_whole(
        self, gaps, lat, slo, max_batch, max_wait, replicas, steps, fail_at
    ):
        arrivals = list(itertools.accumulate(gaps))
        steps = [steps[i % len(steps)] for i in range(len(arrivals))]
        prof, config = drawn_setup(lat, slo, max_batch, max_wait, replicas)
        core, returned, cuts = drive_stepwise(prof, config, arrivals, steps, fail_at)
        report = core.report()

        # Exactly one terminal outcome per request: in the ledger, and
        # handed back by exactly one core call.
        assert [o.rid for o in report.outcomes] == list(range(len(arrivals)))
        assert sorted(o.rid for o in returned) == list(range(len(arrivals)))
        assert all(core.outcomes[o.rid] is o for o in returned)
        assert not core._in_flight

        # Indices are the dispatch order, and every completed outcome names
        # the record of the dispatch that cut it.
        by_index = {b.index: b for b in report.batches}
        assert len(by_index) == len(report.batches)
        assert [b.index for b in report.batches] == sorted(by_index)
        cut_of = {rid: k for k, (_, _, rids) in enumerate(cuts) for rid in rids}
        for o in report.outcomes:
            if o.status != "completed":
                assert o.status in ("shed_admission", "shed_deadline", "shed_error")
                continue
            batch = by_index[o.batch]
            dispatch_s, replica, _ = cuts[cut_of[o.rid]]
            assert o.batch == cut_of[o.rid]
            assert (batch.dispatch_s, batch.replica) == (dispatch_s, replica)
            assert dispatch_s <= o.completion_s <= batch.completion_s
            assert o.latency_s == o.completion_s - o.arrival_s

        # Records count exactly the requests they served; an unfailed batch
        # keeps its dispatch size however early its members left.
        assert report.n_completed == sum(b.size for b in report.batches)
        failed = {o.rid for o in report.outcomes if o.status == "shed_error"}
        for k, (_, _, rids) in enumerate(cuts):
            if k in by_index:
                assert by_index[k].size == len(set(rids) - failed) >= 1
            else:
                assert set(rids) <= failed  # served nobody: no record

        # Replicas never overlap, failed batches included: a batch starts
        # only once the one before it on that replica is over.
        last_end = [0.0] * replicas
        for k, (dispatch_s, replica, rids) in enumerate(cuts):
            assert dispatch_s >= last_end[replica] - 1e-12
            ends = [core.outcomes[rid].completion_s or 0.0 for rid in rids]
            last_end[replica] = max([dispatch_s, *ends])
            if k in by_index:
                assert by_index[k].completion_s == by_index[k].dispatch_s + by_index[k].service_s
                last_end[replica] = max(last_end[replica], by_index[k].completion_s)

    @given(
        gaps=gaps,
        lat=latency_steps,
        slo=st.floats(min_value=0.005, max_value=0.3),
        max_batch=st.integers(min_value=1, max_value=8),
        max_wait=st.floats(min_value=0.0, max_value=0.03),
        replicas=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_step_requests_reduce_to_the_simulator(
        self, gaps, lat, slo, max_batch, max_wait, replicas
    ):
        """With nobody to leave early the step-level calls are the
        simulator's start/finish pair: same ledger, digest for digest."""
        arrivals = list(itertools.accumulate(gaps))
        prof, config = drawn_setup(lat, slo, max_batch, max_wait, replicas)
        core, _, _ = drive_stepwise(prof, config, arrivals, [1] * len(arrivals), [None])
        sim = ServeSimulator(prof, config).run(arrivals)
        assert core.report().digest() == sim.digest()
        assert core.report().summary() == sim.summary()

    def test_simulator_digests_are_the_ones_before_step_level_membership(self):
        """Pinned at the parent commit: reserving the index in
        ``start_batch`` and completing through ``leave_batch``'s helper
        moved no byte of a one-step timeline."""
        rng = np.random.default_rng(5)
        arrivals = np.cumsum(rng.exponential(1 / 900.0, size=600)).tolist()
        prof = profile((0.004, 0.007, 0.011))
        digests = [
            ServeSimulator(
                prof, ServeConfig(slo_s=slo, policy=BatchPolicy(b, w), replicas=r)
            ).run(arrivals).digest()
            for slo, b, w, r in ((0.05, 4, 0.005, 1), (0.03, 8, 0.002, 2), (0.02, 3, 0.0, 3))
        ]
        assert digests == PARENT_DIGESTS
