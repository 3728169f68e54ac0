"""Clock-agnostic serving core: policy, the replica pool and the ledger.

One object owns everything a serving frontend decides and records —
admit or shed at arrival, when the head batch is due, which queued
requests expired before dispatch, which replica a batch rides, and the
:class:`BatchRecord` / :class:`RequestOutcome` ledger a
:class:`ServeReport` is built from — with **time injected at every
call**.  Nothing in this module reads a clock: the discrete-event
simulator feeds it modeled timestamps, the asyncio gateway feeds it
event-loop timestamps.  Both are thin clock adapters over this one
driver, so there is no second implementation for either to diverge from;
that is what lets the simulator act as the *model* the live gateway is
validated against.

The metric ``namespace`` separates the two callers' series
(``serve.*`` vs ``serve.gateway.*``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..observability import metrics as _metrics
from ..utils import canonical_digest
from .admission import (
    SHED_ADMISSION,
    SHED_DEADLINE,
    SHED_ERROR,
    AdmissionController,
    AdmissionDecision,
)
from .batcher import DynamicBatcher, Request
from .latency import LatencyProfile

__all__ = ["COMPLETED", "BatchRecord", "RequestOutcome", "ServeReport", "ServingCore"]

COMPLETED = "completed"


@dataclass(frozen=True)
class BatchRecord:
    """One dispatched batch on the caller's clock.

    ``index`` is the dispatch order, reserved by ``start_batch``; ``size``
    counts the members the batch served to completion — the dispatch size
    unless the executor failed after some had left — so a report's
    ``n_completed`` is always ``Σ size``.
    """

    index: int
    replica: int
    dispatch_s: float
    size: int
    service_s: float
    completion_s: float

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "replica": self.replica,
            "dispatch_s": round(self.dispatch_s, 9),
            "size": self.size,
            "service_s": round(self.service_s, 9),
            "completion_s": round(self.completion_s, 9),
        }


@dataclass
class _Flight:
    """A batch between ``start_batch`` and ``finish_batch`` / ``fail_batch``."""

    index: int
    dispatch_s: float
    left: int = 0  # members already completed by ``leave_batch``


@dataclass
class RequestOutcome:
    """Final status of one request: served (latency, SLO hit/miss) or shed."""

    rid: int
    arrival_s: float
    status: str  # completed | shed_<reason>
    completion_s: float | None = None
    latency_s: float | None = None
    slo_ok: bool | None = None
    batch: int | None = None

    def as_dict(self) -> dict:
        out = {"rid": self.rid, "arrival_s": round(self.arrival_s, 9), "status": self.status}
        if self.status == COMPLETED:
            out.update(
                completion_s=round(self.completion_s, 9),
                latency_s=round(self.latency_s, 9),
                slo_ok=bool(self.slo_ok),
                batch=self.batch,
            )
        return out


@dataclass
class ServeReport:
    """Everything one serving run produced, with derived SLO accounting."""

    duration_s: float
    slo_s: float
    outcomes: list[RequestOutcome]
    batches: list[BatchRecord]
    queue_depths: list[int]  # sampled at every arrival, post-decision
    replicas: int = 1

    # -- derived --------------------------------------------------------

    @property
    def n_requests(self) -> int:
        return len(self.outcomes)

    @property
    def n_completed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == COMPLETED)

    @property
    def n_shed(self) -> int:
        return self.n_requests - self.n_completed

    def shed_by_reason(self) -> dict[str, int]:
        # The two simulator reasons are always present (baselines key on
        # them); the gateway's extra reasons (shutdown drain, executor
        # error) get counted under their own key rather than raising.
        out = {SHED_ADMISSION: 0, SHED_DEADLINE: 0}
        for o in self.outcomes:
            if o.status != COMPLETED:
                reason = o.status.removeprefix("shed_")
                out[reason] = out.get(reason, 0) + 1
        return out

    @property
    def shed_rate(self) -> float:
        return self.n_shed / self.n_requests if self.n_requests else 0.0

    @property
    def slo_miss_rate(self) -> float:
        """Completed-but-late fraction (shed requests counted separately)."""
        done = self.n_completed
        if not done:
            return 0.0
        return sum(1 for o in self.outcomes if o.status == COMPLETED and not o.slo_ok) / done

    @property
    def goodput_rps(self) -> float:
        """Completed-within-SLO requests per offered second."""
        ok = sum(1 for o in self.outcomes if o.status == COMPLETED and o.slo_ok)
        return ok / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def throughput_rps(self) -> float:
        return self.n_completed / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def busy_s(self) -> float:
        """Total replica-seconds spent inside forward passes."""
        return sum(b.service_s for b in self.batches)

    @property
    def utilization(self) -> float:
        """Busy fraction of the replica pool over the run — the
        autoscaler's scale-down signal (shed rate is its scale-up one)."""
        wall = self.duration_s * self.replicas
        return min(self.busy_s / wall, 1.0) if wall > 0 else 0.0

    def latency_quantile(self, q: float) -> float:
        xs = [o.latency_s for o in self.outcomes if o.status == COMPLETED]
        if not xs:
            return 0.0
        return float(np.quantile(xs, q))

    @property
    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return sum(b.size for b in self.batches) / len(self.batches)

    def summary(self) -> dict:
        shed = self.shed_by_reason()
        out = {
            "duration_s": self.duration_s,
            "slo_ms": round(self.slo_s * 1e3, 6),
            "n_requests": self.n_requests,
            "n_completed": self.n_completed,
            "n_shed_admission": shed[SHED_ADMISSION],
            "n_shed_deadline": shed[SHED_DEADLINE],
        }
        # Extra reasons (shutdown, error) appear only when present, so
        # simulator summaries keep their exact baseline key set.
        for reason in sorted(shed):
            if reason not in (SHED_ADMISSION, SHED_DEADLINE):
                out[f"n_shed_{reason}"] = shed[reason]
        out |= {
            "shed_rate": round(self.shed_rate, 6),
            "slo_miss_rate": round(self.slo_miss_rate, 6),
            "utilization": round(self.utilization, 6),
            "throughput_rps": round(self.throughput_rps, 6),
            "goodput_rps": round(self.goodput_rps, 6),
            "p50_ms": round(self.latency_quantile(0.50) * 1e3, 6),
            "p95_ms": round(self.latency_quantile(0.95) * 1e3, 6),
            "p99_ms": round(self.latency_quantile(0.99) * 1e3, 6),
            "n_batches": len(self.batches),
            "mean_batch_size": round(self.mean_batch_size, 6),
            "queue_depth_max": max(self.queue_depths, default=0),
            "timeline_digest": self.digest(),
        }
        return out

    def timeline(self) -> list[dict]:
        return [o.as_dict() for o in self.outcomes]

    def digest(self) -> str:
        """Stable hash of the full request/batch timeline.

        Two runs are behaviorally identical iff their digests match —
        the CLI prints it and the determinism tests compare it.
        """
        return canonical_digest(
            {"timeline": self.timeline(), "batches": [b.as_dict() for b in self.batches]}
        )


class ServingCore:
    """The serving driver for one replica pool, clock injected.

    A caller owns a clock and the service times; everything else is
    here.  In whatever loop it runs, it calls

    * :meth:`offer` at each request's arrival instant — admission against
      the queue depth and the pool's earliest free time; enqueues on
      admit, records a ``shed_admission`` outcome on reject;
    * :meth:`dispatch_due` to learn when the head batch should leave
      (batch-full: the fill instant; otherwise the oldest request's
      deadline flush), lower-bounded by the pool's earliest free time;
    * :meth:`cut_batch` at the dispatch instant — pops the head batch and
      splits off requests whose deadline already passed
      (``shed_deadline`` outcomes);
    * :meth:`start_batch` with its service *estimate* — claims the idle
      replica that freed first (lowest index on ties), reserves the
      batch's index and marks the replica busy until the estimate, which
      is what admission sees meanwhile;
    * :meth:`leave_batch`, any number of times, for members whose own last
      step is done while others compute on — their completed outcomes at
      that instant, under the reserved index (the simulator's one-step
      batches never call it);
    * :meth:`finish_batch` with the *actual* service time — records the
      :class:`BatchRecord` and the completed outcomes of the members
      still aboard — or :meth:`fail_batch` when the executor raised
      (``shed_error`` for those still aboard);
    * :meth:`shed_queue` / :meth:`refuse` on shutdown, so nothing
      disappears silently;
    * :meth:`report` for the run so far.

    ``config`` is a :class:`~repro.serve.simulator.ServeConfig` (duck-typed:
    anything with ``slo_s``, ``policy`` and ``replicas``).
    """

    def __init__(self, profile: LatencyProfile, config, pool: str = "pool0",
                 namespace: str = "serve"):
        self.profile = profile
        self.config = config
        self.pool = pool
        self.namespace = namespace
        self.admission = AdmissionController(profile, config.policy)
        self.batcher = DynamicBatcher(config.policy)
        # Per-replica free time: the estimate while a batch is in flight,
        # the actual completion afterwards.
        self.free_at = [0.0] * config.replicas
        self._in_flight: dict[int, _Flight] = {}
        self._n_started = 0
        # rid -> outcome in arrival order; None while the request is
        # still queued or in flight.
        self.outcomes: dict[int, RequestOutcome | None] = {}
        self.batches: list[BatchRecord] = []
        self.queue_depths: list[int] = []
        self.n_seen = 0
        self.n_shed = 0
        self.shed_counts: dict[str, int] = {}
        self.busy_s = 0.0
        self.last_completion_s = 0.0
        self._last_arrival_s = 0.0

    # -- metric plumbing ------------------------------------------------

    def _counter(self, name: str):
        return _metrics.REGISTRY.counter(f"{self.namespace}.{name}")

    def _histogram(self, name: str):
        return _metrics.REGISTRY.histogram(f"{self.namespace}.{name}")

    def shed_gauge(self):
        """The live per-pool shed-rate gauge (the autoscaler's signal)."""
        return _metrics.REGISTRY.gauge(f"{self.namespace}.pool.shed_rate").labels(
            pool=self.pool
        )

    def _update_shed_gauge(self) -> None:
        if _metrics.COLLECT and self.n_seen:
            self.shed_gauge().set(self.n_shed / self.n_seen)

    # -- the ledger -----------------------------------------------------

    def _arrive(self, request: Request) -> None:
        self.n_seen += 1
        self.outcomes[request.rid] = None  # holds the arrival-order slot
        self._last_arrival_s = request.arrival_s
        if _metrics.COLLECT:
            self._counter("requests").inc()

    def _shed(self, request: Request, reason: str) -> RequestOutcome:
        outcome = RequestOutcome(request.rid, request.arrival_s, f"shed_{reason}")
        self.outcomes[request.rid] = outcome
        self.n_shed += 1
        self.shed_counts[reason] = self.shed_counts.get(reason, 0) + 1
        if _metrics.COLLECT:
            self._counter("shed").labels(reason=reason).inc()
        self._update_shed_gauge()
        return outcome

    def _release(self, replica: int, free_s: float) -> _Flight:
        self.free_at[replica] = free_s
        return self._in_flight.pop(replica)

    def _complete(self, members: list[Request], now_s: float, batch: int) -> list[RequestOutcome]:
        done = [
            RequestOutcome(
                req.rid,
                req.arrival_s,
                COMPLETED,
                completion_s=now_s,
                latency_s=now_s - req.arrival_s,
                slo_ok=now_s <= req.deadline_s,
                batch=batch,
            )
            for req in members
        ]
        for outcome in done:
            self.outcomes[outcome.rid] = outcome
        self.last_completion_s = max(self.last_completion_s, now_s)
        if _metrics.COLLECT:
            self._counter("completed").inc(len(done))
            latency_ms = self._histogram("latency_ms")
            for outcome in done:
                latency_ms.observe(outcome.latency_s * 1e3)
        return done

    def _record(
        self, index: int, replica: int, dispatch_s: float, size: int, service_s: float
    ) -> None:
        self.batches.append(
            BatchRecord(index, replica, dispatch_s, size, service_s, dispatch_s + service_s)
        )
        self.busy_s += service_s
        if _metrics.COLLECT:
            self._counter("batches").inc()
            self._histogram("batch_size").observe(size)

    # -- policy surface -------------------------------------------------

    def __len__(self) -> int:
        return len(self.batcher)

    @property
    def queue_depth(self) -> int:
        return len(self.batcher)

    def offer(self, request: Request) -> AdmissionDecision:
        """Admission at ``request``'s arrival instant.

        Enqueues on admit; records the ``shed_admission`` outcome on
        reject.  Either way the post-decision queue depth is sampled.
        """
        depth = len(self.batcher)
        decision = self.admission.assess(request, depth, min(self.free_at))
        self._arrive(request)
        if _metrics.COLLECT:
            self._histogram("queue_depth").observe(depth)
        if decision.admitted:
            self.batcher.enqueue(request)
            if _metrics.COLLECT:
                self._counter("admitted").inc()
            self._update_shed_gauge()
        else:
            self._shed(request, SHED_ADMISSION)
        self.queue_depths.append(len(self.batcher))
        return decision

    def refuse(self, request: Request, reason: str) -> RequestOutcome:
        """An arrival turned away without an admission decision (the
        gateway mid-drain): seen, shed with ``reason``, never queued."""
        self._arrive(request)
        return self._shed(request, reason)

    def dispatch_due(self) -> float | None:
        """When the head batch should dispatch, or ``None`` on empty queue.

        A full head batch is due the instant its last member arrived; a
        partial one at the oldest request's ``max_wait_s`` flush.  Either
        way a batch cannot leave before a replica is free, so the result
        is lower-bounded by the pool's earliest free time.
        """
        if not len(self.batcher):
            return None
        due = self.batcher.fill_time() if self.batcher.full else self.batcher.flush_at()
        return max(min(self.free_at), due)

    def cut_batch(self, dispatch_s: float) -> tuple[list[Request], list[RequestOutcome]]:
        """Pop the head batch at ``dispatch_s`` → ``(live, expired)``.

        Requests whose deadline passed while queued come back as their
        ``shed_deadline`` outcomes so the caller can fail their futures.
        """
        live: list[Request] = []
        expired: list[RequestOutcome] = []
        for req in self.batcher.take():
            if req.deadline_s < dispatch_s:
                expired.append(self._shed(req, SHED_DEADLINE))
            else:
                live.append(req)
        return live, expired

    def start_batch(self, dispatch_s: float, est_service_s: float) -> int:
        """Claim a replica for a batch leaving at ``dispatch_s``.

        Picks the idle replica that freed first, lowest index on ties,
        and marks it busy until ``dispatch_s + est_service_s`` — the free
        time admission sees while the batch is in flight.  The batch's
        index is reserved here, in dispatch order, so a member that leaves
        before the batch ends can already name it.
        """
        idle = [r for r in range(len(self.free_at)) if r not in self._in_flight]
        replica = min(idle, key=self.free_at.__getitem__)
        self._in_flight[replica] = _Flight(self._n_started, dispatch_s)
        self._n_started += 1
        self.free_at[replica] = dispatch_s + est_service_s
        return replica

    def leave_batch(
        self, replica: int, leavers: list[Request], now_s: float
    ) -> list[RequestOutcome]:
        """``leavers`` had their last step at ``now_s`` while the batch on
        ``replica`` computes on for the others: their completed outcomes,
        at their own instant.  The replica stays busy."""
        flight = self._in_flight[replica]
        flight.left += len(leavers)
        return self._complete(leavers, now_s, flight.index)

    def finish_batch(
        self, replica: int, live: list[Request], dispatch_s: float, service_s: float
    ) -> list[RequestOutcome]:
        """The batch on ``replica`` took ``service_s``: free the replica
        at the actual completion, record the batch (at its dispatch size)
        and the outcomes of the members still aboard."""
        completion = dispatch_s + service_s
        flight = self._release(replica, completion)
        self._record(flight.index, replica, dispatch_s, flight.left + len(live), service_s)
        return self._complete(live, completion, flight.index)

    def fail_batch(
        self, replica: int, live: list[Request], now_s: float
    ) -> list[RequestOutcome]:
        """The executor raised: free ``replica`` at ``now_s`` and shed the
        members still aboard as ``shed_error``.  Members that had left keep
        their outcome, and the :class:`BatchRecord` they name counts only
        them; a batch that served nobody leaves no record."""
        flight = self._release(replica, now_s)
        if flight.left:
            self._record(
                flight.index, replica, flight.dispatch_s, flight.left,
                now_s - flight.dispatch_s,
            )
        return [self._shed(req, SHED_ERROR) for req in live]

    def shed_queue(self, reason: str) -> list[RequestOutcome]:
        """Drain the whole queue, shedding every request with ``reason``
        (graceful-shutdown accounting: nothing disappears silently)."""
        shed: list[RequestOutcome] = []
        while len(self.batcher):
            shed.extend(self._shed(req, reason) for req in self.batcher.take())
        return shed

    def report(self, duration_s: float | None = None) -> ServeReport:
        """The run so far.  ``duration_s`` normalizes throughput; it
        defaults to the later of the last arrival and the last completion."""
        if duration_s is None:
            duration_s = max(self.last_completion_s, self._last_arrival_s)
        return ServeReport(
            duration_s=float(duration_s),
            slo_s=self.config.slo_s,
            outcomes=[o for o in self.outcomes.values() if o is not None],
            # Recorded in finish order, reported in dispatch order.
            batches=sorted(self.batches, key=lambda b: b.index),
            queue_depths=list(self.queue_depths),
            replicas=self.config.replicas,
        )
