"""SLO-aware admission control: deadline-based load shedding.

An overloaded server that admits everything misses *every* deadline (the
queue grows without bound); shedding the requests that cannot possibly
meet their SLO keeps the served ones fast and makes the overload visible
as a shed rate instead of a latency collapse.  The controller estimates
each arriving request's completion time from the queue depth, the
replicas' earliest free time, and the measured per-batch service time,
and rejects it up front when the estimate already misses the deadline.

The estimate is deliberately simple (full batches, FIFO drain) — it is a
*policy*, evaluated against the ground-truth timeline by the simulator's
shed accounting, not an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .batcher import BatchPolicy, Request
from .latency import LatencyProfile

__all__ = [
    "AdmissionDecision",
    "AdmissionController",
    "SHED_ADMISSION",
    "SHED_DEADLINE",
    "SHED_SHUTDOWN",
    "SHED_ERROR",
]

# Shed reasons, used as metric labels and timeline statuses.
SHED_ADMISSION = "admission"  # predicted SLO miss at arrival
SHED_DEADLINE = "deadline"  # expired in the queue before dispatch
SHED_SHUTDOWN = "shutdown"  # queue drained by a gateway graceful shutdown
SHED_ERROR = "error"  # the batch's executor raised; clients get a 500


@dataclass(frozen=True)
class AdmissionDecision:
    admitted: bool
    est_start_s: float
    est_completion_s: float

    @property
    def reason(self) -> str:
        return "ok" if self.admitted else SHED_ADMISSION


class AdmissionController:
    """Deadline-based admission for one replica pool."""

    def __init__(self, profile: LatencyProfile, policy: BatchPolicy):
        self.profile = profile
        self.policy = policy
        # Service estimate: a full batch's measured latency.  Using the
        # throughput-optimal batch would under-estimate the wait whenever
        # the batcher flushes early.
        self._service_s = profile.latency(policy.max_batch_size)

    def assess(
        self, request: Request, queue_len: int, earliest_free_s: float
    ) -> AdmissionDecision:
        """Predict ``request``'s completion given the state at its arrival.

        ``queue_len`` requests drain ahead of it in
        ``ceil(queue_len / max_batch_size)`` full batches; its own batch
        then takes one more service time.
        """
        batches_ahead = math.ceil(queue_len / self.policy.max_batch_size)
        est_start = max(request.arrival_s, earliest_free_s) + batches_ahead * self._service_s
        est_completion = est_start + self._service_s
        return AdmissionDecision(
            admitted=est_completion <= request.deadline_s,
            est_start_s=est_start,
            est_completion_s=est_completion,
        )
