"""Seeded multi-phase load scenarios, windowed for the control loop.

A scenario is a piecewise-constant offered-load schedule (e.g. 250 rps
for 60 s, spike to 450 rps for 60 s, back down) sliced into fixed
evaluation windows.  Each window's arrivals come from the serving load
generator with a window-derived seed, so the whole timeline is a pure
function of ``(scenario seed, phases, window_s)`` — the same counter-keyed
discipline as :mod:`repro.serve.loadgen` and the fault injector, extended
one level up: window ``w``'s draws never depend on how many windows ran
before it or on what any pool did with them.

Multi-pool runs (canary rollouts) split each window's stream by traffic
fraction with a seeded routing draw per window, so shifting 5% → 25% of
traffic to a canary pool is itself deterministic and replayable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..serve.loadgen import PROCESSES, ArrivalSpec, generate_arrivals
from ..utils import derive_seed
from .errors import ClusterConfigError

__all__ = ["LoadPhase", "ClusterScenario", "parse_phases", "route_arrivals"]

# Kind ids for repro.utils.derive_seed (repro.lifecycle.pipeline owns 21-22);
# renumbering one would change every seeded scenario.
_KIND_WINDOW = 11
_KIND_ROUTE = 12


@dataclass(frozen=True)
class LoadPhase:
    """One constant-rate segment of the schedule."""

    duration_s: float
    rate_rps: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ClusterConfigError("phase duration_s must be positive")
        if self.rate_rps <= 0:
            raise ClusterConfigError("phase rate_rps must be positive")


@dataclass(frozen=True)
class ClusterScenario:
    """A windowed, seeded offered-load schedule for the control loop.

    A ``"bursty"`` process uses :class:`ArrivalSpec`'s default burst shape.
    """

    phases: tuple[LoadPhase, ...]
    window_s: float = 10.0
    process: str = "poisson"
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.phases:
            raise ClusterConfigError("scenario needs at least one phase")
        if self.window_s <= 0:
            raise ClusterConfigError("window_s must be positive")
        if self.process not in PROCESSES:
            raise ClusterConfigError(f"unknown arrival process {self.process!r}")

    @property
    def duration_s(self) -> float:
        return sum(p.duration_s for p in self.phases)

    @property
    def n_windows(self) -> int:
        return int(math.ceil(self.duration_s / self.window_s))

    def rate_at(self, t: float) -> float:
        """Offered rate at modeled time ``t`` (last phase rate past the end)."""
        elapsed = 0.0
        for phase in self.phases:
            elapsed += phase.duration_s
            if t < elapsed:
                return phase.rate_rps
        return self.phases[-1].rate_rps

    def window_bounds(self, w: int) -> tuple[float, float]:
        start = w * self.window_s
        return start, min(start + self.window_s, self.duration_s)

    def window_arrivals(self, w: int) -> np.ndarray:
        """Sorted absolute arrival times for evaluation window ``w``.

        The window's rate is the schedule rate at its start (phases are
        normally multiples of ``window_s``, making this exact).  The
        derived seed keys on ``(scenario seed, window)`` only, so two
        pools replaying the same scenario see identical streams.
        """
        if not 0 <= w < self.n_windows:
            raise ClusterConfigError(f"window {w} outside [0, {self.n_windows})")
        start, end = self.window_bounds(w)
        spec = ArrivalSpec(
            rate_rps=self.rate_at(start),
            duration_s=end - start,
            process=self.process,
            seed=derive_seed(self.seed, _KIND_WINDOW, w),
        )
        return start + generate_arrivals(spec)


def route_arrivals(
    arrivals: np.ndarray,
    fractions: dict[str, float],
    seed: int,
    window: int,
) -> dict[str, np.ndarray]:
    """Split one window's arrivals across pools by traffic fraction.

    Every request draws one uniform from a ``(seed, window)``-keyed
    generator and lands in the pool whose cumulative-fraction bucket it
    falls into — deterministic, order-preserving within each pool.
    Fractions must sum to 1 (every request is somebody's problem).
    """
    if not fractions:
        raise ClusterConfigError("route_arrivals needs at least one pool")
    total = sum(fractions.values())
    if any(f < 0 for f in fractions.values()) or not math.isclose(
        total, 1.0, rel_tol=0, abs_tol=1e-9
    ):
        raise ClusterConfigError(f"traffic fractions must be >= 0 and sum to 1, got {total}")
    names = sorted(fractions)
    edges = np.cumsum([fractions[n] for n in names])
    rng = np.random.default_rng((derive_seed(seed, _KIND_ROUTE, window),))
    draws = rng.random(len(arrivals))
    buckets = np.searchsorted(edges, draws, side="right")
    buckets = np.minimum(buckets, len(names) - 1)  # guard the u == 1.0 edge
    return {name: arrivals[buckets == i] for i, name in enumerate(names)}


def parse_phases(spec: str) -> tuple[LoadPhase, ...]:
    """Parse the CLI phase grammar ``RATExDURATION[,...]``.

    Example: ``"250x60,450x60,250x60"`` — 250 rps for 60 s, 450 for 60,
    back to 250 for 60.
    """
    phases: list[LoadPhase] = []
    for i, part in enumerate(s.strip() for s in spec.split(",")):
        if not part:
            raise ClusterConfigError(f"empty phase at position {i} in {spec!r}")
        rate, sep, duration = part.partition("x")
        if not sep:
            raise ClusterConfigError(
                f"bad phase {part!r} (expected RATExDURATION, e.g. 250x60)"
            )
        try:
            phases.append(LoadPhase(duration_s=float(duration), rate_rps=float(rate)))
        except ValueError as e:
            raise ClusterConfigError(f"bad phase {part!r}: {e}") from e
    return tuple(phases)
