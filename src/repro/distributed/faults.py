"""Seeded fault injection for the distributed simulator.

The simulator's cost models assume a perfect cluster; real EC2 runs (the
paper's testbed) see stragglers, transient link degradation, dropped
messages and whole-worker failures.  This module adds those as a
composable, *deterministic* layer:

* :class:`FaultSpec` — declarative description of the failure scenario
  (straggler distribution, link degradation, drop/timeout/retry, worker
  failure + recovery policy), parseable from a compact CLI string or JSON
  via :func:`parse_fault_spec`.
* :class:`FaultInjector` — the stateful runtime: every injected event is
  drawn from an RNG keyed on ``(seed, event kind, iteration, entity)``, so
  a given seed produces the *same* faults regardless of query order, world
  size of unrelated draws, or how many epochs ran before.  Two runs with
  the same seed yield byte-identical event timelines.

Every event lands in the injector's event log and — when metric
collection is on — in the :mod:`repro.observability` registry under
``faults.injected``, ``faults.retries``, ``faults.backoff_ms`` and the
``faults.recovery_time`` histogram.  With no spec attached the simulator
takes its pre-existing code paths untouched (zero-overhead off path).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from ..observability import metrics as _metrics
from .errors import CollectiveTimeoutError, FaultSpecError

__all__ = [
    "StragglerSpec",
    "LinkSpec",
    "DropSpec",
    "FailureSpec",
    "FaultSpec",
    "FaultEvent",
    "FaultInjector",
    "parse_fault_spec",
    "as_injector",
]

STRAGGLER_KINDS = ("none", "constant", "lognormal", "heavytail")
RECOVERY_POLICIES = ("rejoin", "shrink")

# Stable event-kind ids mixed into the RNG key.  Appending new kinds is
# fine; renumbering existing ones would silently change every seeded
# scenario, so never reorder.
_KIND_IDS = {"straggler": 1, "link": 2, "drop": 3, "failure": 4}


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StragglerSpec:
    """Per-worker compute slowdown.

    ``kind`` picks the multiplier distribution applied to a straggling
    worker's measured compute time for one iteration:

    * ``constant``  — ``1 + scale``
    * ``lognormal`` — ``1 + scale · LogNormal(0, sigma)``
    * ``heavytail`` — ``1 + scale · Pareto(sigma)`` (``sigma`` = shape α)

    ``prob`` is the per worker-iteration probability of straggling.
    """

    kind: str = "none"
    prob: float = 0.0
    scale: float = 1.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in STRAGGLER_KINDS:
            raise FaultSpecError(f"unknown straggler kind {self.kind!r}")
        if not 0.0 <= self.prob <= 1.0:
            raise FaultSpecError("straggler prob must be in [0, 1]")
        if self.scale < 0 or self.sigma <= 0:
            raise FaultSpecError("straggler scale must be >= 0 and sigma > 0")


@dataclass(frozen=True)
class LinkSpec:
    """Transient link degradation episodes.

    Each iteration independently starts an episode with probability
    ``prob``; while any episode started in the last ``duration`` iterations
    is live, every link runs at ``factor`` of nominal bandwidth.
    """

    prob: float = 0.0
    factor: float = 0.25
    duration: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise FaultSpecError("link prob must be in [0, 1]")
        if not 0.0 < self.factor <= 1.0:
            raise FaultSpecError("link factor must be in (0, 1]")
        if self.duration < 1:
            raise FaultSpecError("link duration must be >= 1 iteration")


@dataclass(frozen=True)
class DropSpec:
    """Message drop/timeout with retry + exponential backoff.

    Each logical message independently drops with probability ``prob``;
    a dropped message costs ``timeout_s`` (the sender waits it out), then
    a backoff of ``backoff_base_s · backoff_multiplier**attempt`` before
    resending.  After ``max_retries`` failed resends the collective raises
    :class:`~repro.distributed.errors.CollectiveTimeoutError`.
    """

    prob: float = 0.0
    max_retries: int = 3
    timeout_s: float = 0.05
    backoff_base_s: float = 0.01
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise FaultSpecError("drop prob must be in [0, 1]")
        if self.max_retries < 0:
            raise FaultSpecError("max_retries must be >= 0")
        if self.timeout_s < 0 or self.backoff_base_s < 0:
            raise FaultSpecError("timeout/backoff must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise FaultSpecError("backoff_multiplier must be >= 1")


@dataclass(frozen=True)
class FailureSpec:
    """Whole-worker failure with a configurable recovery policy.

    * ``rejoin`` — the worker misses the failing iteration, then rejoins
      from a checkpoint: the run is charged ``recovery_s`` of downtime plus
      one model broadcast.
    * ``shrink`` — the worker leaves permanently; the ring shrinks and the
      remaining workers carry on (smaller world size, fewer shards).
    """

    prob: float = 0.0
    recovery: str = "rejoin"
    recovery_s: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise FaultSpecError("failure prob must be in [0, 1]")
        if self.recovery not in RECOVERY_POLICIES:
            raise FaultSpecError(
                f"unknown recovery policy {self.recovery!r} "
                f"(expected one of {RECOVERY_POLICIES})"
            )
        if self.recovery_s < 0:
            raise FaultSpecError("recovery_s must be >= 0")


@dataclass(frozen=True)
class FaultSpec:
    """Complete failure scenario: seed + the four fault dimensions."""

    seed: int = 0
    straggler: StragglerSpec = field(default_factory=StragglerSpec)
    link: LinkSpec = field(default_factory=LinkSpec)
    drop: DropSpec = field(default_factory=DropSpec)
    failure: FailureSpec = field(default_factory=FailureSpec)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise FaultSpecError("seed must be >= 0")

    @property
    def active(self) -> bool:
        """True if any fault dimension can actually fire."""
        return (
            (self.straggler.kind != "none" and self.straggler.prob > 0)
            or self.link.prob > 0
            or self.drop.prob > 0
            or self.failure.prob > 0
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FaultSpec":
        d = dict(d)
        unknown = set(d) - {"seed", "straggler", "link", "drop", "failure"}
        if unknown:
            raise FaultSpecError(f"unknown fault spec keys: {sorted(unknown)}")
        try:
            return cls(
                seed=int(d.get("seed", 0)),
                straggler=StragglerSpec(**d.get("straggler", {})),
                link=LinkSpec(**d.get("link", {})),
                drop=DropSpec(**d.get("drop", {})),
                failure=FailureSpec(**d.get("failure", {})),
            )
        except TypeError as e:  # unexpected field inside a section
            raise FaultSpecError(str(e)) from e


# ---------------------------------------------------------------------------
# Compact CLI grammar
# ---------------------------------------------------------------------------

# repro simulate --faults "seed=42,straggler=lognormal:0.2:1.5,drop=0.01,
#                          link=0.05:0.25:3,failure=0.002:shrink"
# Colon-separated positional fields per key; trailing fields optional.


def _floats(parts: list[str], n: int, what: str) -> list[float]:
    if len(parts) > n:
        raise FaultSpecError(f"too many fields for {what!r}: {parts}")
    try:
        return [float(p) for p in parts]
    except ValueError as e:
        raise FaultSpecError(f"bad numeric field in {what!r}: {parts}") from e


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse a fault spec from JSON (inline, or a ``.json`` file path) or
    the compact ``key=value[:field...]`` comma grammar described in
    ``docs/FAULTS.md``."""
    text = text.strip()
    if not text:
        raise FaultSpecError("empty fault spec")
    if text.startswith("{"):
        return FaultSpec.from_dict(json.loads(text))
    if text.endswith(".json") or os.path.exists(text):
        with open(text) as f:
            return FaultSpec.from_dict(json.load(f))

    out: dict = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise FaultSpecError(f"expected key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        fields = [v.strip() for v in value.split(":")]
        if key == "seed":
            try:
                out["seed"] = int(fields[0])
            except ValueError as e:
                raise FaultSpecError(f"bad seed {value!r}") from e
        elif key == "straggler":
            kind = fields[0]
            nums = _floats(fields[1:], 3, "straggler")
            spec = {"kind": kind}
            for name, v in zip(("prob", "scale", "sigma"), nums):
                spec[name] = v
            if kind != "none" and "prob" not in spec:
                spec["prob"] = 1.0  # bare "straggler=constant" always fires
            out["straggler"] = spec
        elif key == "drop":
            nums = _floats(fields[:1], 1, "drop")
            spec = {"prob": nums[0]}
            if len(fields) > 1:
                try:
                    spec["max_retries"] = int(fields[1])
                except ValueError as e:
                    raise FaultSpecError(f"bad max_retries {fields[1]!r}") from e
            for name, v in zip(
                ("timeout_s", "backoff_base_s"), _floats(fields[2:], 2, "drop")
            ):
                spec[name] = v
            out["drop"] = spec
        elif key == "link":
            nums = _floats(fields, 3, "link")
            spec = {"prob": nums[0]}
            if len(nums) > 1:
                spec["factor"] = nums[1]
            if len(nums) > 2:
                spec["duration"] = int(nums[2])
            out["link"] = spec
        elif key == "failure":
            nums = _floats(fields[:1], 1, "failure")
            spec = {"prob": nums[0]}
            if len(fields) > 1:
                spec["recovery"] = fields[1]
            if len(fields) > 2:
                spec["recovery_s"] = _floats(fields[2:3], 1, "failure")[0]
            out["failure"] = spec
        else:
            raise FaultSpecError(f"unknown fault spec key {key!r}")
    return FaultSpec.from_dict(out)


# ---------------------------------------------------------------------------
# Runtime
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, in modeled (not wall-clock) units."""

    kind: str  # straggler | link | drop | failure | recovery | timeout
    iteration: int
    entity: int  # worker id, link id, or message index (-1 = cluster-wide)
    value: float  # multiplier, factor, backoff seconds, recovery seconds...
    attrs: tuple = ()  # extra (key, value) pairs, hashable & deterministic

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "iteration": self.iteration,
            "entity": self.entity,
            "value": self.value,
            **dict(self.attrs),
        }


class FaultInjector:
    """Draws faults from a :class:`FaultSpec`, fully determined by the seed.

    Every decision uses a fresh generator keyed on
    ``(seed, kind, iteration, entity[, attempt])`` — counter-based rather
    than sequential — so results do not depend on how many *other* draws
    happened first.  The event log therefore replays byte-identically for
    a fixed seed, whatever the caller's query pattern.
    """

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self.events: list[FaultEvent] = []
        self._link_cache: dict[int, float] = {}

    # -- plumbing -------------------------------------------------------

    def _rng(self, kind: str, *key: int) -> np.random.Generator:
        return np.random.default_rng((self.spec.seed, _KIND_IDS[kind], *key))

    def _record(self, event: FaultEvent) -> None:
        self.events.append(event)
        if _metrics.COLLECT:
            _metrics.REGISTRY.counter("faults.injected").labels(
                kind=event.kind
            ).inc()

    def timeline(self) -> list[dict]:
        """The full event log as JSON-serializable dicts (stable order)."""
        return [e.as_dict() for e in self.events]

    # -- stragglers -----------------------------------------------------

    def compute_multiplier(self, iteration: int, worker: int) -> float:
        """Slowdown factor (>= 1) for one worker's compute this iteration."""
        s = self.spec.straggler
        if s.kind == "none" or s.prob <= 0.0:
            return 1.0
        rng = self._rng("straggler", iteration, worker)
        if rng.random() >= s.prob:
            return 1.0
        if s.kind == "constant":
            mult = 1.0 + s.scale
        elif s.kind == "lognormal":
            mult = 1.0 + s.scale * rng.lognormal(0.0, s.sigma)
        else:  # heavytail
            mult = 1.0 + s.scale * rng.pareto(s.sigma)
        self._record(FaultEvent("straggler", iteration, worker, mult))
        return mult

    # -- link degradation -----------------------------------------------

    def link_factor(self, iteration: int) -> float:
        """Bandwidth multiplier (<= 1) in effect for this iteration."""
        cached = self._link_cache.get(iteration)
        if cached is not None:
            return cached
        spec = self.spec.link
        factor = 1.0
        if spec.prob > 0.0:
            lo = max(0, iteration - spec.duration + 1)
            degraded = any(
                self._rng("link", j).random() < spec.prob
                for j in range(lo, iteration + 1)
            )
            if degraded:
                factor = spec.factor
                self._record(FaultEvent("link", iteration, -1, factor))
        self._link_cache[iteration] = factor
        return factor

    # -- message drop / retry / backoff ---------------------------------

    def message_penalty(self, op: str, iteration: int, index: int) -> float:
        """Modeled extra seconds for one logical message's drops + backoff.

        Raises :class:`CollectiveTimeoutError` once ``max_retries`` resends
        have all dropped.
        """
        d = self.spec.drop
        if d.prob <= 0.0:
            return 0.0
        penalty = 0.0
        op_id = sum(op.encode())  # stable small int per op name
        for attempt in range(d.max_retries + 1):
            rng = self._rng("drop", iteration, index, attempt, op_id)
            if rng.random() >= d.prob:
                return penalty
            backoff = d.backoff_base_s * d.backoff_multiplier**attempt
            penalty += d.timeout_s + backoff
            self._record(
                FaultEvent(
                    "drop",
                    iteration,
                    index,
                    backoff,
                    attrs=(("op", op), ("attempt", attempt)),
                )
            )
            if _metrics.COLLECT:
                _metrics.REGISTRY.counter("faults.retries").inc()
                _metrics.REGISTRY.counter("faults.backoff_ms").inc(
                    backoff * 1e3
                )
        attempts = d.max_retries + 1
        self._record(
            FaultEvent(
                "timeout", iteration, index, penalty, attrs=(("op", op),)
            )
        )
        raise CollectiveTimeoutError(op, iteration, attempts, penalty)

    def collective_penalty(
        self, op: str, iteration: int, n_messages: int
    ) -> float:
        """Summed drop/retry penalty over a collective's logical messages."""
        return sum(
            self.message_penalty(op, iteration, i) for i in range(n_messages)
        )

    # -- worker failure / recovery --------------------------------------

    def worker_failed(self, iteration: int, worker: int) -> bool:
        f = self.spec.failure
        if f.prob <= 0.0:
            return False
        failed = self._rng("failure", iteration, worker).random() < f.prob
        if failed:
            self._record(
                FaultEvent(
                    "failure",
                    iteration,
                    worker,
                    1.0,
                    attrs=(("recovery", f.recovery),),
                )
            )
        return failed

    def record_recovery(self, iteration: int, worker: int, seconds: float) -> None:
        """Log a completed recovery and its modeled cost."""
        self._record(
            FaultEvent(
                "recovery",
                iteration,
                worker,
                seconds,
                attrs=(("policy", self.spec.failure.recovery),),
            )
        )
        if _metrics.COLLECT:
            _metrics.REGISTRY.histogram("faults.recovery_time").observe(seconds)

    # -- summary ---------------------------------------------------------

    def summary(self) -> dict:
        """Aggregate event counts + modeled seconds, for CLI/benchmark output."""
        by_kind: dict[str, int] = {}
        backoff_s = 0.0
        recovery_s = 0.0
        for e in self.events:
            by_kind[e.kind] = by_kind.get(e.kind, 0) + 1
            if e.kind == "drop":
                backoff_s += e.value
            elif e.kind == "recovery":
                recovery_s += e.value
        return {
            "events": len(self.events),
            "by_kind": by_kind,
            "retries": by_kind.get("drop", 0),
            "backoff_s": backoff_s,
            "recovery_s": recovery_s,
        }


def as_injector(faults) -> FaultInjector | None:
    """Coerce ``None`` / :class:`FaultSpec` / :class:`FaultInjector`."""
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultSpec):
        return FaultInjector(faults)
    if isinstance(faults, dict):
        return FaultInjector(FaultSpec.from_dict(faults))
    raise FaultSpecError(f"cannot build a fault injector from {type(faults).__name__}")
