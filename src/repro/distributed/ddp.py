"""Data-parallel training simulator with a per-epoch timeline breakdown.

The simulator executes *real* numerics — each worker's forward/backward on
its own shard, real gradient encoding/decoding, exact averaged updates —
on a single process, while *charging* communication from the α–β cost
model of :mod:`repro.distributed.cost_model`.  Compute, encode and decode
are measured wall-clock (they really run); only the wire time is modeled.
This mirrors how the paper's own analysis separates "computation" from
"communication" in Fig. 4's stacked bars.

:class:`DistributedTrainer` runs every iteration through the same five
phases, whatever the compressor, optimizer, topology or fault spec:

1. **compute** — each active worker's forward/backward, timed; its
   gradients are moved out of the shared replica without a copy;
2. **encode** — ``compressor.encode`` per worker per gradient *group*: the
   overlap buckets, or one group holding every parameter when blocking
   (:class:`~repro.compression.NoCompression` is a compressor like any
   other — its payload is the gradient list itself);
3. **charge** — the encoded bytes go on the modeled clock, the one place
   ``overlap`` is read: blocking sends the whole payload after backward
   (Section 4.1's single flat allreduce); overlap schedules one allreduce
   per bucket on a serial channel as its gradients arrive and its encoder
   finishes, and only the exposed remainder reaches the clock; fault drops
   and link degradation are drawn and charged here too;
4. **decode** — ``compressor.decode_aggregate`` per group, giving one
   averaged gradient per parameter;
5. **apply** — ``p.grad = …`` and one optimizer step.

The numerics never look at ``overlap``, so parameters are bit-identical
with and without it for every compressor whose encoding commutes with
bucket tiling — which the compression property suite requires of every
allreduce-compatible one.  This schedule is the repo's one model of DDP
timing: Fig. 4c reads its speedups from ``train_epoch`` too.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from ..compression.base import Compressor, NoCompression
from ..nn.module import Module
from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..optim import Optimizer
from .cost_model import (
    ClusterSpec,
    allgather_cost,
    broadcast_cost,
    bucket_comm_times,
    pipelined_broadcast_cost,
)
from .errors import AllWorkersLostError
from .faults import as_injector
from .overlap import GradientArrivalRecorder, build_buckets, schedule_overlap

__all__ = ["TimelineBreakdown", "DistributedTrainer"]

FLOAT32_BYTES = 4


def _take_grads(params) -> list[np.ndarray]:
    """Move one worker's gradients out of the shared replica.

    Each ``p.grad`` is exclusively its parameter's (the engine's ownership
    contract), so unbinding it hands the array to the worker's list with no
    copy, and the next worker's backward allocates its own.
    """
    grads = []
    for p in params:
        grads.append(p.grad if p.grad is not None else np.zeros_like(p.data))
        p.grad = None
    return grads


@dataclass
class TimelineBreakdown:
    """Accumulated per-phase seconds for one epoch (Fig. 4 bars)."""

    compute: float = 0.0
    encode: float = 0.0
    comm: float = 0.0
    decode: float = 0.0
    other: float = 0.0
    iterations: int = 0
    bytes_per_iteration: float = 0.0
    # Counter deltas accumulated over the epoch (allreduce_calls,
    # ddp.wire_bytes, macs, ...) when metric collection is enabled.
    metrics: dict = field(default_factory=dict)
    # Fault-injection summary (empty when no injector was attached, so the
    # no-faults breakdown is unchanged).
    faults: dict = field(default_factory=dict)
    # Bucketed-overlap summary (empty unless the trainer ran with
    # ``overlap=True``): raw vs exposed comm seconds, overlap_fraction,
    # bucket count/cap.
    overlap: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.compute + self.encode + self.comm + self.decode + self.other

    def as_dict(self) -> dict:
        out = {
            "compute": self.compute,
            "encode": self.encode,
            "comm": self.comm,
            "decode": self.decode,
            "other": self.other,
            "total": self.total,
        }
        if self.metrics:
            out["metrics"] = dict(self.metrics)
        if self.faults:
            out["faults"] = dict(self.faults)
        if self.overlap:
            out["overlap"] = dict(self.overlap)
        return out


class DistributedTrainer:
    """Synchronous data-parallel SGD over a simulated cluster.

    One iteration is :meth:`_iteration` (the module docstring's five
    phases); the arguments parameterize those phases, none selects another
    code path.

    Parameters
    ----------
    model, optimizer: single authoritative replica (workers share weights —
        exact for synchronous SGD).
    cluster: node count and link parameters — a flat
        :class:`~repro.distributed.cost_model.ClusterSpec` ring or a
        two-level :class:`~repro.distributed.cost_model.HierarchicalSpec`;
        every collective charge dispatches on the topology.
    compressor: gradient compressor; default = raw fp32 (vanilla SGD).
    batch_fn: ``(model, batch) -> (loss, metric_sum, count)`` as in
        :class:`repro.core.Trainer`.
    flat_allreduce: when blocking, pack all tensors into one message
        (Section 4.1); per-layer messages add ``2(p-1)α`` latency each.
        Only meaningful for allreduce-compatible compressors.
    faults: optional :class:`~repro.distributed.faults.FaultSpec` (or
        prebuilt injector): per-worker stragglers, link degradation, message
        drop/retry, worker failure with the spec's recovery policy.  Draws
        are keyed on iteration and worker / ring step only, so a seed's
        event timeline does not depend on ``overlap`` or the compressor.
    overlap: PyTorch-DDP-style wait-free backprop — size-capped buckets,
        each encoded once its last gradient arrived (*measured* arrival
        times) and allreduced while backward still runs; its encode seconds
        delay it on the wire schedule and its compressed bytes are charged
        (the paper's Section 2/6 trade-off, measurable).  Compressors whose
        payloads cannot be summed on a ring (Signum, Top-k, …) need the
        whole gradient and are rejected.
    bucket_mb: bucket size cap in MB (torch DDP's ``bucket_cap_mb``).
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        cluster: ClusterSpec,
        compressor: Compressor | None = None,
        batch_fn=None,
        loss_fn=None,
        flat_allreduce: bool = True,
        faults=None,
        overlap: bool = False,
        bucket_mb: float = 25.0,
    ):
        from ..core.trainer import classification_batch
        from ..nn import CrossEntropyLoss

        self.model = model
        self.optimizer = optimizer
        self.cluster = cluster
        self.compressor = compressor or NoCompression(cluster.world_size)
        self.loss_fn = loss_fn or CrossEntropyLoss()
        self.batch_fn = batch_fn or (
            lambda m, b: classification_batch(m, b, self.loss_fn)
        )
        self.flat_allreduce = flat_allreduce
        self.overlap = bool(overlap)
        self.bucket_bytes = float(bucket_mb) * 1e6
        if self.overlap and not self.compressor.allreduce_compatible:
            raise ValueError(
                "overlap=True requires an allreduce-compatible compressor: "
                "payloads that cannot be summed on a ring (sign/top-k/"
                "sampled encodings) allgather the whole gradient at once, "
                "so their communication cannot overlap the backward pass"
            )
        # Buckets are built lazily from the optimizer's parameter list
        # (reverse layer order).
        self._buckets = None
        # Per-iteration modeled bucket timelines (appended across epochs).
        self.overlap_events: list[dict] = []
        self.faults = as_injector(faults)
        # Workers currently in the ring (shrink-mode failures leave
        # permanently; rejoin-mode failures miss one iteration).
        self._active: list[int] = list(range(cluster.world_size))
        self._rejoining: list[int] = []
        self._global_iteration = 0

    # ------------------------------------------------------------------

    def _comm_time(
        self, nbytes: float, n_messages: int, cluster, degradation: float = 1.0
    ) -> float:
        """Wire time for one worker's payload of ``nbytes`` on ``cluster``."""
        if self.compressor.allreduce_compatible:
            if _metrics.COLLECT:
                _metrics.REGISTRY.counter("allreduce_calls").inc(n_messages)
            messages = [nbytes / n_messages] * n_messages
            return sum(bucket_comm_times(messages, cluster, degradation))
        if _metrics.COLLECT:
            _metrics.REGISTRY.counter("allgather_calls").inc()
        return allgather_cost(nbytes, cluster, degradation)

    def _model_bytes(self) -> float:
        return sum(p.data.size for p in self.optimizer.params) * FLOAT32_BYTES

    def _apply_failures(self, iteration: int, timeline: TimelineBreakdown) -> None:
        """Draw worker failures for this iteration and charge recovery."""
        injector = self.faults
        spec = injector.spec.failure
        # Rejoin-mode workers that failed last iteration come back first.
        if self._rejoining:
            self._active = sorted(self._active + self._rejoining)
            self._rejoining = []
        for w in list(self._active):
            if not injector.worker_failed(iteration, w):
                continue
            self._active.remove(w)
            if spec.recovery == "rejoin":
                # The ring stalls while the worker reloads the checkpoint
                # and receives the current model.  With overlap enabled the
                # state transfer reuses the bucket tiling and pipelines the
                # tiles down the broadcast tree, instead of paying the
                # monolithic store-and-forward cost at every tree level.
                if self.overlap:
                    wire = pipelined_broadcast_cost(
                        [b.nbytes for b in self._ensure_buckets()], self.cluster
                    )
                else:
                    wire = broadcast_cost(self._model_bytes(), self.cluster)
                recovery = spec.recovery_s + wire
                timeline.other += recovery
                injector.record_recovery(iteration, w, recovery)
                self._rejoining.append(w)
        if not self._active:
            raise AllWorkersLostError(iteration)

    def _ensure_buckets(self):
        if self._buckets is None:
            self._buckets = build_buckets(
                [p.data.size for p in self.optimizer.params], self.bucket_bytes
            )
        return self._buckets

    def _charge(
        self,
        iteration: int,
        timeline: TimelineBreakdown,
        world: int,
        group_nbytes: list[int],
        encode_times: list[float],
        ready: list[float],
        backward_end: float,
    ) -> list[dict]:
        """Put one iteration's encode and wire seconds on the modeled clock.

        The only method that reads ``overlap`` for timing.  The fault draws
        come first and do not: one ``link_factor`` and one
        ``collective_penalty`` over the collective's ring steps, so a seed
        yields one fault timeline whatever the bucketing or compressor.
        Drops stall the whole synchronous ring (exhausted retries raise
        ``CollectiveTimeoutError``), so under overlap they land after the
        last bucket.  Returns each group's ``ddp.bucket`` span attributes.
        """
        injector = self.faults
        cluster = self.cluster
        if world != cluster.world_size:
            cluster = cluster.with_world(world)
        degradation, drops = 1.0, 0.0
        if injector is not None:
            allreduce = self.compressor.allreduce_compatible
            degradation = injector.link_factor(iteration)
            drops = injector.collective_penalty(
                "allreduce" if allreduce else "allgather",
                iteration,
                (2 if allreduce else 1) * max(world - 1, 0),
            )

        if not self.overlap:
            # Blocking: the whole payload leaves after the slowest encoder.
            n_messages = 1 if self.flat_allreduce else len(self.optimizer.params)
            comm = self._comm_time(sum(group_nbytes), n_messages, cluster, degradation)
            timeline.comm += comm + drops
            timeline.encode += sum(encode_times)
            return [{} for _ in group_nbytes]

        # Overlap: a bucket is wire-ready ``encode`` seconds after its last
        # gradient arrived, and the buckets share one serial channel.
        comm_times = bucket_comm_times(group_nbytes, cluster, degradation)
        sched = schedule_overlap(
            ready, comm_times, backward_end, tail_penalty=drops, encode_times=encode_times
        )
        # Split the exposure past backward_end: seconds the channel was busy
        # are wire time; idle seconds (waiting for an encoder) are the
        # compressor's per-step cost on the critical path — so
        # ``compute + encode + comm`` still reads as the modeled iteration.
        wire_busy = sum(max(0.0, ev.end - max(ev.start, backward_end)) for ev in sched.events)
        wire_busy += max(0.0, sched.finish - max(sched.events[-1].end, backward_end))
        encode_stall = max(0.0, sched.exposed - wire_busy)
        timeline.comm += wire_busy
        timeline.encode += encode_stall
        self.overlap_events.append(
            {
                "iteration": iteration,
                "backward_end_s": backward_end,
                "comm_total_s": sched.comm_total,
                "comm_exposed_s": wire_busy,
                "encode_stall_s": encode_stall,
                "tail_penalty_s": drops,
                "compressor": self.compressor.name,
                "buckets": [
                    {**ev.as_dict(), "nbytes": nb, "comm_s": comm, "encode_s": enc}
                    for nb, ev, comm, enc in zip(
                        group_nbytes, sched.events, comm_times, encode_times
                    )
                ],
            }
        )
        return [{"ready_s": ev.ready, "start_s": ev.start, "end_s": ev.end} for ev in sched.events]

    def _iteration(self, batches, active, iteration: int, timeline: TimelineBreakdown) -> None:
        """One synchronous step: compute → encode → charge → decode → apply.

        ``groups`` are the tuples of parameter indices that travel together.
        Each is encoded per worker and decoded on its own, so nothing here
        but :meth:`_charge` knows whether ``overlap`` is on.
        """
        params = self.optimizer.params
        injector = self.faults
        step = timeline.iterations
        if self.overlap:
            groups = [b.param_indices for b in self._ensure_buckets()]
        else:
            groups = [tuple(range(len(params)))]

        # --- compute: each worker's measured forward/backward --------------
        worker_grads: list[list[np.ndarray]] = []
        worker_compute: list[float] = []
        worker_ready: list[list[float]] = []
        with _trace.span("ddp.compute", iteration=step):
            for w in active:
                self.optimizer.zero_grad()
                recorder = GradientArrivalRecorder(params) if self.overlap else None
                t0 = time.perf_counter()
                with recorder or nullcontext():
                    loss, _, _ = self.batch_fn(self.model, batches[w])
                    loss.backward()
                elapsed = time.perf_counter() - t0
                # A straggler's clock stretches uniformly; the numerics are
                # unchanged.
                mult = 1.0
                if injector is not None:
                    mult = injector.compute_multiplier(iteration, w)
                worker_compute.append(elapsed * mult)
                # A group is ready when its *last* gradient arrived; unrecorded,
                # the whole gradient arrives when backward ends.
                arrivals = recorder.arrival_times() if recorder else [elapsed] * len(params)
                worker_ready.append([max(arrivals[i] for i in g) * mult for g in groups])
                worker_grads.append(_take_grads(params))
        # Workers run concurrently: the slowest sets the pace.
        backward_end = max(worker_compute)
        timeline.compute += backward_end

        # --- encode: per group, per worker (workers encode in parallel, so a
        # group's payload waits for its slowest worker's encoder) ------------
        encoded: list[list] = []
        encode_times: list[float] = []
        with _trace.span("ddp.encode", iteration=step):
            for g in groups:
                per_worker, per_worker_s = [], []
                for w, grads in zip(active, worker_grads):
                    sub = [grads[i] for i in g]
                    t0 = time.perf_counter()
                    per_worker.append(self.compressor.encode(w, sub, layer_offset=g[0]))
                    per_worker_s.append(time.perf_counter() - t0)
                encoded.append(per_worker)
                encode_times.append(max(per_worker_s))

        # --- charge: the encoded bytes go on the modeled clock -------------
        world = len(active)
        group_nbytes = [max(r.nbytes for r in per_worker) for per_worker in encoded]
        ready = [max(col) for col in zip(*worker_ready)]
        schedule = self._charge(
            iteration, timeline, world, group_nbytes, encode_times, ready, backward_end
        )
        nbytes = sum(group_nbytes)
        timeline.bytes_per_iteration = float(nbytes)
        if _metrics.COLLECT:
            # Wire bytes every active rank injects this iteration (the modeled
            # payload, not the in-process bytes the collectives count).
            _metrics.REGISTRY.counter("ddp.wire_bytes").inc(int(nbytes) * world)

        # --- decode: exact numerics, one group at a time -------------------
        agg: list[np.ndarray | None] = [None] * len(params)
        t0 = time.perf_counter()
        with _trace.span("ddp.decode", iteration=step):
            for j, (g, per_worker) in enumerate(zip(groups, encoded)):
                with _trace.span(
                    "ddp.bucket", iteration=step, bucket=j, nbytes=group_nbytes[j], **schedule[j]
                ):
                    decoded = self.compressor.decode_aggregate(per_worker)
                for i, d in zip(g, decoded):
                    agg[i] = d
        timeline.decode += time.perf_counter() - t0

        # --- apply -----------------------------------------------------------
        with _trace.span("ddp.step", iteration=step):
            for p, g in zip(params, agg):
                p.grad = np.ascontiguousarray(g, dtype=np.float32)
            self.optimizer.step()

    def train_epoch(self, worker_loaders: list) -> TimelineBreakdown:
        """One synchronized epoch over per-worker shard loaders.

        All loaders must yield the same number of batches; each yields that
        worker's micro-batch for the iteration.
        """
        if len(worker_loaders) != self.cluster.world_size:
            raise ValueError("need one loader per rank")
        timeline = TimelineBreakdown()
        self.model.train()
        injector = self.faults
        counters_before = _metrics.REGISTRY.counters() if _metrics.COLLECT else None
        epoch_events_start = len(self.overlap_events)

        for batches in zip(*[iter(dl) for dl in worker_loaders]):
            iteration = self._global_iteration
            if injector is not None:
                self._apply_failures(iteration, timeline)
                active: list[int] | range = list(self._active)
            else:
                active = range(len(batches))

            self._iteration(batches, active, iteration, timeline)
            self.compressor.advance_step()
            timeline.iterations += 1
            self._global_iteration += 1

        if self.overlap and timeline.iterations:
            events = self.overlap_events[epoch_events_start:]
            comm_total = sum(e["comm_total_s"] for e in events)
            exposed = sum(e["comm_exposed_s"] for e in events)
            fraction = 1.0 if comm_total <= 0 else (comm_total - exposed) / comm_total
            timeline.overlap = {
                "n_buckets": len(self._buckets),
                "bucket_bytes": self.bucket_bytes,
                "comm_total_s": comm_total,
                "comm_exposed_s": exposed,
                "comm_hidden_s": comm_total - exposed,
                "overlap_fraction": fraction,
            }
            if _metrics.COLLECT:
                _metrics.REGISTRY.gauge("ddp.overlap_fraction").set(fraction)
                _metrics.REGISTRY.gauge("ddp.n_buckets").set(float(len(self._buckets)))
        if counters_before is not None:
            timeline.metrics = _metrics.diff_counters(
                _metrics.REGISTRY.counters(), counters_before
            )
            # Per-epoch comm/compute split for the observability registry
            # (the ROADMAP's "next consumer" of the metrics layer).
            _metrics.REGISTRY.histogram("ddp.epoch_compute_s").observe(timeline.compute)
            _metrics.REGISTRY.histogram("ddp.epoch_comm_s").observe(timeline.comm)
            if timeline.total > 0:
                _metrics.REGISTRY.gauge("ddp.comm_fraction").set(
                    timeline.comm / timeline.total
                )
        if injector is not None and injector.spec.active:
            timeline.faults = injector.summary()
        return timeline

    def evaluate(self, loader) -> tuple[float, float]:
        """Convenience eval on a single loader (loss, accuracy-style metric)."""
        from ..core.trainer import Trainer

        t = Trainer(self.model, self.optimizer, batch_fn=self.batch_fn, loss_fn=self.loss_fn)
        return t.evaluate(loader)
