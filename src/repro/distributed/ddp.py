"""Data-parallel training simulator with a per-epoch timeline breakdown.

The simulator executes *real* numerics — each worker's forward/backward on
its own shard, real gradient encoding/decoding, exact averaged updates —
on a single process, while *charging* communication from the α–β cost
model of :mod:`repro.distributed.cost_model`.  Compute, encode and decode
are measured wall-clock (they really run); only the wire time is modeled.
This mirrors how the paper's own analysis separates "computation" from
"communication" in Fig. 4's stacked bars.

Two execution styles:

* :class:`DistributedTrainer` — the paper's prototype implementation:
  gradients flattened into one buffer, a single blocking allreduce per
  iteration (Section 4.1's latency optimization), optional compressor.
* :class:`DDPTimelineModel` — PyTorch-DDP-style bucketed overlap: gradient
  buckets communicate while the backward pass still runs, so the exposed
  communication is ``max(0, comm − backward)`` plus per-bucket latency.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..compression.base import Compressor, NoCompression
from ..nn.module import Module
from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..optim import Optimizer
from .collectives import allreduce_mean, gradient_vector
from .cost_model import (
    ClusterSpec,
    allgather_cost,
    allreduce_cost,
    broadcast_cost,
    bucket_comm_times,
    pipelined_broadcast_cost,
    ring_allreduce_time,
)
from .errors import AllWorkersLostError
from .faults import as_injector
from .overlap import GradientArrivalRecorder, build_buckets, schedule_overlap

__all__ = ["TimelineBreakdown", "DistributedTrainer", "DDPTimelineModel"]

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
    # bytes_moved, macs, ...) when metric collection is enabled.
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

    Parameters
    ----------
    model, optimizer: single authoritative replica (workers share weights —
        exact for synchronous SGD).
    cluster: node count and link parameters — a flat
        :class:`~repro.distributed.cost_model.ClusterSpec` ring or a
        two-level :class:`~repro.distributed.cost_model.HierarchicalSpec`
        (intra-node fast ring + inter-node slow ring); every collective
        charge dispatches on the topology.
    compressor: gradient compressor; default = raw fp32 (vanilla SGD).
    batch_fn: ``(model, batch) -> (loss, metric_sum, count)`` as in
        :class:`repro.core.Trainer`.
    flat_allreduce: pack all tensors into one buffer (Section 4.1).  Only
        meaningful for allreduce-compatible compressors; per-layer calls
        add ``2(p-1)α`` latency per layer.
    faults: optional :class:`~repro.distributed.faults.FaultSpec` (or
        prebuilt injector).  Adds per-worker stragglers, link degradation,
        message drop/retry and whole-worker failure with the spec's
        recovery policy; ``None`` (the default) leaves every code path and
        timing untouched.
    overlap: PyTorch-DDP-style wait-free backprop — size-capped gradient
        buckets allreduce while the backward pass still runs, using each
        parameter's *measured* gradient-arrival time.  Allreduce-compatible
        compressors participate per bucket: each bucket is encoded as soon
        as its gradients arrive, its encode seconds delay that bucket on
        the wire schedule, and the compressed (not raw) bytes are charged
        — the paper's Section 2/6 trade-off made measurable.  Compressors
        whose payloads cannot be summed on a ring (Signum, Top-k, …) must
        wait for the whole gradient and are still rejected.  With the
        default uncompressed path, numerics are bit-identical to the
        monolithic path; only the modeled comm charge changes.
    bucket_mb: bucket size cap in MB (torch DDP's ``bucket_cap_mb``,
        default 25).
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
        self.compressor = compressor or NoCompression(cluster.num_nodes)
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
        # (reverse layer order, contiguous slices of the flat vector).
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
        self,
        nbytes: float,
        n_messages: int,
        degradation: float = 1.0,
        world: int | None = None,
    ) -> float:
        """Wire time for one worker's payload of ``nbytes``."""
        cluster = self.cluster
        if world is not None and world != cluster.world_size:
            cluster = cluster.with_world(world)
        if self.compressor.allreduce_compatible:
            if _metrics.COLLECT:
                _metrics.REGISTRY.counter("allreduce_calls").inc(n_messages)
            per_message = nbytes / max(n_messages, 1)
            return sum(
                allreduce_cost(per_message, cluster, degradation)
                for _ in range(n_messages)
            )
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

    def _overlap_iteration(
        self, batches, active, iteration: int, timeline: TimelineBreakdown
    ) -> None:
        """One iteration with bucketed allreduce overlapping backward.

        Fault-RNG parity with the monolithic path is deliberate: the same
        ``compute_multiplier`` / ``link_factor`` / ``collective_penalty``
        draws happen with the same keys, so a fixed seed produces an
        identical fault event timeline with and without overlap.  Drop
        penalties stall the whole synchronous ring, so they land once per
        iteration as a tail penalty rather than per bucket.
        """
        params = self.optimizer.params
        injector = self.faults
        buckets = self._ensure_buckets()
        world = len(active)

        # --- compute phase: measured backward + per-bucket readiness ---
        worker_flat: list[np.ndarray] = []
        worker_compute: list[float] = []
        worker_ready: list[list[float]] = []
        gather_elapsed = 0.0
        with _trace.span("ddp.compute", iteration=timeline.iterations):
            for w in active:
                self.optimizer.zero_grad()
                with GradientArrivalRecorder(params) as rec:
                    loss, _, _ = self.batch_fn(self.model, batches[w])
                    loss.backward()
                mult = 1.0
                if injector is not None:
                    mult = injector.compute_multiplier(iteration, w)
                worker_compute.append(rec.total * mult)
                arrivals = rec.arrival_times()
                # A bucket is ready when its *last* gradient arrived; a
                # straggler's clock stretches uniformly.
                worker_ready.append(
                    [
                        max(arrivals[i] for i in b.param_indices) * mult
                        for b in buckets
                    ]
                )
                t0 = time.perf_counter()
                worker_flat.append(gradient_vector(params))
                gather_elapsed += time.perf_counter() - t0
        backward_end = max(worker_compute)
        timeline.compute += backward_end
        # Flattening into the wire buffer plays the encode role and runs
        # in parallel across workers, as in the monolithic path.
        timeline.encode += gather_elapsed / len(worker_flat)

        # --- modeled bucket schedule --------------------------------------
        degradation = injector.link_factor(iteration) if injector is not None else 1.0
        cluster = self.cluster
        if world != cluster.world_size:
            cluster = cluster.with_world(world)
        comm_times = bucket_comm_times(
            [b.nbytes for b in buckets], cluster, degradation
        )
        tail = 0.0
        if injector is not None:
            # Same RNG keys as the monolithic allreduce: one draw per ring
            # step per iteration, regardless of bucketing.
            tail = injector.collective_penalty(
                "allreduce", iteration, 2 * max(world - 1, 0)
            )
            tail += injector.drain_penalty()
        ready = [max(wr[j] for wr in worker_ready) for j in range(len(buckets))]
        sched = schedule_overlap(ready, comm_times, backward_end, tail_penalty=tail)
        # Only the exposed (non-hidden) communication reaches the clock.
        timeline.comm += sched.exposed
        nbytes = worker_flat[0].nbytes
        timeline.bytes_per_iteration = nbytes
        if _metrics.COLLECT:
            _metrics.REGISTRY.counter("ddp.wire_bytes").inc(int(nbytes) * world)

        # --- exact numerics: per-bucket mean (bit-exact vs monolithic) ----
        agg = np.empty_like(worker_flat[0])
        t0 = time.perf_counter()
        for b, ev, comm in zip(buckets, sched.events, comm_times):
            with _trace.span(
                "ddp.bucket",
                iteration=timeline.iterations,
                bucket=b.index,
                nbytes=b.nbytes,
                ready_s=ev.ready,
                start_s=ev.start,
                end_s=ev.end,
            ):
                sl = slice(b.offset, b.offset + b.size)
                agg[sl] = allreduce_mean([v[sl] for v in worker_flat])
        timeline.decode += time.perf_counter() - t0

        self.overlap_events.append(
            {
                "iteration": iteration,
                "backward_end_s": backward_end,
                "comm_total_s": sched.comm_total,
                "comm_exposed_s": sched.exposed,
                "tail_penalty_s": tail,
                "buckets": [
                    {**ev.as_dict(), "nbytes": b.nbytes, "comm_s": comm}
                    for b, ev, comm in zip(buckets, sched.events, comm_times)
                ],
            }
        )

        # --- apply ---------------------------------------------------------
        with _trace.span("ddp.step", iteration=timeline.iterations):
            offset = 0
            for p in params:
                size = p.data.size
                p.grad = agg[offset : offset + size].reshape(p.data.shape)
                offset += size
            step_flat = getattr(self.optimizer, "step_flat", None)
            if step_flat is not None:
                step_flat(agg)
            else:
                self.optimizer.step()

    def _compressed_overlap_iteration(
        self, batches, active, iteration: int, timeline: TimelineBreakdown
    ) -> None:
        """One iteration with per-bucket compression inside the overlap.

        Each bucket is encoded as soon as its gradients arrive (the encode
        seconds delay that bucket's wire readiness in the schedule), the
        *compressed* bytes are charged to the α–β model, and each bucket
        is decoded independently — sound because allreduce-compatible
        compressors commute with bucket tiling (the property suite pins
        this).  Fault-RNG parity with the monolithic and uncompressed
        overlap paths is preserved: identical draws with identical keys,
        so a fixed seed yields one fault timeline regardless of
        compression.

        Clock accounting: the schedule's exposure past ``backward_end``
        splits into wire-busy seconds (charged to ``comm``) and
        encode-stall seconds where the channel sat idle waiting for a
        bucket to finish encoding (charged to ``encode``) — so
        ``compute + encode + comm`` still reads as the modeled iteration
        critical path.
        """
        params = self.optimizer.params
        injector = self.faults
        buckets = self._ensure_buckets()
        world = len(active)

        # --- compute phase: measured backward + per-bucket readiness ---
        worker_grads: list[list[np.ndarray]] = []
        worker_compute: list[float] = []
        worker_ready: list[list[float]] = []
        with _trace.span("ddp.compute", iteration=timeline.iterations):
            for w in active:
                self.optimizer.zero_grad()
                with GradientArrivalRecorder(params) as rec:
                    loss, _, _ = self.batch_fn(self.model, batches[w])
                    loss.backward()
                mult = 1.0
                if injector is not None:
                    mult = injector.compute_multiplier(iteration, w)
                worker_compute.append(rec.total * mult)
                arrivals = rec.arrival_times()
                worker_ready.append(
                    [
                        max(arrivals[i] for i in b.param_indices) * mult
                        for b in buckets
                    ]
                )
                worker_grads.append(_take_grads(params))
        backward_end = max(worker_compute)
        timeline.compute += backward_end

        # --- per-bucket encode (workers run in parallel: each bucket's
        # wire readiness waits for its slowest worker's encoder) ---------
        encoded: list[list] = []
        encode_times: list[float] = []
        with _trace.span("ddp.encode", iteration=timeline.iterations):
            for b in buckets:
                per_worker = []
                per_worker_s = []
                for pos, w in enumerate(active):
                    sub = [worker_grads[pos][i] for i in b.param_indices]
                    t0 = time.perf_counter()
                    per_worker.append(
                        self.compressor.encode(
                            w, sub, layer_offset=b.param_indices[0]
                        )
                    )
                    per_worker_s.append(time.perf_counter() - t0)
                encoded.append(per_worker)
                encode_times.append(max(per_worker_s))

        # --- modeled bucket schedule over the compressed bytes -----------
        degradation = injector.link_factor(iteration) if injector is not None else 1.0
        cluster = self.cluster
        if world != cluster.world_size:
            cluster = cluster.with_world(world)
        bucket_nbytes = [max(r.nbytes for r in per_worker) for per_worker in encoded]
        comm_times = bucket_comm_times(bucket_nbytes, cluster, degradation)
        tail = 0.0
        if injector is not None:
            # Same RNG keys as the monolithic allreduce: one draw per ring
            # step per iteration, regardless of bucketing or compression.
            tail = injector.collective_penalty(
                "allreduce", iteration, 2 * max(world - 1, 0)
            )
            tail += injector.drain_penalty()
        ready = [max(wr[j] for wr in worker_ready) for j in range(len(buckets))]
        sched = schedule_overlap(
            ready, comm_times, backward_end, tail_penalty=tail,
            encode_times=encode_times,
        )
        # Split the exposure: seconds the channel was busy past
        # backward_end are wire time; idle seconds (waiting for encode)
        # are the compressor's per-step cost on the critical path.
        wire_busy = sum(
            max(0.0, ev.end - max(ev.start, backward_end)) for ev in sched.events
        )
        last_end = sched.events[-1].end if sched.events else 0.0
        wire_busy += max(0.0, sched.finish - max(last_end, backward_end))
        encode_stall = max(0.0, sched.exposed - wire_busy)
        timeline.comm += wire_busy
        timeline.encode += encode_stall
        nbytes = float(sum(bucket_nbytes))
        timeline.bytes_per_iteration = nbytes
        if _metrics.COLLECT:
            _metrics.REGISTRY.counter("ddp.wire_bytes").inc(int(nbytes) * world)

        # --- exact numerics: per-bucket decode ----------------------------
        agg_layers: list[np.ndarray | None] = [None] * len(params)
        t0 = time.perf_counter()
        for b, per_worker, ev, comm in zip(buckets, encoded, sched.events, comm_times):
            with _trace.span(
                "ddp.bucket",
                iteration=timeline.iterations,
                bucket=b.index,
                nbytes=bucket_nbytes[b.index],
                ready_s=ev.ready,
                start_s=ev.start,
                end_s=ev.end,
            ):
                decoded = self.compressor.decode_aggregate(per_worker)
                for local, param_idx in enumerate(b.param_indices):
                    agg_layers[param_idx] = decoded[local]
        timeline.decode += time.perf_counter() - t0

        self.overlap_events.append(
            {
                "iteration": iteration,
                "backward_end_s": backward_end,
                "comm_total_s": sched.comm_total,
                "comm_exposed_s": wire_busy,
                "encode_stall_s": encode_stall,
                "tail_penalty_s": tail,
                "compressor": self.compressor.name,
                "buckets": [
                    {
                        **ev.as_dict(),
                        "nbytes": nb,
                        "comm_s": comm,
                        "encode_s": enc,
                    }
                    for nb, ev, comm, enc in zip(
                        bucket_nbytes, sched.events, comm_times, encode_times
                    )
                ],
            }
        )

        # --- apply ---------------------------------------------------------
        with _trace.span("ddp.step", iteration=timeline.iterations):
            for p, g in zip(params, agg_layers):
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
        params = self.optimizer.params
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

            if self.overlap:
                if isinstance(self.compressor, NoCompression):
                    self._overlap_iteration(batches, active, iteration, timeline)
                else:
                    self._compressed_overlap_iteration(
                        batches, active, iteration, timeline
                    )
                self.compressor.advance_step()
                timeline.iterations += 1
                self._global_iteration += 1
                continue

            # --- compute phase: each worker's forward/backward ---------
            worker_grads: list[list[np.ndarray]] = []
            worker_compute: list[float] = []
            with _trace.span("ddp.compute", iteration=timeline.iterations):
                for w in active:
                    self.optimizer.zero_grad()
                    t0 = time.perf_counter()
                    loss, _, _ = self.batch_fn(self.model, batches[w])
                    loss.backward()
                    elapsed = time.perf_counter() - t0
                    if injector is not None:
                        # A straggler's iteration takes longer on the
                        # modeled clock; the numerics are unchanged.
                        elapsed *= injector.compute_multiplier(iteration, w)
                    worker_compute.append(elapsed)
                    worker_grads.append(_take_grads(params))
            # Workers run concurrently: the slowest sets the pace.
            timeline.compute += max(worker_compute)

            # --- encode phase ------------------------------------------
            t0 = time.perf_counter()
            with _trace.span("ddp.encode", iteration=timeline.iterations):
                encoded = [
                    self.compressor.encode(w, grads)
                    for w, grads in zip(active, worker_grads)
                ]
            encode_elapsed = time.perf_counter() - t0
            # Encoding also happens in parallel across workers.
            timeline.encode += encode_elapsed / len(worker_grads)

            # --- communication (modeled) -------------------------------
            nbytes = encoded[0].nbytes
            n_messages = 1 if self.flat_allreduce else len(params)
            if injector is None:
                timeline.comm += self._comm_time(nbytes, n_messages)
                world = self.cluster.num_nodes
            else:
                world = len(worker_grads)
                degradation = injector.link_factor(iteration)
                comm = self._comm_time(nbytes, n_messages, degradation, world)
                # Message drops stall the synchronous ring; exhausted
                # retries raise CollectiveTimeoutError out of the epoch.
                op = "allreduce" if self.compressor.allreduce_compatible else "allgather"
                steps = (2 if op == "allreduce" else 1) * max(world - 1, 0)
                comm += injector.collective_penalty(op, iteration, steps)
                comm += injector.drain_penalty()
                timeline.comm += comm
            timeline.bytes_per_iteration = nbytes
            if _metrics.COLLECT:
                # Wire bytes each worker injects per iteration (the modeled
                # payload, as opposed to the in-process bytes counted by the
                # collectives themselves).
                _metrics.REGISTRY.counter("ddp.wire_bytes").inc(
                    int(nbytes) * world
                )

            # --- decode phase -------------------------------------------
            t0 = time.perf_counter()
            with _trace.span("ddp.decode", iteration=timeline.iterations):
                agg = self.compressor.decode_aggregate(encoded)
            timeline.decode += time.perf_counter() - t0

            # --- apply ---------------------------------------------------
            with _trace.span("ddp.step", iteration=timeline.iterations):
                for p, g in zip(params, agg):
                    p.grad = np.ascontiguousarray(g, dtype=np.float32)
                self.optimizer.step()
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


class DDPTimelineModel:
    """PyTorch-DDP-style timing: bucketed allreduce overlapped with backward.

    DDP fires an asynchronous allreduce whenever a gradient bucket
    (default 25 MB) fills during the backward pass, so communication hides
    behind compute.  The exposed (non-overlapped) communication is
    approximately ``max(0, T_comm − T_backward)`` plus one latency term per
    bucket; per-epoch time is then

        ``T_epoch = n_iter · (T_fwd_bwd + exposed_comm + T_step)``.
    """

    def __init__(
        self, cluster: ClusterSpec, bucket_mb: float = 25.0, backward_fraction: float = 2 / 3
    ):
        self.cluster = cluster
        self.bucket_bytes = bucket_mb * 1e6
        # Fraction of fwd+bwd time that is backward (≈ 2/3 for conv nets).
        self.backward_fraction = backward_fraction

    def iteration_time(
        self, model_bytes: float, compute_seconds: float, degradation: float = 1.0
    ) -> dict:
        """Timing for one iteration of a model with ``model_bytes`` of
        gradients and measured per-iteration ``compute_seconds``.

        ``degradation`` scales effective link bandwidth — the knob fault
        scenarios use to model congested links."""
        n_buckets = max(1, math.ceil(model_bytes / self.bucket_bytes))
        comm = sum(
            ring_allreduce_time(
                min(self.bucket_bytes, model_bytes - i * self.bucket_bytes),
                self.cluster,
                degradation,
            )
            for i in range(n_buckets)
        )
        backward = compute_seconds * self.backward_fraction
        exposed = max(0.0, comm - backward)
        return {
            "compute": compute_seconds,
            "comm_raw": comm,
            "comm_exposed": exposed,
            "iteration": compute_seconds + exposed,
            "n_buckets": n_buckets,
        }

    def epoch_time(
        self,
        model_bytes: float,
        compute_seconds: float,
        n_iterations: int,
        degradation: float = 1.0,
    ) -> float:
        return (
            self.iteration_time(model_bytes, compute_seconds, degradation)["iteration"]
            * n_iterations
        )
