"""Simulated data-parallel workloads: ``ddp_factorized`` and ``ddp_powersgd``.

One operation is one ``DistributedTrainer.train_epoch`` call on 4 simulated
workers with bucketed comm/compute overlap.  ``ddp_factorized`` is
Pufferfish's own path (small pre-factorized model, plain allreduce);
``ddp_powersgd`` is the paper's head-to-head baseline (full-rank model,
per-bucket PowerSGD encode/decode).  Compute, encode and decode really run;
only the wire time is modeled, so wall time here is the simulator's own cost
and ``modeled_iter_ms`` is the figure the paper's Fig. 4 reports.
"""

from __future__ import annotations

import copy
import time

import numpy as np
from repro.compression import make_compressor
from repro.core import build_hybrid
from repro.data import DataLoader, make_cifar_like, shard_dataset
from repro.distributed import (
    ClusterSpec,
    DistributedTrainer,
    GradientArrivalRecorder,
    bucketed_allreduce_mean,
    build_buckets,
)
from repro.models import MLP, mlp_hybrid_config
from repro.nn import CrossEntropyLoss
from repro.optim import FusedSGD
from repro.tensor import Tensor, graph_nodes_created
from repro.utils import set_seed

import benchspec
from e2e_common import (
    OpLog,
    common_end_to_end,
    digest_arrays,
    forward_self_ms,
    median_call_ms,
    ms,
    quantile,
    scaled,
    sum_check,
    wrap_method,
    wrap_modules,
)

WORLD = 4
BATCH = 32
BUCKET_MB = 0.25
NUM_CLASSES = 4
IDENTITY_ITERATIONS = 3
MICRO_REPEATS = 10


class _SpanLoader:
    """Iterates a loader, recording the time each batch takes to produce."""

    def __init__(self, loader, tracer):
        self.loader, self.tracer = loader, tracer

    def __iter__(self):
        it = iter(self.loader)
        while True:
            with self.tracer.span("data.batch"):
                try:
                    batch = next(it)
                except StopIteration:
                    return
            yield batch


class DdpWorkload:
    name = ""
    iterations_per_op = 1
    factorized = False
    compressor_rank: int | None = None

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.micro_repeats = scaled(MICRO_REPEATS, scale)
        self.warmup_ops = scaled(benchspec.OPS[self.name]["warmup"], scale)
        self.loss_fn = CrossEntropyLoss()

    # -- set-up ---------------------------------------------------------------

    def _make_trainer(self, model, overlap: bool = True) -> DistributedTrainer:
        compressor = None
        if self.compressor_rank is not None:
            compressor = make_compressor("powersgd", WORLD, rank=self.compressor_rank)
        opt = FusedSGD(list(model.parameters()), lr=0.01, momentum=0.9)
        return DistributedTrainer(
            model, opt, ClusterSpec(WORLD, 10.0), compressor=compressor,
            loss_fn=self.loss_fn, overlap=overlap, bucket_mb=BUCKET_MB,
        )

    def _loaders(self, iterations: int) -> list[DataLoader]:
        shards = shard_dataset(self.images, self.labels, WORLD)
        n = iterations * BATCH
        return [DataLoader(x[:n], y[:n], BATCH) for x, y in shards]

    def setup(self) -> None:
        ds = make_cifar_like(
            n=WORLD * BATCH * max(self.iterations_per_op, IDENTITY_ITERATIONS),
            num_classes=NUM_CLASSES,
            rng=np.random.default_rng(self.seed),
        )
        self.images, self.labels = ds.images, ds.labels
        self.inputs_digest = digest_arrays(self.images, self.labels)
        set_seed(benchspec.MODEL_SEED)
        model = MLP(3072, [512, 512, 256], NUM_CLASSES)
        self.vanilla_params = model.num_parameters()
        self.report = None
        if self.factorized:
            model, self.report = build_hybrid(model, mlp_hybrid_config())
        self.init_model = copy.deepcopy(model)
        self.trainer = self._make_trainer(model)
        self.loaders = self._loaders(self.iterations_per_op)
        self.op_index = 0
        warm = self.run_ops(self.warmup_ops)
        self.warm_op_s = quantile(warm.op_s, 0.5) * self.iterations_per_op
        # Reference point for the "loss fell" check; outside the timed window.
        self.loss_before = self.trainer.evaluate(self.loaders[0])[0]

    def teardown(self) -> None:
        pass

    # -- the timed window -----------------------------------------------------

    def run_ops(self, n: int, tracer=None) -> OpLog:
        trainer, loaders = self.trainer, self.loaders
        undo = []
        if tracer is not None:
            opt = trainer.optimizer
            loaders = [_SpanLoader(dl, tracer) for dl in loaders]
            undo = [
                wrap_modules(trainer.model, tracer),
                wrap_method(self.loss_fn, "forward", tracer, "nn.loss"),
                wrap_method(opt, "zero_grad", tracer, "optim.zero_grad"),
                wrap_method(opt, "step", tracer, "optim.step"),
                wrap_method(opt, "step_flat", tracer, "optim.step"),
            ]
        log = OpLog(attempted=n)
        timelines, errors = [], []
        nodes_before = graph_nodes_created()
        wall_start = time.perf_counter()
        try:
            for _ in range(n):
                i = self.op_index
                self.op_index += 1
                t0 = time.perf_counter()
                try:
                    if tracer is not None:
                        with tracer.span("distributed.train_epoch", op=i):
                            timeline = trainer.train_epoch(loaders)
                    else:
                        timeline = trainer.train_epoch(loaders)
                except Exception as e:  # one broken call must not hide the rest
                    errors.append(f"call {i}: {type(e).__name__}: {e}")
                    continue
                elapsed = time.perf_counter() - t0
                if timeline.iterations == self.iterations_per_op and np.isfinite(timeline.total):
                    log.op_s.append(elapsed / self.iterations_per_op)
                    timelines.append(timeline)
                else:
                    errors.append(f"call {i}: {timeline.iterations} iterations, "
                                  f"modeled total {timeline.total}")
            log.wall_s = time.perf_counter() - wall_start
        finally:
            for u in undo:
                u()
        log.failed = n - len(log.op_s)
        log.samples = WORLD * BATCH * self.iterations_per_op * len(log.op_s)
        log.extra = {
            "timelines": timelines,
            "errors": errors[:5],
            "graph_nodes": graph_nodes_created() - nodes_before,
        }
        return log

    def end_to_end(self, log: OpLog) -> dict[str, float]:
        timelines = log.extra["timelines"]
        out = common_end_to_end(log)
        out["modeled_iter_ms"] = ms(
            sum(t.total for t in timelines) / sum(t.iterations for t in timelines)
        )
        return out

    # -- correctness ----------------------------------------------------------

    def _first_iterations(self, overlap: bool):
        trainer = self._make_trainer(copy.deepcopy(self.init_model), overlap=overlap)
        timeline = trainer.train_epoch(self._loaders(IDENTITY_ITERATIONS))
        params = np.concatenate([p.data.ravel() for p in trainer.model.parameters()])
        return timeline, params

    def check(self, log: OpLog) -> list[str]:
        problems = list(log.extra["errors"])
        if not log.extra["timelines"]:
            return problems + ["no train_epoch call succeeded"]
        model = self.trainer.model
        if not all(np.isfinite(p.data).all() for p in model.parameters()):
            problems.append("parameters are not finite after the timed window")
        loss_after = self.trainer.evaluate(self.loaders[0])[0]
        if not loss_after < self.loss_before:
            problems.append(f"loss did not fall: {self.loss_before} -> {loss_after}")
        raw_bytes = 4 * model.num_parameters()
        wire_bytes = log.extra["timelines"][-1].bytes_per_iteration
        if self.factorized:
            if model.num_parameters() != self.report.params_after or (
                model.num_parameters() >= self.vanilla_params
            ):
                problems.append("factorized parameter count disagrees with the report")
            if wire_bytes != raw_bytes:
                problems.append(f"wire bytes {wire_bytes} != 4 x params {raw_bytes}")
            tl_a, with_overlap = self._first_iterations(overlap=True)
            tl_b, without = self._first_iterations(overlap=False)
            if not np.array_equal(with_overlap, without):
                problems.append("overlap=True and overlap=False parameters differ")
            if tl_a.bytes_per_iteration != tl_b.bytes_per_iteration:
                problems.append("overlap changed the wire bytes")
        elif not wire_bytes < raw_bytes:
            problems.append(f"compressed wire bytes {wire_bytes} not below raw {raw_bytes}")
        return problems

    # -- per-layer metrics (traced run) ---------------------------------------

    def _micro(self) -> dict[str, float]:
        """Public functions of the layers below the trainer, timed alone on
        this workload's own model, bucket tiling and gradients."""
        model = copy.deepcopy(self.trainer.model)
        params = list(model.parameters())
        opt = FusedSGD(params, lr=0.01, momentum=0.9)
        n = model.num_parameters()
        rng = np.random.default_rng(self.seed)
        vectors = [rng.standard_normal(n).astype(np.float32) for _ in range(WORLD)]
        buckets = build_buckets([p.data.size for p in params], BUCKET_MB * 1e6)
        batch = (self.images[:BATCH], self.labels[:BATCH])

        def backward(record: bool) -> float:
            opt.zero_grad()
            t0 = time.perf_counter()
            if record:
                with GradientArrivalRecorder(params):
                    self.loss_fn(model(Tensor(batch[0])), batch[1]).backward()
            else:
                self.loss_fn(model(Tensor(batch[0])), batch[1]).backward()
            return time.perf_counter() - t0

        # Hooked and bare backward passes alternate, so drift hits both alike.
        hooked, bare = [], []
        for _ in range(self.micro_repeats):
            hooked.append(backward(record=True))
            bare.append(backward(record=False))
        out = {
            "optim.step_flat_ms": median_call_ms(
                lambda: opt.step_flat(vectors[0]), self.micro_repeats),
            "distributed.allreduce_ms": median_call_ms(
                lambda: bucketed_allreduce_mean(vectors, buckets), self.micro_repeats),
            "distributed.arrival_hook_overhead": quantile(hooked, 0.5) / quantile(bare, 0.5) - 1.0,
            "compression.encode_ms": 0.0,
            "compression.decode_ms": 0.0,
            "compression.ratio": 1.0,
        }
        if self.compressor_rank is not None:
            compressor = make_compressor("powersgd", WORLD, rank=self.compressor_rank)
            grads = [p.grad.copy() for p in params]
            # One protocol round per repeat (encode, decode, advance): the
            # decoder's warm start feeds the next round's encoder.
            enc, dec = [], []
            for _ in range(self.micro_repeats):
                t0 = time.perf_counter()
                results = [compressor.encode(w, grads) for w in range(WORLD)]
                t1 = time.perf_counter()
                compressor.decode_aggregate(results)
                t2 = time.perf_counter()
                compressor.advance_step()
                enc.append((t1 - t0) / WORLD)  # workers encode in parallel
                dec.append(t2 - t1)
            out["compression.encode_ms"] = ms(quantile(enc, 0.5))
            out["compression.decode_ms"] = ms(quantile(dec, 0.5))
            out["compression.ratio"] = 4 * n / results[0].nbytes
        return out

    def layer_metrics(self, tracer, untraced: OpLog, traced: OpLog) -> tuple[dict, list[str]]:
        timelines = traced.extra["timelines"]
        iters = sum(t.iterations for t in timelines)
        wall = sum(traced.op_s) * self.iterations_per_op

        def per_iter(seconds: float) -> float:
            return ms(seconds) / iters

        compute = sum(t.compute for t in timelines)
        comm_total = sum(t.overlap["comm_total_s"] for t in timelines)
        comm_exposed = sum(t.overlap["comm_exposed_s"] for t in timelines)
        forward = per_iter(tracer.total("nn.forward"))
        optim = per_iter(tracer.total("optim.zero_grad") + tracer.total("optim.step"))
        metrics = {
            "data.batch_ms": per_iter(tracer.total("data.batch")),
            "nn.forward_ms": forward,
            "nn.loss_ms": per_iter(tracer.total("nn.loss")),
            "nn.forward_share": tracer.total("nn.forward") / wall,
            "tensor.graph_nodes_per_step": traced.extra["graph_nodes"] / iters,
            "optim.zero_grad_ms": per_iter(tracer.total("optim.zero_grad")),
            "optim.step_ms": per_iter(tracer.total("optim.step")),
            "optim.share": optim / per_iter(wall),
            "distributed.modeled_iter_ms": per_iter(sum(t.total for t in timelines)),
            "distributed.compute_ms_per_iter": per_iter(compute),
            "distributed.encode_ms_per_iter": per_iter(sum(t.encode for t in timelines)),
            "distributed.decode_ms_per_iter": per_iter(sum(t.decode for t in timelines)),
            "distributed.comm_modeled_ms_per_iter": per_iter(comm_total),
            "distributed.comm_exposed_ms_per_iter": per_iter(comm_exposed),
            "distributed.overlap_fraction": 1.0 - comm_exposed / comm_total,
            "distributed.n_buckets": float(timelines[-1].overlap["n_buckets"]),
            "distributed.wire_bytes_per_iter": float(timelines[-1].bytes_per_iteration),
            "distributed.sim_overhead_share": 1.0 - WORLD * compute / wall,
        }
        if self.report is not None:
            metrics["core.factorize_s"] = self.report.svd_seconds
            metrics["core.param_ratio"] = self.report.params_after / self.report.params_before
        metrics.update(self._micro())
        by_class = forward_self_ms(tracer, iters)
        metrics.update(by_class)
        return metrics, sum_check("nn.fwd_self_ms.*", sum(by_class.values()), forward)


class DdpFactorized(DdpWorkload):
    name = "ddp_factorized"
    iterations_per_op = 5
    factorized = True


class DdpPowerSGD(DdpWorkload):
    name = "ddp_powersgd"
    iterations_per_op = 1
    compressor_rank = 4
