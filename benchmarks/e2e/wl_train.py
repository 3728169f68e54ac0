"""Single-node training workloads: ``train_conv`` and ``train_seq``.

One operation is one train step of a hybrid-factorized model on the
``fast`` backend: fetch a batch, zero the gradients, forward, loss,
backward, fused optimizer step.  Every phase is timed from here, around the
public call that performs it; ``loss.backward()`` stays one opaque span
(opening it from inside the engine is a later issue).
"""

from __future__ import annotations

import copy
import time

import numpy as np
from repro.core import build_hybrid
from repro.data import make_cifar_like, make_translation_dataset
from repro.models import (
    Seq2SeqTransformer,
    transformer_hybrid_config,
    vgg19,
    vgg19_hybrid_config,
)
from repro.nn import CrossEntropyLoss
from repro.optim import FusedAdam, FusedSGD
from repro.tensor import Tensor, backend, count_macs, graph_nodes_created, no_grad
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
    span_factory,
    sum_check,
    wrap_modules,
)

PARITY_STEPS = 5
SWITCH_RTOL = 0.1  # gradient error one parity step may show; see _parity_problems
TREND_STEPS = 10  # "loss fell" compares the first and the last this many steps
VANILLA_STEPS = 20  # core.speedup_vs_vanilla times this many full-rank steps
STEP_FLAT_REPEATS = 20


class TrainWorkload:
    """Template: subclasses say what the data, model, loss and optimizer are."""

    name = ""
    batch_size = 32

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.warmup_ops = scaled(benchspec.OPS[self.name]["warmup"], scale)

    # -- what a subclass provides ---------------------------------------------

    def make_data(self, rng: np.random.Generator) -> tuple:
        """Generate the inputs from ``rng``; return the arrays (for the digest)."""
        raise NotImplementedError

    def build_vanilla(self):
        raise NotImplementedError

    def hybrid_config(self):
        raise NotImplementedError

    def make_optimizer(self, params):
        raise NotImplementedError

    def get_batch(self, i: int):
        raise NotImplementedError

    def forward(self, model, batch):
        raise NotImplementedError

    def loss(self, out, batch):
        raise NotImplementedError

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        self.inputs_digest = digest_arrays(*self.make_data(np.random.default_rng(self.seed)))
        set_seed(benchspec.MODEL_SEED)
        self.model, self.report = build_hybrid(self.build_vanilla(), self.hybrid_config())
        self.init_state = self.model.state_dict()
        self.opt = self.make_optimizer(list(self.model.parameters()))
        self.model.train()
        self.step_index = 0
        warm = self.run_ops(self.warmup_ops)
        self.warm_op_s = quantile(warm.op_s, 0.5)

    def teardown(self) -> None:
        pass

    # -- the timed window -----------------------------------------------------

    def _step(self, model, opt, i: int, span) -> float:
        with span("step", op=i):
            with span("data.batch"):
                batch = self.get_batch(i)
            with span("optim.zero_grad"):
                opt.zero_grad()
            out = self.forward(model, batch)  # nn.forward: see wrap_modules
            with span("nn.loss"):
                loss = self.loss(out, batch)
            with span("tensor.backward"):
                loss.backward()
            with span("optim.step"):
                opt.step()
        return float(loss.data)

    def run_ops(self, n: int, tracer=None) -> OpLog:
        span = span_factory(tracer)
        restore = wrap_modules(self.model, tracer) if tracer is not None else None
        log = OpLog(attempted=n)
        losses, errors = [], []
        nodes_before = graph_nodes_created()
        wall_start = time.perf_counter()
        try:
            for _ in range(n):
                i = self.step_index
                self.step_index += 1
                t0 = time.perf_counter()
                try:
                    value = self._step(self.model, self.opt, i, span)
                except Exception as e:  # one broken step must not hide the rest
                    errors.append(f"step {i}: {type(e).__name__}: {e}")
                    continue
                elapsed = time.perf_counter() - t0
                if np.isfinite(value):
                    log.op_s.append(elapsed)
                    losses.append(value)
                else:
                    errors.append(f"step {i}: loss is {value}")
            log.wall_s = time.perf_counter() - wall_start
        finally:
            if restore is not None:
                restore()
        log.failed = n - len(log.op_s)
        log.samples = self.batch_size * len(log.op_s)
        log.extra = {
            "losses": losses,
            "errors": errors[:5],
            "graph_nodes": graph_nodes_created() - nodes_before,
        }
        return log

    def end_to_end(self, log: OpLog) -> dict[str, float]:
        return common_end_to_end(log)

    # -- correctness ----------------------------------------------------------

    def _parity_problems(self) -> list[str]:
        """The first steps again, each computed under both backends from the
        same parameters.  Comparing two whole trajectories instead would test
        how fast rounding differences grow, not the backends.

        The loss is continuous in the activations, so every step's loss must
        agree within the bound the backend module sets for its
        tolerance-tagged ops.  The gradient is not: the backends' activations
        differ by ~1e-6, and when one that lies that close to zero falls on
        the other side of a ReLU or changes a max-pool's winner, one of the
        ~16 k gradient entries of that layer is switched and every gradient
        below it moves by ~1/sqrt(16 k) = 1 % (seen at step 0 of seed 403).
        So the gradient is held to the tolerance in the median over the steps
        (measured: ~1e-6 on train_conv, exactly 0 on train_seq) and on every
        single step to ``SWITCH_RTOL``, which a few switches stay below and a
        wrong kernel does not."""
        model = copy.deepcopy(self.model)
        model.load_state_dict(self.init_state)
        model.train()
        params = list(model.parameters())
        opt = self.make_optimizer(params)
        tol = backend.TOLERANCE_RTOL
        problems, grad_errs = [], []
        for i in range(scaled(PARITY_STEPS, self.scale)):
            batch = self.get_batch(i)
            seen = {}
            for name in ("numpy", benchspec.BACKEND):
                with backend.use(name):
                    opt.zero_grad()
                    loss = self.loss(self.forward(model, batch), batch)
                    loss.backward()
                seen[name] = float(loss.data), np.concatenate([p.grad.ravel() for p in params])
            (ref_loss, ref_grad), (loss_value, grad) = seen["numpy"], seen[benchspec.BACKEND]
            loss_err = abs(loss_value - ref_loss) / abs(ref_loss)
            grad_errs.append(np.linalg.norm(grad - ref_grad) / np.linalg.norm(ref_grad))
            if not (loss_err <= tol and grad_errs[-1] <= SWITCH_RTOL):
                problems.append(
                    f"step {i}: {benchspec.BACKEND} differs from numpy by {loss_err:.2g} in loss "
                    f"(tolerance {tol:.0e}) and {grad_errs[-1]:.2g} in gradient ({SWITCH_RTOL})"
                )
            opt.step()  # advance on the benchmarked backend's gradient
        median = sorted(grad_errs)[(len(grad_errs) - 1) // 2]  # the lower one of two
        if not median <= tol:
            problems.append(
                f"{benchspec.BACKEND} gradients differ from numpy by {median:.2g} "
                f"in the median over {len(grad_errs)} steps (tolerance {tol:.0e})"
            )
        return problems

    def check(self, log: OpLog) -> list[str]:
        problems = list(log.extra["errors"])
        losses = log.extra["losses"]
        # Each step sees another batch, so a trend needs a window of steps;
        # a scaled-down smoke run is too short to show one.
        if len(losses) >= 2 * TREND_STEPS:
            first, last = np.mean(losses[:TREND_STEPS]), np.mean(losses[-TREND_STEPS:])
            if not last < first:
                problems.append(f"loss did not fall: first 10 mean {first}, last 10 mean {last}")
        n_params = self.model.num_parameters()
        if n_params != self.report.params_after or n_params >= self.report.params_before:
            problems.append(
                f"factorized model has {n_params} parameters; report says "
                f"{self.report.params_after} after, {self.report.params_before} before"
            )
        problems += self._parity_problems()
        return problems

    # -- per-layer metrics (traced run) ---------------------------------------

    def _forward_macs(self, model) -> int:
        with no_grad(), count_macs() as counter:
            self.forward(model, self.get_batch(0))
        return counter.total

    def _vanilla_step_p50(self) -> float:
        set_seed(benchspec.MODEL_SEED)
        model = self.build_vanilla()
        model.train()
        opt = self.make_optimizer(list(model.parameters()))
        span = span_factory(None)
        times = []
        for i in range(2 + scaled(VANILLA_STEPS, self.scale)):
            t0 = time.perf_counter()
            self._step(model, opt, i, span)
            times.append(time.perf_counter() - t0)
        self.vanilla_macs = self._forward_macs(model)
        return quantile(times[2:], 0.5)

    def _step_flat_ms(self) -> float:
        model = copy.deepcopy(self.model)
        opt = self.make_optimizer(list(model.parameters()))
        grad = np.full(model.num_parameters(), 1e-3, dtype=np.float32)
        return median_call_ms(lambda: opt.step_flat(grad), scaled(STEP_FLAT_REPEATS, self.scale))

    def layer_metrics(self, tracer, untraced: OpLog, traced: OpLog) -> tuple[dict, list[str]]:
        n = tracer.count("step")
        per_step = {name: ms(tracer.total(name)) / n for name in (
            "step", "data.batch", "optim.zero_grad", "nn.forward", "nn.loss",
            "tensor.backward", "optim.step")}
        step = per_step["step"]
        forward, backward = per_step["nn.forward"], per_step["tensor.backward"]
        optim = per_step["optim.zero_grad"] + per_step["optim.step"]
        macs = self._forward_macs(self.model)
        vanilla_p50 = self._vanilla_step_p50()
        metrics = {
            "data.batch_ms": per_step["data.batch"],
            "nn.forward_ms": forward,
            "nn.loss_ms": per_step["nn.loss"],
            "nn.forward_share": forward / step,
            "tensor.backward_ms": backward,
            "tensor.backward_share": backward / step,
            "tensor.bwd_over_fwd": backward / forward,
            "tensor.graph_nodes_per_step": traced.extra["graph_nodes"] / traced.attempted,
            "tensor.macs_per_step": float(macs),
            "tensor.fwd_ms_per_gmac": forward / (macs / 1e9),
            "optim.zero_grad_ms": per_step["optim.zero_grad"],
            "optim.step_ms": per_step["optim.step"],
            "optim.share": optim / step,
            "optim.step_flat_ms": self._step_flat_ms(),
            "core.factorize_s": self.report.svd_seconds,
            "core.param_ratio": self.report.params_after / self.report.params_before,
            "core.mac_ratio": macs / self.vanilla_macs,
            "core.speedup_vs_vanilla": vanilla_p50 / quantile(untraced.op_s, 0.5),
        }
        by_class = forward_self_ms(tracer, n)
        metrics.update(by_class)
        problems = sum_check(
            "step phases (data + forward + loss + backward + optim)",
            per_step["data.batch"] + forward + per_step["nn.loss"] + backward + optim,
            step,
        )
        problems += sum_check("nn.fwd_self_ms.*", sum(by_class.values()), forward)
        return metrics, problems


class TrainConv(TrainWorkload):
    """Hybrid VGG-19 at width 0.25 on CIFAR-like images, FusedSGD momentum."""

    name = "train_conv"
    n_examples = 512
    loss_fn = CrossEntropyLoss()

    def make_data(self, rng):
        ds = make_cifar_like(n=self.n_examples, rng=rng)
        self.images, self.labels = ds.images, ds.labels
        return self.images, self.labels

    def build_vanilla(self):
        return vgg19(num_classes=10, width_mult=0.25)

    def hybrid_config(self):
        return vgg19_hybrid_config()

    def make_optimizer(self, params):
        return FusedSGD(params, lr=0.01, momentum=0.9)

    def get_batch(self, i):
        j = (i * self.batch_size) % self.n_examples
        return self.images[j : j + self.batch_size], self.labels[j : j + self.batch_size]

    def forward(self, model, batch):
        return model(Tensor(batch[0]))

    def loss(self, out, batch):
        return self.loss_fn(out, batch[1])


class TrainSeq(TrainWorkload):
    """Hybrid encoder-decoder Transformer on reverse-and-relabel pairs, FusedAdam."""

    name = "train_seq"
    n_examples = 512
    vocab = 50
    loss_fn = CrossEntropyLoss(ignore_index=0)  # 0 pads the target

    def make_data(self, rng):
        ds = make_translation_dataset(
            n=self.n_examples, vocab_size=self.vocab, min_len=8, max_len=12, rng=rng
        )
        self.src, self.tgt = ds.src, ds.tgt
        return self.src, self.tgt

    def build_vanilla(self):
        # Dropout 0 keeps the numpy-vs-fast parity check free of RNG state.
        return Seq2SeqTransformer(
            vocab_size=self.vocab, d_model=128, n_heads=4, num_layers=2, dropout=0.0, max_len=16
        )

    def hybrid_config(self):
        return transformer_hybrid_config()

    def make_optimizer(self, params):
        return FusedAdam(params, lr=2e-3)

    def get_batch(self, i):
        j = (i * self.batch_size) % self.n_examples
        return self.src[j : j + self.batch_size], self.tgt[j : j + self.batch_size]

    def forward(self, model, batch):
        src, tgt = batch
        return model(src, tgt[:, :-1])

    def loss(self, out, batch):
        labels = batch[1][:, 1:].reshape(-1)
        return self.loss_fn(out.reshape(-1, self.vocab), labels)
