"""Training loops: a generic single-node trainer and the Pufferfish
procedure of Algorithm 1 (vanilla warm-up → SVD conversion → low-rank
fine-tuning)."""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from ..nn import CrossEntropyLoss, GradScaler, cast_gradients_fp16, autocast_round_trip
from ..nn.module import Module
from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..optim import Optimizer, clip_grad_norm
from ..tensor import Tensor, no_grad
from ..utils import Logger
from .hybrid import FactorizationConfig, FactorizationReport, build_hybrid

__all__ = ["EpochStats", "Trainer", "PufferfishTrainer", "classification_batch"]


@dataclass
class EpochStats:
    """Per-epoch record appended to the training history."""

    epoch: int
    train_loss: float
    train_metric: float
    val_loss: float
    val_metric: float
    lr: float
    seconds: float
    num_parameters: int
    phase: str = "train"  # "warmup" (full-rank) or "lowrank"
    # Counter deltas for this epoch (macs, gemm_calls, ...) when metric
    # collection is enabled; None otherwise.
    metrics: dict | None = None


def classification_batch(model: Module, batch, loss_fn) -> tuple[Tensor, float, int]:
    """Default batch adapter: ``batch = (images, int labels)``.

    Returns (loss tensor, #correct, #examples).
    """
    x, y = batch
    logits = model(Tensor(x))
    loss = loss_fn(logits, y)
    correct = float((logits.data.argmax(axis=1) == y).sum())
    return loss, correct, len(y)


class Trainer:
    """Single-node SGD training loop.

    Parameters
    ----------
    model, optimizer: the usual pair.
    batch_fn:
        Callable ``(model, batch) -> (loss Tensor, metric_sum, count)``;
        defaults to image classification with cross-entropy.
    scheduler: optional LR schedule stepped once per epoch.
    grad_clip: optional global-norm clipping bound.
    amp: emulate mixed-precision training (fp16 grads + loss scaling).
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        batch_fn: Callable | None = None,
        loss_fn=None,
        scheduler=None,
        grad_clip: float | None = None,
        amp: bool = False,
        logger: Logger | None = None,
        post_step: Callable | None = None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.post_step = post_step
        self.loss_fn = loss_fn or CrossEntropyLoss()
        # A partial, not a lambda over ``self``: the trainer stays out of a
        # reference cycle, so its model and optimizer go when it does.
        self.batch_fn = batch_fn or functools.partial(classification_batch, loss_fn=self.loss_fn)
        self.scheduler = scheduler
        self.grad_clip = grad_clip
        self.amp = amp
        self.scaler = GradScaler() if amp else None
        self.logger = logger or Logger(enabled=False)
        self.history: list[EpochStats] = []

    # ------------------------------------------------------------------

    def evaluate(self, loader: Iterable) -> tuple[float, float]:
        """Mean loss and mean metric over a validation loader."""
        self.model.eval()
        total_loss = 0.0
        total_metric = 0.0
        total_count = 0
        n_batches = 0
        with no_grad():
            for batch in loader:
                loss, metric, count = self.batch_fn(self.model, batch)
                total_loss += float(loss.data)
                total_metric += metric
                total_count += count
                n_batches += 1
        return total_loss / max(n_batches, 1), total_metric / max(total_count, 1)

    def fit(
        self,
        train_loader,
        val_loader,
        epochs: int,
        start_epoch: int = 0,
        phase: str = "train",
    ) -> list[EpochStats]:
        """Train for ``epochs`` epochs, recording stats per epoch."""
        for epoch in range(start_epoch, start_epoch + epochs):
            if self.scheduler is not None:
                self.scheduler.step(epoch)
            counters_before = _metrics.REGISTRY.counters() if _metrics.COLLECT else None
            t0 = time.perf_counter()
            # The "epoch" span brackets exactly the region that ``seconds``
            # times, so summed epoch spans reconcile with the history.
            with _trace.span("epoch", epoch=epoch, phase=phase):
                train_loss, train_metric = self.train_epoch(train_loader)
            elapsed = time.perf_counter() - t0
            with _trace.span("evaluate", epoch=epoch):
                val_loss, val_metric = self.evaluate(val_loader)
            if self.scheduler is not None and hasattr(self.scheduler, "best"):
                self.scheduler.step(epoch, metric=val_loss)
            epoch_metrics = None
            if counters_before is not None:
                epoch_metrics = _metrics.diff_counters(
                    _metrics.REGISTRY.counters(), counters_before
                )
                _metrics.REGISTRY.histogram("epoch_seconds").observe(elapsed)
                # Per-epoch training signals through the registry (the
                # ROADMAP's "next consumer" of the metrics layer).
                reg = _metrics.REGISTRY
                reg.counter("trainer.epochs").inc()
                reg.histogram("trainer.train_loss").observe(train_loss)
                reg.histogram("trainer.val_loss").observe(val_loss)
                reg.histogram("trainer.val_metric").observe(val_metric)
                reg.gauge("trainer.lr").set(self.optimizer.lr)
            stats = EpochStats(
                epoch=epoch,
                train_loss=train_loss,
                train_metric=train_metric,
                val_loss=val_loss,
                val_metric=val_metric,
                lr=self.optimizer.lr,
                seconds=elapsed,
                num_parameters=self.model.num_parameters(),
                phase=phase,
                metrics=epoch_metrics,
            )
            self.history.append(stats)
            self.logger.log(
                "epoch",
                epoch=epoch,
                phase=phase,
                train_loss=train_loss,
                val_metric=val_metric,
                lr=self.optimizer.lr,
                sec=elapsed,
            )
        return self.history

    def train_epoch(self, loader) -> tuple[float, float]:
        self.model.train()
        total_loss = 0.0
        total_metric = 0.0
        total_count = 0
        n_batches = 0
        for batch in loader:
            self.optimizer.zero_grad()
            if self.amp:
                autocast_round_trip(self.model)
            with _trace.span("forward"):
                loss, metric, count = self.batch_fn(self.model, batch)
            raw_loss = float(loss.data)
            with _trace.span("backward"):
                if self.amp:
                    self.scaler.scale_loss(loss).backward()
                    cast_gradients_fp16(self.optimizer.params)
                    skip = not self.scaler.unscale_and_check(self.optimizer.params)
                else:
                    loss.backward()
                    skip = False
            if skip:
                continue
            with _trace.span("optimizer_step"):
                if self.grad_clip is not None:
                    clip_grad_norm(self.optimizer.params, self.grad_clip)
                self.optimizer.step()
                if self.post_step is not None:
                    self.post_step(self.model)
            total_loss += raw_loss
            total_metric += metric
            total_count += count
            n_batches += 1
        return total_loss / max(n_batches, 1), total_metric / max(total_count, 1)


class PufferfishTrainer:
    """The full Pufferfish procedure (Algorithm 1).

    1. Train the vanilla full-rank model for ``warmup_epochs``.
    2. Factorize it into the hybrid architecture via truncated SVD
       (Σ^½-split factors; BN statistics and biases carried over).
    3. Train the hybrid model for the remaining epochs, continuing the
       same LR schedule (optionally scaled at the switch).

    Parameters
    ----------
    model: the vanilla model to start from.
    config: what/how to factorize (rank ratio, hybrid index K, skips).
    optimizer_factory: ``params -> Optimizer`` — called once for the vanilla
        phase and once after conversion (fresh momentum state, as in the
        paper's implementation).
    scheduler_factory: optional ``optimizer -> scheduler``.
    lr_decay_at_switch: multiply the LR by this factor when switching to
        the low-rank model (the paper halves the LSTM LR at the switch).
    config_builder: optional ``model -> FactorizationConfig`` evaluated on
        the *warm-up-trained* model just before conversion — the hook for
        spectrum-dependent policies such as
        :func:`repro.core.energy_rank_allocation` (overrides ``config``).
    """

    def __init__(
        self,
        model: Module,
        config: FactorizationConfig,
        optimizer_factory: Callable,
        warmup_epochs: int,
        total_epochs: int,
        batch_fn: Callable | None = None,
        loss_fn=None,
        scheduler_factory: Callable | None = None,
        grad_clip: float | None = None,
        amp: bool = False,
        lr_decay_at_switch: float = 1.0,
        logger: Logger | None = None,
        config_builder: Callable | None = None,
    ):
        if warmup_epochs > total_epochs:
            raise ValueError("warmup_epochs cannot exceed total_epochs")
        self.model = model
        self.config = config
        self.optimizer_factory = optimizer_factory
        self.scheduler_factory = scheduler_factory
        self.warmup_epochs = warmup_epochs
        self.total_epochs = total_epochs
        self.batch_fn = batch_fn
        self.loss_fn = loss_fn
        self.grad_clip = grad_clip
        self.amp = amp
        self.lr_decay_at_switch = lr_decay_at_switch
        self.config_builder = config_builder
        self.logger = logger or Logger(enabled=False)
        self.report: FactorizationReport | None = None
        self.history: list[EpochStats] = []

    def fit(self, train_loader, val_loader) -> Module:
        """Run the full procedure; returns the trained hybrid model."""
        # Phase 1: vanilla warm-up.
        optimizer = self.optimizer_factory(self.model.parameters())
        scheduler = (
            self.scheduler_factory(optimizer) if self.scheduler_factory else None
        )
        trainer = Trainer(
            self.model,
            optimizer,
            batch_fn=self.batch_fn,
            loss_fn=self.loss_fn,
            scheduler=scheduler,
            grad_clip=self.grad_clip,
            amp=self.amp,
            logger=self.logger,
        )
        if self.warmup_epochs > 0:
            with _trace.span("phase", name="warmup"):
                trainer.fit(train_loader, val_loader, self.warmup_epochs, phase="warmup")
        self.history.extend(trainer.history)

        # Phase 2: SVD conversion to the hybrid architecture.  A
        # config_builder sees the warm-up-trained weights (e.g. for
        # spectrum-driven rank allocation).
        if self.config_builder is not None:
            self.config = self.config_builder(self.model)
        with _trace.span("phase", name="svd_conversion"):
            hybrid, self.report = build_hybrid(self.model, self.config)
        self.logger.log(
            "converted",
            replaced=len(self.report.replaced),
            kept=len(self.report.kept),
            compression=self.report.compression,
            svd_sec=self.report.svd_seconds,
        )

        # Phase 3: consecutive low-rank training with the schedule continuing
        # from the warm-up epoch count.
        lr_now = optimizer.lr * self.lr_decay_at_switch
        optimizer2 = self.optimizer_factory(hybrid.parameters())
        optimizer2.lr = lr_now
        scheduler2 = (
            self.scheduler_factory(optimizer2) if self.scheduler_factory else None
        )
        trainer2 = Trainer(
            hybrid,
            optimizer2,
            batch_fn=self.batch_fn,
            loss_fn=self.loss_fn,
            scheduler=scheduler2,
            grad_clip=self.grad_clip,
            amp=self.amp,
            logger=self.logger,
        )
        remaining = self.total_epochs - self.warmup_epochs
        if remaining > 0:
            with _trace.span("phase", name="lowrank"):
                trainer2.fit(
                    train_loader,
                    val_loader,
                    remaining,
                    start_epoch=self.warmup_epochs,
                    phase="lowrank",
                )
        self.history.extend(trainer2.history)
        self.hybrid_model = hybrid
        return hybrid
