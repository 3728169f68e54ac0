"""Learning-rate schedules used across the paper's experiments.

* :class:`MultiStepLR` — decay by ``gamma`` at milestone epochs (CIFAR:
  150/250 with 0.1; ImageNet: 30/60/80).
* :class:`LinearWarmup` — linear ramp over the first epochs, as in the
  large-batch ResNet-18 runs (0.1 → 1.6 over 5 epochs, following Goyal et
  al. 2017); composes with an inner schedule.
* :class:`ReduceLROnPlateau` — multiply by ``factor`` when the monitored
  metric stops improving (WikiText-2 LSTM: 0.25 on stalled val loss).
* :class:`StepDecayAt` — arbitrary {epoch: factor} decay map (used when
  Pufferfish switches to the low-rank net and halves the LR).
"""

from __future__ import annotations

from .optimizer import Optimizer

__all__ = ["MultiStepLR", "LinearWarmup", "ReduceLROnPlateau", "StepDecayAt", "CosineAnnealingLR"]


class _Scheduler:
    def __init__(self, optimizer: Optimizer, base_lr: float | None = None):
        self.optimizer = optimizer
        self.base_lr = optimizer.lr if base_lr is None else base_lr

    @property
    def lr(self) -> float:
        return self.optimizer.lr

    def step(self, epoch: int, metric: float | None = None) -> None:
        raise NotImplementedError


class MultiStepLR(_Scheduler):
    """``lr = base * gamma^(number of passed milestones)``; call per epoch."""

    def __init__(self, optimizer: Optimizer, milestones: list[int], gamma: float = 0.1):
        super().__init__(optimizer)
        self.milestones = sorted(milestones)
        self.gamma = gamma

    def step(self, epoch: int, metric: float | None = None) -> None:
        passed = sum(1 for m in self.milestones if epoch >= m)
        self.optimizer.lr = self.base_lr * (self.gamma**passed)


class LinearWarmup(_Scheduler):
    """Linear ramp from ``start_lr`` to ``peak_lr`` over ``warmup_epochs``,
    then delegate to an optional inner schedule (evaluated with the epoch
    offset removed)."""

    def __init__(
        self,
        optimizer: Optimizer,
        start_lr: float,
        peak_lr: float,
        warmup_epochs: int,
        after: _Scheduler | None = None,
    ):
        super().__init__(optimizer, base_lr=peak_lr)
        self.start_lr = start_lr
        self.peak_lr = peak_lr
        self.warmup_epochs = warmup_epochs
        self.after = after

    def step(self, epoch: int, metric: float | None = None) -> None:
        if epoch < self.warmup_epochs:
            frac = (epoch + 1) / self.warmup_epochs
            self.optimizer.lr = self.start_lr + frac * (self.peak_lr - self.start_lr)
        elif self.after is not None:
            self.after.base_lr = self.peak_lr
            self.after.step(epoch, metric)
        else:
            self.optimizer.lr = self.peak_lr


class ReduceLROnPlateau(_Scheduler):
    """Decay when ``metric`` has not improved for ``patience`` evaluations,
    never below an LR of ``1e-6``."""

    min_lr = 1e-6

    def __init__(self, optimizer: Optimizer, factor: float = 0.25, patience: int = 0):
        super().__init__(optimizer)
        self.factor = factor
        self.patience = patience
        self.best: float | None = None
        self.bad_evals = 0

    def step(self, epoch: int, metric: float | None = None) -> None:
        if metric is None:
            return
        if self.best is None or metric < self.best - 1e-6:
            self.best = metric
            self.bad_evals = 0
        else:
            self.bad_evals += 1
            if self.bad_evals > self.patience:
                self.optimizer.lr = max(self.optimizer.lr * self.factor, self.min_lr)
                self.bad_evals = 0


class CosineAnnealingLR(_Scheduler):
    """Half-cosine decay from the base LR to ``min_lr`` over ``t_max``
    epochs (the common alternative to step decay for the paper's tasks)."""

    def __init__(self, optimizer: Optimizer, t_max: int, min_lr: float = 0.0):
        super().__init__(optimizer)
        if t_max < 1:
            raise ValueError("t_max must be >= 1")
        self.t_max = t_max
        self.min_lr = min_lr

    def step(self, epoch: int, metric: float | None = None) -> None:
        import math

        t = min(max(epoch, 0), self.t_max)
        cos = (1 + math.cos(math.pi * t / self.t_max)) / 2
        self.optimizer.lr = self.min_lr + (self.base_lr - self.min_lr) * cos


class StepDecayAt(_Scheduler):
    """Multiply the LR by ``factors[epoch]`` the first time ``epoch`` is
    reached.  Factors compound with whatever LR is currently set, so this can
    wrap manual schedules (e.g. Pufferfish's LR halving at the switch epoch)."""

    def __init__(self, optimizer: Optimizer, factors: dict[int, float]):
        super().__init__(optimizer)
        self.factors = dict(factors)
        self._applied: set[int] = set()

    def step(self, epoch: int, metric: float | None = None) -> None:
        for e, f in self.factors.items():
            if epoch >= e and e not in self._applied:
                self.optimizer.lr *= f
                self._applied.add(e)
