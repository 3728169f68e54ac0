"""Trainers are freed by reference counting, not by the cycle collector.

A trainer owns its model, its optimizer's arena and (for PowerSGD) one
residual matrix per worker and layer.  If it sits in a reference cycle, all of
that survives ``del`` until a full GC runs, and a process that builds several
trainers in a row holds all of them at once.  Each test here trains, drops
every reference and checks with the collector switched off that nothing is
left.
"""

from __future__ import annotations

import contextlib
import gc
import weakref

import numpy as np
import pytest

from repro import nn
from repro.compression import make_compressor
from repro.core import FactorizationConfig, PufferfishTrainer, Trainer
from repro.data import DataLoader, make_cifar_like, shard_dataset
from repro.distributed import ClusterSpec, DistributedTrainer
from repro.models import MLP
from repro.optim import SGD

WORLD = 4


@contextlib.contextmanager
def collector_off():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _powersgd_epoch(overlap: bool) -> tuple[weakref.ref, weakref.ref]:
    ds = make_cifar_like(n=WORLD * 16, num_classes=4, size=8, rng=np.random.default_rng(0))
    loaders = [DataLoader(x, y, 8) for x, y in shard_dataset(ds.images, ds.labels, WORLD)]
    model = MLP(3 * 8 * 8, [32], 4)
    trainer = DistributedTrainer(
        model,
        SGD(list(model.parameters()), lr=0.05, momentum=0.9),
        ClusterSpec(WORLD, 10.0),
        compressor=make_compressor("powersgd", WORLD, rank=2),
        overlap=overlap,
    )
    trainer.train_epoch(loaders)
    assert trainer.compressor.name == "powersgd"
    return weakref.ref(trainer), weakref.ref(trainer.compressor)


@pytest.mark.parametrize("overlap", [False, True])
def test_distributed_trainer_dies_with_its_last_reference(overlap):
    with collector_off():
        trainer, compressor = _powersgd_epoch(overlap)
        assert trainer() is None
        assert compressor() is None


def _pufferfish_through_the_factory() -> list[weakref.ref]:
    ds = make_cifar_like(n=WORLD * 16, num_classes=4, size=8, rng=np.random.default_rng(0))
    loaders = [DataLoader(x, y, 8) for x, y in shard_dataset(ds.images, ds.labels, WORLD)]
    built = []

    def factory(model, optimizer):
        trainer = DistributedTrainer(
            model, optimizer, ClusterSpec(WORLD, 10.0),
            compressor=make_compressor("powersgd", WORLD, rank=2),
        )
        built.append(weakref.ref(trainer))
        return trainer

    pt = PufferfishTrainer(MLP(3 * 8 * 8, [32, 32], 4), FactorizationConfig(rank_ratio=0.25),
                           lambda ps: SGD(ps, lr=0.05, momentum=0.9), 1, 2, factory)
    pt.fit(loaders, ())
    assert len(built) == 2  # warm-up and low-rank phases
    return built + [weakref.ref(pt)]


def test_distributed_trainers_built_by_the_factory_die_with_pufferfish():
    with collector_off():
        refs = _pufferfish_through_the_factory()
        assert [r() for r in refs] == [None] * len(refs)


def _trainer_epoch() -> tuple[weakref.ref, weakref.ref]:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 12)).astype(np.float32)
    y = rng.integers(0, 3, 32)
    loader = DataLoader(x, y, 8)
    model = nn.Sequential(nn.Linear(12, 16), nn.ReLU(), nn.Linear(16, 3))
    trainer = Trainer(model, SGD(model.parameters(), lr=0.05))
    trainer.fit(loader, loader, epochs=1)
    return weakref.ref(trainer), weakref.ref(model)


def test_trainer_dies_with_its_last_reference():
    with collector_off():
        trainer, model = _trainer_epoch()
        assert trainer() is None
        assert model() is None
