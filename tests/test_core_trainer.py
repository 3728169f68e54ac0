"""Trainer and PufferfishTrainer (Algorithm 1) behavior."""

import copy
import functools
import logging
import math

import numpy as np
import pytest

from repro import nn
from repro import observability as obs
from repro.core import FactorizationConfig, PufferfishTrainer, Trainer, lm_batch, seq2seq_batch
from repro.data import DataLoader, make_translation_dataset, shard_dataset
from repro.distributed import ClusterSpec, DistributedTrainer, TimelineBreakdown
from repro.metrics import evaluate_translation
from repro.models import MLP, LSTMLanguageModel, Seq2SeqTransformer, transformer_hybrid_config
from repro.optim import SGD


def make_task(rng, n=96, num_classes=3, dim=12):
    """Linearly separable synthetic task so a few epochs suffice."""
    x = rng.standard_normal((n, dim)).astype(np.float32)
    w = rng.standard_normal((dim, num_classes))
    y = (x @ w).argmax(axis=1)
    return x, y


def make_model(dim=12, num_classes=3):
    return nn.Sequential(nn.Linear(dim, 32), nn.ReLU(), nn.Linear(32, 32), nn.ReLU(),
                         nn.Linear(32, num_classes))


class TestTrainer:
    def test_loss_decreases(self, rng):
        x, y = make_task(rng)
        loader = DataLoader(x, y, 16, shuffle=True)
        model = make_model()
        t = Trainer(model, SGD(model.parameters(), lr=0.1, momentum=0.9))
        t.fit(loader, loader, epochs=5)
        assert t.history[-1].train_loss < t.history[0].train_loss

    def test_amp_epoch_builds_the_arena_once(self, rng):
        """The AMP round trip writes the fp16-rounded values back into the
        parameter arrays, so the optimizer's arena (and its momentum), built
        with the optimizer, lives through every step of the epoch."""
        x, y = make_task(rng)
        loader = DataLoader(x, y, 16, shuffle=True)
        model = make_model()
        with obs.observe(tracing=False) as (_, registry):
            registry.reset()
            t = Trainer(model, SGD(model.parameters(), lr=0.1, momentum=0.9), amp=True)
            t.train_epoch(loader)
            counters = registry.counters()
        assert counters.get("arena.builds") == 1
        assert counters.get("arena.rebuilds", 0) == 0

    def test_history_fields(self, rng):
        x, y = make_task(rng)
        loader = DataLoader(x, y, 32)
        model = make_model()
        t = Trainer(model, SGD(model.parameters(), lr=0.05))
        t.fit(loader, loader, epochs=2)
        assert len(t.history) == 2
        s = t.history[0]
        assert s.epoch == 0 and s.num_parameters == model.num_parameters()
        assert 0.0 <= s.val_metric <= 1.0

    def test_evaluate_does_not_update_params(self, rng):
        x, y = make_task(rng)
        loader = DataLoader(x, y, 32)
        model = make_model()
        before = model.state_dict()
        Trainer(model, SGD(model.parameters(), lr=0.1)).evaluate(loader)
        after = model.state_dict()
        for k in before:
            assert np.allclose(before[k], after[k])

    def test_grad_clip_applied(self, rng):
        x, y = make_task(rng)
        loader = DataLoader(x, y, 32)
        model = make_model()
        t = Trainer(model, SGD(model.parameters(), lr=0.05), grad_clip=1e-8)
        before = model.state_dict()
        t.fit(loader, loader, epochs=1)
        # With a near-zero clip the weights barely move.
        for k, v in model.state_dict().items():
            assert np.allclose(before[k], v, atol=1e-4)

    def test_post_step_callback_invoked(self, rng):
        x, y = make_task(rng)
        loader = DataLoader(x, y, 32)
        model = make_model()
        calls = []
        t = Trainer(model, SGD(model.parameters(), lr=0.05), post_step=lambda m: calls.append(1))
        t.fit(loader, loader, epochs=1)
        assert len(calls) == len(loader)

    def test_amp_mode_trains(self, rng):
        x, y = make_task(rng)
        loader = DataLoader(x, y, 16, shuffle=True)
        model = make_model()
        t = Trainer(model, SGD(model.parameters(), lr=0.1, momentum=0.9), amp=True)
        t.fit(loader, loader, epochs=4)
        assert t.history[-1].train_loss < t.history[0].train_loss

    def test_scheduler_steps_per_epoch(self, rng):
        from repro.optim import MultiStepLR

        x, y = make_task(rng)
        loader = DataLoader(x, y, 32)
        model = make_model()
        opt = SGD(model.parameters(), lr=0.1)
        t = Trainer(model, opt, scheduler=MultiStepLR(opt, [1], gamma=0.1))
        t.fit(loader, loader, epochs=2)
        assert opt.lr == pytest.approx(0.01)


class TestPufferfishTrainer:
    def _run(self, rng, warmup, total):
        x, y = make_task(rng)
        loader = DataLoader(x, y, 16, shuffle=True)
        model = make_model()
        pt = PufferfishTrainer(
            model,
            FactorizationConfig(rank_ratio=0.25),
            optimizer_factory=lambda ps: SGD(ps, lr=0.1, momentum=0.9),
            warmup_epochs=warmup,
            total_epochs=total,
        )
        hybrid = pt.fit(loader, loader)
        return pt, hybrid, model

    def test_phase_sequence(self, rng):
        pt, hybrid, model = self._run(rng, warmup=2, total=5)
        phases = [s.phase for s in pt.history]
        assert phases == ["warmup", "warmup", "lowrank", "lowrank", "lowrank"]

    def test_param_count_drops_at_switch(self, rng):
        pt, hybrid, model = self._run(rng, warmup=2, total=4)
        assert pt.history[1].num_parameters > pt.history[2].num_parameters
        assert hybrid.num_parameters() < model.num_parameters()

    def test_report_available(self, rng):
        pt, _, _ = self._run(rng, warmup=1, total=2)
        assert pt.report is not None
        assert pt.report.compression > 1.0

    def test_zero_warmup_trains_lowrank_from_scratch(self, rng):
        pt, hybrid, _ = self._run(rng, warmup=0, total=3)
        assert all(s.phase == "lowrank" for s in pt.history)

    def test_warmup_equals_total_is_vanilla_training(self, rng):
        pt, hybrid, _ = self._run(rng, warmup=3, total=3)
        assert all(s.phase == "warmup" for s in pt.history)
        # The hybrid exists but was never trained further.
        assert pt.report is not None

    def test_warmup_exceeding_total_raises(self, rng):
        model = make_model()
        with pytest.raises(ValueError):
            PufferfishTrainer(
                model,
                FactorizationConfig(),
                optimizer_factory=lambda ps: SGD(ps, lr=0.1),
                warmup_epochs=5,
                total_epochs=3,
            )

    def test_learns_the_task(self, rng):
        pt, hybrid, _ = self._run(rng, warmup=3, total=10)
        assert pt.history[-1].val_metric > 0.7

    def test_epoch_numbering_continuous(self, rng):
        pt, _, _ = self._run(rng, warmup=2, total=5)
        assert [s.epoch for s in pt.history] == [0, 1, 2, 3, 4]

    def test_lr_decay_at_switch(self, rng):
        x, y = make_task(rng)
        loader = DataLoader(x, y, 32)
        model = make_model()
        pt = PufferfishTrainer(
            model,
            FactorizationConfig(rank_ratio=0.25),
            optimizer_factory=lambda ps: SGD(ps, lr=0.1),
            warmup_epochs=1,
            total_epochs=2,
            lr_decay_at_switch=0.5,
        )
        pt.fit(loader, loader)
        assert pt.history[-1].lr == pytest.approx(0.05)


class TestDistributedTrainer:
    """``fit`` on two simulated ranks of an MLP: the single-node loop."""

    WORLD = 2

    def _setup(self, rng):
        x, y = make_task(rng)
        loaders = [DataLoader(sx, sy, 16) for sx, sy in shard_dataset(x, y, self.WORLD)]
        return loaders, DataLoader(x, y, 32), MLP(12, [32, 32], 3)

    def _ddp(self, model, opt):
        return DistributedTrainer(model, opt, ClusterSpec(self.WORLD, 1.0))

    def test_fit_is_train_epoch_then_the_old_evaluate(self, rng):
        loaders, val, model = self._setup(rng)
        twin = copy.deepcopy(model)
        trainer = self._ddp(model, SGD(model.parameters(), lr=0.1, momentum=0.9))
        trainer.fit(loaders, val, epochs=3)

        by_hand = self._ddp(twin, SGD(twin.parameters(), lr=0.1, momentum=0.9))
        assert len(trainer.history) == 3
        for epoch, s in enumerate(trainer.history):
            timeline = by_hand.train_epoch(loaders)
            # What DistributedTrainer.evaluate did: a throwaway Trainer.
            old = Trainer(twin, by_hand.optimizer).evaluate(val)
            assert isinstance(s.timeline, TimelineBreakdown)
            assert s.epoch == epoch and s.phase == "train"
            assert (s.timeline.iterations, s.timeline.bytes_per_iteration, s.timeline.comm) == (
                timeline.iterations, timeline.bytes_per_iteration, timeline.comm
            )
            assert math.isfinite(s.train_loss)
            assert (s.val_loss, s.val_metric) == old

    def test_train_loss_is_the_workers_mean_loss(self, rng):
        loaders, val, model = self._setup(rng)
        trainer = self._ddp(model, SGD(model.parameters(), lr=0.0))
        trainer.fit(loaders, val, epochs=1)
        losses = [float(trainer.batch_fn(model, b)[0].data) for dl in loaders for b in dl]
        assert trainer.history[0].train_loss == pytest.approx(np.mean(losses), rel=1e-6)
        single = Trainer(model, SGD(model.parameters(), lr=0.0))
        single.fit(val, val, epochs=1)
        assert single.history[0].timeline is None

    def test_pufferfish_over_ddp(self, rng):
        loaders, val, model = self._setup(rng)
        pt = PufferfishTrainer(
            model,
            FactorizationConfig(rank_ratio=0.25),
            lambda ps: SGD(ps, lr=0.1, momentum=0.9),
            warmup_epochs=1,
            total_epochs=3,
            trainer_factory=self._ddp,
        )
        hybrid = pt.fit(loaders, val)
        assert [s.phase for s in pt.history] == ["warmup", "lowrank", "lowrank"]
        assert pt.report is not None and pt.report.replaced
        assert hybrid is pt.hybrid_model
        assert hybrid.num_parameters() < model.num_parameters()
        tl = [s.timeline for s in pt.history]
        assert tl[1].bytes_per_iteration < tl[0].bytes_per_iteration
        # The SVD is on pt.report, not on the simulated clock: the first
        # low-rank epoch is charged what every low-rank epoch is.
        assert [t.other for t in tl] == [0.0, 0.0, 0.0]
        assert tl[1].comm == tl[2].comm


class TestConfigBuilder:
    def test_builder_sees_warmup_weights(self, rng):
        """config_builder must receive the model *after* warm-up training."""
        from repro.core import FactorizationConfig

        x, y = make_task(rng)
        loader = DataLoader(x, y, 32)
        model = make_model()
        initial = model.state_dict()
        seen = {}

        def builder(m):
            seen["weights_changed"] = not all(
                np.allclose(initial[k], v) for k, v in m.state_dict().items()
            )
            return FactorizationConfig(rank_ratio=0.5)

        pt = PufferfishTrainer(
            model,
            FactorizationConfig(rank_ratio=0.25),
            optimizer_factory=lambda ps: SGD(ps, lr=0.1),
            warmup_epochs=2,
            total_epochs=3,
            config_builder=builder,
        )
        pt.fit(loader, loader)
        assert seen["weights_changed"]
        # The builder's config (ratio 0.5) won, not the constructor's 0.25.
        assert pt.config.rank_ratio == 0.5

    def test_spectrum_allocation_via_builder(self, rng):
        from repro.core import FactorizationConfig, energy_rank_allocation

        x, y = make_task(rng)
        loader = DataLoader(x, y, 32)
        model = make_model()
        pt = PufferfishTrainer(
            model,
            FactorizationConfig(),
            optimizer_factory=lambda ps: SGD(ps, lr=0.1),
            warmup_epochs=1,
            total_epochs=2,
            config_builder=lambda m: FactorizationConfig(
                rank_overrides=energy_rank_allocation(m, 0.8)
            ),
        )
        pt.fit(loader, loader)
        assert pt.report.replaced  # the allocation produced real overrides


def make_translation(rng, n=40):
    ds = make_translation_dataset(n=n, vocab_size=12, min_len=2, max_len=6, rng=rng)
    model = Seq2SeqTransformer(vocab_size=12, d_model=16, n_heads=2, num_layers=2,
                               d_ff=32, dropout=0.0, max_len=10)
    loss_fn = nn.CrossEntropyLoss(ignore_index=0, label_smoothing=0.1)
    return ds, model, functools.partial(seq2seq_batch, loss_fn=loss_fn)


class TestSeq2Seq:
    def test_train_metric_is_token_weighted_loss(self, rng):
        ds, model, batch_fn = make_translation(rng)
        loader = ds.batches(16)
        # lr 0 keeps the weights, so the batch losses can be recomputed.
        t = Trainer(model, SGD(model.parameters(), lr=0.0), batch_fn=batch_fn)
        t.fit(loader, loader, epochs=1)
        losses, tokens = zip(*[batch_fn(model, b)[::2] for b in loader])
        losses = [float(loss.data) for loss in losses]
        weighted = sum(l * n for l, n in zip(losses, tokens)) / sum(tokens)
        assert t.history[0].train_metric == pytest.approx(weighted, rel=1e-12)
        assert t.history[0].train_loss == pytest.approx(np.mean(losses), rel=1e-12)
        assert sum(tokens) == int((ds.tgt[:, 1:] != 0).sum())

    def test_algorithm1_on_translation_logs_every_epoch(self, rng, caplog):
        ds, model, batch_fn = make_translation(rng)
        train, val = ds.split(32)
        pt = PufferfishTrainer(model, transformer_hybrid_config(0.5),
                               lambda ps: SGD(ps, lr=0.05), warmup_epochs=1,
                               total_epochs=3,
                               trainer_factory=lambda m, o: Trainer(m, o, batch_fn=batch_fn))
        with caplog.at_level(logging.INFO, logger="repro.core.trainer"):
            hybrid = pt.fit(train.batches(8), val.batches(len(val)))
        assert [s.phase for s in pt.history] == ["warmup", "lowrank", "lowrank"]
        lines = [r.getMessage().split()[0] for r in caplog.records]
        assert lines == ["epoch", "converted", "epoch", "epoch"]
        assert hybrid.num_parameters() < model.num_parameters()

    def test_evaluate_translation_is_pure(self, rng):
        ds, model, _ = make_translation(rng)
        before = model.state_dict()
        first = evaluate_translation(model, ds)
        assert evaluate_translation(model, ds) == first
        assert 0.0 <= first[1] <= 100.0 and first[0] > 0.0
        for k, v in model.state_dict().items():
            assert np.array_equal(v, before[k])


class TestLMBatch:
    def test_state_carries_detached_until_reset(self, rng):
        lm = LSTMLanguageModel(12, embed_dim=8, num_layers=2, dropout=0.0)
        x, y = rng.integers(0, 12, (2, 5, 3))
        loss_fn = nn.CrossEntropyLoss()
        fresh, metric, count = lm_batch(lm, (x, y, True), loss_fn)
        assert count == y.size and metric == float(fresh.data) * y.size
        assert all(not (h.requires_grad or c.requires_grad) for h, c in lm.carry)
        carried = lm_batch(lm, (x, y, False), loss_fn)[0]  # from the state after x
        again = lm_batch(lm, (x, y, True), loss_fn)[0]
        assert float(carried.data) != float(fresh.data)
        assert float(again.data) == float(fresh.data)
