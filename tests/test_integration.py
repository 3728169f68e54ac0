"""End-to-end integration tests: models learn the synthetic tasks, and the
paper's qualitative orderings hold at miniature scale.

These are the smallest-possible versions of the benchmark experiments —
they assert direction, not magnitude, and stay fast enough for CI.
"""

import numpy as np

from repro import nn
from repro.core import (
    FactorizationConfig,
    PufferfishTrainer,
    Trainer,
    build_hybrid,
)
from repro.data import DataLoader, make_cifar_like, make_lm_corpus, batchify, get_lm_batch
from repro.metrics import perplexity
from repro.models import LSTMLanguageModel, lstm_lm_hybrid_config
from repro.optim import SGD, Adam, clip_grad_norm
from repro.tensor import Tensor
from repro.utils import set_seed


def image_task(rng, n=256, classes=4, noise=0.15):
    ds = make_cifar_like(n=n, num_classes=classes, noise=noise, rng=rng)
    tr, va = ds.split(int(0.8 * n))
    return (
        DataLoader(tr.images, tr.labels, 32, shuffle=True),
        DataLoader(va.images, va.labels, 64),
    )


def small_cnn(classes=4):
    return nn.Sequential(
        nn.Conv2d(3, 16, 3, padding=1), nn.BatchNorm2d(16), nn.ReLU(), nn.MaxPool2d(2),
        nn.Conv2d(16, 32, 3, padding=1), nn.BatchNorm2d(32), nn.ReLU(), nn.MaxPool2d(2),
        nn.Conv2d(32, 32, 3, padding=1), nn.ReLU(), nn.GlobalAvgPool2d(),
        nn.Linear(32, classes),
    )


class TestImageClassificationLearns:
    def test_cnn_beats_chance(self, rng):
        train, val = image_task(rng)
        model = small_cnn()
        t = Trainer(model, SGD(model.parameters(), lr=0.05, momentum=0.9))
        t.fit(train, val, epochs=6)
        assert t.history[-1].val_metric > 0.5  # chance = 0.25

    def test_pufferfish_full_pipeline_learns(self, rng):
        from repro.optim import MultiStepLR

        train, val = image_task(rng)
        model = small_cnn()
        pt = PufferfishTrainer(
            model,
            FactorizationConfig(rank_ratio=0.25),
            optimizer_factory=lambda ps: SGD(ps, lr=0.05, momentum=0.9),
            trainer_factory=lambda m, o: Trainer(m, o, scheduler=MultiStepLR(o, [6], gamma=0.1)),
            warmup_epochs=2,
            total_epochs=10,
        )
        hybrid = pt.fit(train, val)
        best = max(s.val_metric for s in pt.history)
        assert best > 0.5
        assert hybrid.num_parameters() < model.num_parameters()

    def test_accuracy_survives_conversion(self, rng):
        # Switching to low rank must not destroy the warm-up progress:
        # first low-rank epoch accuracy >= 0.6 * last warm-up accuracy.
        train, val = image_task(rng)
        model = small_cnn()
        pt = PufferfishTrainer(
            model,
            FactorizationConfig(rank_ratio=0.25),
            optimizer_factory=lambda ps: SGD(ps, lr=0.05, momentum=0.9),
            warmup_epochs=4,
            total_epochs=6,
        )
        pt.fit(train, val)
        warm = [s for s in pt.history if s.phase == "warmup"][-1]
        low = [s for s in pt.history if s.phase == "lowrank"][0]
        assert low.val_metric >= 0.6 * warm.val_metric


class TestPaperOrderings:
    def test_warmup_beats_scratch_lowrank(self, rng):
        """Table 8's core ablation at miniature scale: hybrid + warm-up
        reaches at least the accuracy of low-rank-from-scratch (averaged
        over seeds to control noise)."""

        from repro.optim import MultiStepLR

        def run(warmup_epochs, seed):
            set_seed(seed)
            r = np.random.default_rng(seed)
            train, val = image_task(r, n=320, noise=0.25)
            model = small_cnn()
            pt = PufferfishTrainer(
                model,
                FactorizationConfig(rank_ratio=0.2),
                optimizer_factory=lambda ps: SGD(ps, lr=0.05, momentum=0.9),
                trainer_factory=lambda m, o: Trainer(
                    m, o, scheduler=MultiStepLR(o, [5], gamma=0.1)
                ),
                warmup_epochs=warmup_epochs,
                total_epochs=8,
            )
            pt.fit(train, val)
            return max(s.val_metric for s in pt.history if s.phase == "lowrank")

        # 3-seed mean, tolerance one part in twenty.
        seeds = [0, 1, 2]
        with_warm = np.mean([run(3, s) for s in seeds])
        scratch = np.mean([run(0, s) for s in seeds])
        assert with_warm >= scratch - 0.05

    def test_factorized_model_fewer_macs(self, rng):
        from repro.metrics import measure_macs

        model = small_cnn()
        hybrid, _ = build_hybrid(model, FactorizationConfig(rank_ratio=0.25))
        x = Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32))
        assert measure_macs(hybrid, x) < measure_macs(model, x)


class TestLanguageModelLearns:
    def test_lstm_lm_beats_uniform(self, rng):
        corpus = make_lm_corpus(vocab_size=40, n_train=4000, branching=4, rng=rng)
        lm = LSTMLanguageModel(vocab_size=40, embed_dim=24, num_layers=1, dropout=0.0)
        opt = SGD(lm.parameters(), lr=2.0)
        data = batchify(corpus.train, 10)
        loss_fn = nn.CrossEntropyLoss()
        bptt = 8
        for epoch in range(3):
            states = None
            for i in range(0, len(data) - 1, bptt):
                x, y = get_lm_batch(data, i, bptt)
                opt.zero_grad()
                logits, states = lm(x, states)
                states = lm.detach_states(states)
                loss = loss_fn(logits.reshape(-1, 40), y.reshape(-1))
                loss.backward()
                clip_grad_norm(opt.params, 0.25)
                opt.step()
        final_ppl = perplexity(float(loss.data))
        assert final_ppl < 40  # uniform baseline = vocab size

    def test_factorized_lm_trains(self, rng):
        corpus = make_lm_corpus(vocab_size=30, n_train=2000, branching=4, rng=rng)
        lm = LSTMLanguageModel(vocab_size=30, embed_dim=16, num_layers=2, dropout=0.0)
        hybrid, report = build_hybrid(lm, lstm_lm_hybrid_config())
        assert report.compression > 1.0
        data = batchify(corpus.train, 8)
        opt = SGD(hybrid.parameters(), lr=1.0)
        loss_fn = nn.CrossEntropyLoss()
        losses = []
        for epoch in range(2):
            states = None
            for i in range(0, len(data) - 1, 8):
                x, y = get_lm_batch(data, i, 8)
                opt.zero_grad()
                logits, states = hybrid(x, states)
                states = hybrid.detach_states(states)
                loss = loss_fn(logits.reshape(-1, 30), y.reshape(-1))
                loss.backward()
                clip_grad_norm(opt.params, 0.25)
                opt.step()
                losses.append(float(loss.data))
        assert losses[-1] < losses[0]


class TestTransformerLearns:
    def test_copy_task_teacher_forced_accuracy(self, rng):
        from repro.data import make_translation_dataset
        from repro.models import Seq2SeqTransformer

        ds = make_translation_dataset(n=256, vocab_size=16, min_len=3, max_len=6, rng=rng)
        tr = Seq2SeqTransformer(vocab_size=16, d_model=32, n_heads=4, num_layers=2,
                                d_ff=64, dropout=0.0, max_len=16)
        opt = Adam(tr.parameters(), lr=1e-3)
        loss_fn = nn.CrossEntropyLoss(ignore_index=0)
        for epoch in range(16):
            for i in range(0, len(ds), 64):
                src = ds.src[i : i + 64]
                tgt = ds.tgt[i : i + 64]
                opt.zero_grad()
                logits = tr(src, tgt[:, :-1])
                loss = loss_fn(logits.reshape(-1, 16), tgt[:, 1:].reshape(-1))
                loss.backward()
                opt.step()
        # Teacher-forced next-token accuracy well above chance (1/13 real).
        logits = tr(ds.src[:64], ds.tgt[:64, :-1]).data
        pred = logits.argmax(axis=-1)
        mask = ds.tgt[:64, 1:] != 0
        acc = (pred == ds.tgt[:64, 1:])[mask].mean()
        assert acc > 0.25


class TestAMPIntegration:
    def test_amp_matches_fp32_closely(self, rng):
        """Table 4's AMP claim in miniature: mixed-precision training lands
        within a few points of FP32 on the same task."""

        def run(amp, seed=3):
            set_seed(seed)
            r = np.random.default_rng(seed)
            train, val = image_task(r, n=256, noise=0.15)
            model = small_cnn()
            t = Trainer(model, SGD(model.parameters(), lr=0.05, momentum=0.9), amp=amp)
            t.fit(train, val, epochs=5)
            return t.history[-1].val_metric

        assert abs(run(True) - run(False)) < 0.25
