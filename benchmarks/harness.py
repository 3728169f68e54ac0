"""Shared utilities for the per-table / per-figure benchmark harnesses.

Every benchmark prints the paper's rows next to the measured ones, so the
captured output (``pytest benchmarks/ --benchmark-only -s``) doubles as the
EXPERIMENTS.md source material.  Workloads are scaled down for CPU (see
DESIGN.md "Scaling policy") — the assertions check *shape* (direction and
rough factors), not absolute numbers.

Every machine-readable record goes through this module too.  A bench module
fills the body that :func:`artifact` hands it (``harness.artifact("cluster")
["scenarios"]``), each printed table/series lands in the ``observability``
suite, and the benchmarks ``conftest`` calls :func:`flush_bench_metrics` at
session end, which writes one ``BENCH_<suite>.json`` per suite that
recorded something.
"""

from __future__ import annotations

import json
import platform
import time

import numpy as np

from repro import __version__, nn
from repro.data import DataLoader, make_cifar_like, make_imagenet_like, shard_dataset
from repro.observability import get_registry
from repro.optim import SGD, MultiStepLR
from repro.utils import set_seed

__all__ = [
    "artifact",
    "print_table",
    "print_series",
    "record_bench",
    "flush_bench_metrics",
    "image_loaders",
    "imagenet_loaders",
    "rank_loaders",
    "ddp_epoch",
    "scaled_vgg19",
    "scaled_resnet18",
    "scaled_resnet50",
    "scaled_wrn50",
    "train_classifier",
    "eb_search",
    "fig4_endtoend",
    "fmt",
]

# ---------------------------------------------------------------------------
# Machine-readable benchmark artifacts (the CI perf record)
# ---------------------------------------------------------------------------

_ARTIFACTS: dict[str, dict] = {}


def artifact(suite: str, body: dict | None = None) -> dict:
    """The body of ``BENCH_<suite>.json``: ``body`` (default
    ``{"scenarios": {}}``) on the first call for ``suite``, the same dict
    on every later one.  A bench module fills it; :func:`flush_bench_metrics`
    writes it."""
    return _ARTIFACTS.setdefault(suite, {"scenarios": {}} if body is None else body)


def record_bench(kind: str, title: str, payload: dict) -> None:
    """Append one printed table/series to the ``observability`` suite."""
    artifact("observability", {"records": []})["records"].append(
        {"kind": kind, "title": title, **payload})


def flush_bench_metrics() -> list[str]:
    """Write ``BENCH_<suite>.json`` into the working directory for every
    suite that recorded something: the envelope (``generated_at``,
    ``repro_version``, ``python``) plus the suite's body.  The
    ``observability`` suite also gets a metrics-registry snapshot.

    Called from the benchmarks ``conftest`` at session end; returns the
    paths written.
    """
    envelope = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "repro_version": __version__,
        "python": platform.python_version(),
    }
    paths = []
    for suite, body in _ARTIFACTS.items():
        if not any(body.values()):
            continue
        if suite == "observability":
            body = {**body, "metrics": get_registry().snapshot()}
        path = f"BENCH_{suite}.json"
        with open(path, "w") as f:
            json.dump({**envelope, **body}, f, indent=2, sort_keys=True, default=str)
        paths.append(path)
    return paths


def fmt(v) -> str:
    if isinstance(v, float):
        if abs(v) >= 1000:
            return f"{v:,.0f}"
        return f"{v:.4g}"
    if isinstance(v, int) and abs(v) >= 1000:
        return f"{v:,}"
    return str(v)


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Aligned plain-text table for benchmark output."""
    record_bench("table", title, {"headers": list(headers), "rows": [list(r) for r in rows]})
    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    print(f"\n=== {title} ===")
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for r in str_rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


def print_series(title: str, xlabel: str, series: dict[str, list]) -> None:
    """Print named series (the data behind a figure)."""
    record_bench(
        "series", title, {"xlabel": xlabel, "series": {k: list(v) for k, v in series.items()}}
    )
    print(f"\n=== {title} (x = {xlabel}) ===")
    for name, values in series.items():
        print(f"{name:>28}: " + " ".join(fmt(v) for v in values))


# ---------------------------------------------------------------------------
# Scaled workloads
# ---------------------------------------------------------------------------

def image_loaders(rng, n=384, classes=4, noise=0.2, batch=32):
    """Synthetic CIFAR-10 stand-in split into train/val loaders."""
    ds = make_cifar_like(n=n, num_classes=classes, noise=noise, rng=rng)
    tr, va = ds.split(int(0.8 * n))
    return (
        DataLoader(tr.images, tr.labels, batch, shuffle=True),
        DataLoader(va.images, va.labels, 2 * batch),
        ds,
    )


def imagenet_loaders(rng, n=256, classes=8, size=32, noise=0.2, batch=32):
    """Synthetic ImageNet stand-in (more classes, finer structure)."""
    ds = make_imagenet_like(n=n, num_classes=classes, size=size, noise=noise, rng=rng)
    tr, va = ds.split(int(0.8 * n))
    return (
        DataLoader(tr.images, tr.labels, batch, shuffle=True),
        DataLoader(va.images, va.labels, 2 * batch),
        ds,
    )


def scaled_vgg19(classes=4, width=0.125):
    from repro.models import vgg19

    return vgg19(num_classes=classes, width_mult=width)


def scaled_resnet18(classes=4, width=0.25):
    from repro.models import resnet18

    return resnet18(num_classes=classes, width_mult=width)


def scaled_resnet50(classes=8, width=0.125):
    from repro.models import resnet50

    return resnet50(num_classes=classes, width_mult=width, small_input=True)


def scaled_wrn50(classes=8, width=0.125):
    from repro.models import wide_resnet50_2

    return wide_resnet50_2(num_classes=classes, width_mult=width, small_input=True)


def train_classifier(model, train, val, epochs, lr=0.05, momentum=0.9, decay_at=None,
                     amp=False):
    """Train and return (best val accuracy, history)."""
    from repro.core import Trainer

    opt = SGD(model.parameters(), lr=lr, momentum=momentum, weight_decay=1e-4)
    sched = MultiStepLR(opt, decay_at, gamma=0.1) if decay_at else None
    t = Trainer(model, opt, scheduler=sched, amp=amp)
    t.fit(train, val, epochs=epochs)
    return max(s.val_metric for s in t.history), t.history


def eb_search(model, train, detector, epochs):
    """EB Train's search phase (Table 7): SGD with the network-slimming L1
    term on BN γ in the loss, one epoch at a time, until ``detector`` draws
    the early-bird ticket.

    Returns the number of search epochs run.
    """
    from repro.core import Trainer
    from repro.pruning import bn_l1_penalty

    ce = nn.CrossEntropyLoss()
    trainer = Trainer(model, SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-4),
                      loss_fn=lambda logits, y: ce(logits, y) + bn_l1_penalty(model, 1e-3))
    for epoch in range(epochs):
        # The search reads only γ, never a validation score.
        trainer.fit(train, (), epochs=1, start_epoch=epoch)
        if detector.update(model, epoch):
            return epoch + 1
    return epochs


# ---------------------------------------------------------------------------
# Simulated data parallelism (Figs. 4, 6, 7)
# ---------------------------------------------------------------------------

def rank_loaders(seed, n_nodes, worker_batch, iters, pool):
    """``n_nodes`` per-rank train loaders of ``iters`` batches of
    ``worker_batch`` each, cut from the shuffled train split of a
    ``pool``-image synthetic CIFAR set seeded ``seed``, plus that set's val
    loader.  Every batch is full only when the set's 80 % train split holds
    ``worker_batch * n_nodes * iters`` images.

    Images and labels come from one shuffled pass over the train loader,
    so each label stays with its image.
    """
    n = worker_batch * n_nodes * iters
    train, val, _ = image_loaders(np.random.default_rng(seed), n=pool, classes=4,
                                  batch=worker_batch)
    batches = list(train)
    x = np.concatenate([xb for xb, _ in batches])[:n]
    y = np.concatenate([yb for _, yb in batches])[:n]
    return [DataLoader(sx, sy, worker_batch) for sx, sy in shard_dataset(x, y, n_nodes)], val


def ddp_epoch(model, compressor_factory, n_nodes, seed, bandwidth, worker_batch, iters, pool,
              **trainer_kwargs):
    """One epoch of ``model`` on ``n_nodes`` simulated ranks linked at
    ``bandwidth`` Gbps: SGD (lr 0.05, momentum 0.9), the codec
    ``compressor_factory(n_nodes)``, :func:`rank_loaders` seeded ``seed``.
    Returns the epoch's ``TimelineBreakdown``."""
    from repro.distributed import ClusterSpec, DistributedTrainer

    set_seed(seed)
    loaders, _ = rank_loaders(seed, n_nodes, worker_batch, iters, pool)
    opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
    trainer = DistributedTrainer(model, opt, ClusterSpec(n_nodes, bandwidth_gbps=bandwidth),
                                 compressor=compressor_factory(n_nodes), **trainer_kwargs)
    return trainer.train_epoch(loaders)


def _fig4_rows(history, svd_seconds=0.0):
    clock, rows = 0.0, []
    for s in history:
        if s.phase == "lowrank":  # the SVD joins the clock at the switch
            clock, svd_seconds = clock + svd_seconds, 0.0
        clock += s.timeline.total
        rows.append({"clock": clock, "val_loss": s.val_loss, "val_acc": s.val_metric,
                     "comm": s.timeline.comm,
                     "bytes_per_iteration": s.timeline.bytes_per_iteration,
                     "iterations": s.timeline.iterations, "params": s.num_parameters})
    return rows


def fig4_endtoend(cluster, epochs, warmup, worker_batch, iters=4, width=0.25, seed=44):
    """Vanilla SGD and Pufferfish (warm-up, SVD, low-rank) for ``epochs`` each on
    the simulated ``cluster`` (ResNet-18 at ``width``, ``iters`` iterations of
    ``worker_batch`` per rank and epoch) -> ``{"vanilla": rows, "pufferfish": rows}``,
    one row per epoch: simulated clock so far (Pufferfish's includes the SVD),
    val loss and accuracy, modeled comm seconds, wire bytes, iterations, params."""
    from repro.core import PufferfishTrainer
    from repro.distributed import DistributedTrainer
    from repro.models import resnet18_hybrid_config

    make_opt = lambda params: SGD(params, lr=0.05, momentum=0.9)
    make_trainer = lambda model, opt: DistributedTrainer(model, opt, cluster)
    pool = worker_batch * cluster.world_size * iters + 64

    set_seed(seed)
    loaders, val = rank_loaders(seed, cluster.world_size, worker_batch, iters, pool)
    vanilla = scaled_resnet18(classes=4, width=width)
    trainer = make_trainer(vanilla, make_opt(vanilla.parameters()))
    trainer.fit(loaders, val, epochs)

    set_seed(seed)
    loaders, val = rank_loaders(seed, cluster.world_size, worker_batch, iters, pool)
    model = scaled_resnet18(classes=4, width=width)
    pt = PufferfishTrainer(model, resnet18_hybrid_config(model), make_opt, warmup, epochs,
                           make_trainer)
    pt.fit(loaders, val)
    return {"vanilla": _fig4_rows(trainer.history),
            "pufferfish": _fig4_rows(pt.history, pt.report.svd_seconds)}


# ---------------------------------------------------------------------------
# Language-model harness (Tables 2 / 9)
# ---------------------------------------------------------------------------

def lm_task(rng, vocab=120, n_train=8000, n_valid=1600, n_test=1600, branching=6):
    from repro.data import make_lm_corpus

    return make_lm_corpus(
        vocab_size=vocab, n_train=n_train, n_valid=n_valid, n_test=n_test,
        branching=branching, rng=rng,
    )


def run_lm(model, corpus, epochs, bptt=16, batch=16, lr=2.0, warmup_epochs=None):
    """Train an LSTM LM with SGD, gradient clipping at 0.25 and a plateau LR
    decay for ``epochs``: vanilla, or Algorithm 1 (rank ratio 0.25) after
    ``warmup_epochs`` of warm-up, halving the LR at the switch as the paper
    does for the LSTM (``warmup_epochs=0`` trains the factorized model from
    scratch at the full LR).

    Returns the final model, its parameter count, and its last-epoch train,
    val and test NLL (token-weighted).
    """
    import functools

    from repro.core import PufferfishTrainer, Trainer, lm_batch
    from repro.data import batchify, lm_chunks
    from repro.models import lstm_lm_hybrid_config
    from repro.optim import ReduceLROnPlateau

    train, val, test = (lm_chunks(batchify(split, batch), bptt)
                        for split in (corpus.train, corpus.valid, corpus.test))
    batch_fn = functools.partial(lm_batch, loss_fn=nn.CrossEntropyLoss())
    make_opt = lambda params: SGD(params, lr=lr)
    make_trainer = lambda m, opt: Trainer(m, opt, batch_fn=batch_fn, grad_clip=0.25,
                                          scheduler=ReduceLROnPlateau(opt, factor=0.25))
    if warmup_epochs is None:
        trainer = make_trainer(model, make_opt(model.parameters()))
        trainer.fit(train, val, epochs)
    else:
        trainer = PufferfishTrainer(model, lstm_lm_hybrid_config(0.25), make_opt, warmup_epochs,
                                    epochs, make_trainer,
                                    lr_decay_at_switch=0.5 if warmup_epochs else 1.0)
        model = trainer.fit(train, val)
    last = trainer.history[-1]
    return {
        "model": model,
        "params": model.num_parameters(),
        "train_nll": last.train_metric,
        "val_nll": last.val_metric,
        "test_nll": Trainer(model, None, batch_fn=batch_fn).evaluate(test)[1],
    }


# ---------------------------------------------------------------------------
# Translation harness (Table 3)
# ---------------------------------------------------------------------------

def translation_task(rng, n=512, vocab=24, min_len=3, max_len=7):
    from repro.data import make_translation_dataset

    ds = make_translation_dataset(n=n, vocab_size=vocab, min_len=min_len,
                                  max_len=max_len, rng=rng)
    return ds.split(int(0.85 * n))


def run_translation(model, train_ds, val_ds, epochs, warmup_epochs=None, batch=64, lr=1e-3):
    """Train a seq2seq transformer with Adam for ``epochs``: vanilla, or
    Algorithm 1 (rank ratio 0.25) after ``warmup_epochs`` of warm-up.

    Returns the final model's parameter count, last-epoch train NLL
    (token-weighted, label-smoothed), val NLL and val BLEU.
    """
    import functools

    from repro.core import PufferfishTrainer, Trainer, seq2seq_batch
    from repro.metrics import evaluate_translation
    from repro.models import transformer_hybrid_config
    from repro.optim import Adam

    loss_fn = nn.CrossEntropyLoss(ignore_index=0, label_smoothing=0.1)
    batch_fn = functools.partial(seq2seq_batch, loss_fn=loss_fn)
    loaders = (train_ds.batches(batch), val_ds.batches(len(val_ds)))
    make_opt = lambda params: Adam(params, lr=lr)
    make_trainer = lambda m, opt: Trainer(m, opt, batch_fn=batch_fn)
    if warmup_epochs is None:
        trainer = make_trainer(model, make_opt(model.parameters()))
        trainer.fit(*loaders, epochs=epochs)
    else:
        trainer = PufferfishTrainer(model, transformer_hybrid_config(0.25), make_opt,
                                    warmup_epochs, epochs, make_trainer)
        model = trainer.fit(*loaders)
    val_nll, val_bleu = evaluate_translation(model, val_ds)
    return {"params": model.num_parameters(), "train_nll": trainer.history[-1].train_metric,
            "val_nll": val_nll, "val_bleu": val_bleu}
