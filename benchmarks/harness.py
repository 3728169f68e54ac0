"""Shared utilities for the per-table / per-figure benchmark harnesses.

Every benchmark prints the paper's rows next to the measured ones, so the
captured output (``pytest benchmarks/ --benchmark-only -s``) doubles as the
EXPERIMENTS.md source material.  Workloads are scaled down for CPU (see
DESIGN.md "Scaling policy") — the assertions check *shape* (direction and
rough factors), not absolute numbers.
"""

from __future__ import annotations

import json
import platform
import time


from repro import __version__, nn
from repro.data import DataLoader, make_cifar_like, make_imagenet_like
from repro.observability import get_registry
from repro.optim import SGD, MultiStepLR

__all__ = [
    "print_table",
    "print_series",
    "record_bench",
    "flush_bench_metrics",
    "BENCH_METRICS_FILE",
    "image_loaders",
    "imagenet_loaders",
    "scaled_vgg19",
    "scaled_resnet18",
    "scaled_resnet50",
    "scaled_wrn50",
    "train_classifier",
    "fmt",
]

# ---------------------------------------------------------------------------
# Machine-readable benchmark record (the CI perf artifact)
# ---------------------------------------------------------------------------

BENCH_METRICS_FILE = "BENCH_observability.json"
_BENCH_RECORDS: list[dict] = []


def record_bench(kind: str, title: str, payload: dict) -> None:
    """Append one benchmark result to the session's JSON record."""
    _BENCH_RECORDS.append({"kind": kind, "title": title, **payload})


def flush_bench_metrics(path: str | None = None) -> str:
    """Write every recorded table/series plus a metrics-registry snapshot.

    Called from the benchmarks ``conftest`` at session end, so a
    ``pytest benchmarks`` run always leaves a CI-diffable
    ``BENCH_observability.json`` behind.
    """
    path = path or BENCH_METRICS_FILE
    data = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "repro_version": __version__,
        "python": platform.python_version(),
        "records": _BENCH_RECORDS,
        "metrics": get_registry().snapshot(),
    }
    with open(path, "w") as f:
        json.dump(data, f, indent=2, default=str)
    return path


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


# ---------------------------------------------------------------------------
# Language-model harness (Tables 2 / 9)
# ---------------------------------------------------------------------------

def lm_task(rng, vocab=120, n_train=8000, n_valid=1600, n_test=1600, branching=6):
    from repro.data import make_lm_corpus

    return make_lm_corpus(
        vocab_size=vocab, n_train=n_train, n_valid=n_valid, n_test=n_test,
        branching=branching, rng=rng,
    )


def lm_eval(model, data, bptt, vocab):
    """Mean NLL over a batchified token stream."""
    from repro.data import get_lm_batch
    from repro.tensor import no_grad

    loss_fn = nn.CrossEntropyLoss()
    model.eval()
    total, count = 0.0, 0
    states = None
    with no_grad():
        for i in range(0, len(data) - 1, bptt):
            x, y = get_lm_batch(data, i, bptt)
            logits, states = model(x, states)
            states = model.detach_states(states)
            loss = loss_fn(logits.reshape(-1, vocab), y.reshape(-1))
            total += float(loss.data) * y.size
            count += y.size
    return total / max(count, 1)


def lm_train_epoch(model, data, bptt, vocab, opt, clip=0.25):
    from repro.data import get_lm_batch
    from repro.optim import clip_grad_norm

    loss_fn = nn.CrossEntropyLoss()
    model.train()
    total, count = 0.0, 0
    states = None
    for i in range(0, len(data) - 1, bptt):
        x, y = get_lm_batch(data, i, bptt)
        opt.zero_grad()
        logits, states = model(x, states)
        states = model.detach_states(states)
        loss = loss_fn(logits.reshape(-1, vocab), y.reshape(-1))
        loss.backward()
        clip_grad_norm(opt.params, clip)
        opt.step()
        total += float(loss.data) * y.size
        count += y.size
    return total / max(count, 1)


def run_lm(model, corpus, epochs, bptt=16, batch=16, lr=2.0, warmup_state=None):
    """Train an LSTM LM; returns dict of train/val/test NLL."""
    from repro.data import batchify
    from repro.optim import ReduceLROnPlateau

    vocab = corpus.vocab_size
    tr = batchify(corpus.train, batch)
    va = batchify(corpus.valid, batch)
    te = batchify(corpus.test, batch)
    opt = SGD(model.parameters(), lr=lr)
    sched = ReduceLROnPlateau(opt, factor=0.25)
    train_nll = val_nll = float("inf")
    for ep in range(epochs):
        train_nll = lm_train_epoch(model, tr, bptt, vocab, opt)
        val_nll = lm_eval(model, va, bptt, vocab)
        sched.step(ep, metric=val_nll)
    return {
        "train_nll": train_nll,
        "val_nll": val_nll,
        "test_nll": lm_eval(model, te, bptt, vocab),
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
    if warmup_epochs is None:
        trainer = Trainer(model, make_opt(model.parameters()), batch_fn=batch_fn)
        trainer.fit(*loaders, epochs=epochs)
    else:
        trainer = PufferfishTrainer(model, transformer_hybrid_config(0.25), make_opt,
                                    warmup_epochs, epochs, batch_fn=batch_fn)
        model = trainer.fit(*loaders)
    val_nll, val_bleu = evaluate_translation(model, val_ds)
    return {"params": model.num_parameters(), "train_nll": trainer.history[-1].train_metric,
            "val_nll": val_nll, "val_bleu": val_bleu}
