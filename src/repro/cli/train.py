"""``repro train`` and ``repro factorize``: single-process Pufferfish runs."""

from __future__ import annotations

import contextlib
import functools
import logging
import sys

import numpy as np

from .. import nn
from ..core import Trainer, build_hybrid, seq2seq_batch
from ..data import make_translation_dataset
from ..metrics import evaluate_translation, measure_macs, perplexity
from ..models import Seq2SeqTransformer, transformer_hybrid_config
from ..optim import MultiStepLR
from ..tensor import Tensor
from ..utils import save_checkpoint, set_seed
from . import groups


def add_train_parser(sub):
    p = sub.add_parser("train", help="train on a synthetic task")
    groups.add_model_args(p)
    p.add_argument("--task", choices=("cifar", "transformer"), default="cifar",
                   help="cifar: image classification (--model/--width apply); "
                        "transformer: reverse-and-relabel translation "
                        "(Seq2SeqTransformer, Adam-driven, greedy BLEU)")
    groups.add_optimizer_args(
        p, optimizer=None, optimizer_help="default: sgd for cifar, adam for transformer"
    )
    p.add_argument("--method", choices=("vanilla", "pufferfish"), default="pufferfish")
    groups.add_epochs_args(p, epochs=10, warmup_epochs=3)
    groups.add_loader_args(p, samples=512, batch_size=32)
    p.add_argument("--noise", type=float, default=0.2)
    p.add_argument("--amp", action="store_true", help="mixed-precision emulation")
    p.add_argument("--checkpoint", default=None, help="write final .npz checkpoint")
    return p


def add_factorize_parser(sub):
    p = sub.add_parser("factorize", help="print the factorization report")
    groups.add_model_args(p)
    return p


def _print_factorized(report) -> None:
    print(f"factorized: {report.params_before:,} -> {report.params_after:,} "
          f"params ({report.compression:.2f}x), SVD {report.svd_seconds*1e3:.0f} ms")


def _save_final(args, model, best: float) -> None:
    if args.checkpoint:
        save_checkpoint(args.checkpoint, model, epoch=args.epochs, best=best)
        print(f"checkpoint written to {args.checkpoint}")


@contextlib.contextmanager
def _epoch_lines():
    """Print the trainers' log records (one per finished epoch) on stdout."""
    log = logging.getLogger("repro")
    handler, level = logging.StreamHandler(sys.stdout), log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def run_train(args) -> int:
    if args.task == "transformer" and args.amp:
        raise groups.ConfigError("--task transformer does not support --amp")
    opt_factory = groups.optimizer_factory_from_args(
        args, default="adam" if args.task == "transformer" else "sgd"
    )
    set_seed(args.seed)
    if args.task == "transformer":
        # The paper's WMT16 transformer experiment at laptop scale: synthetic
        # reverse-and-relabel translation, Adam/LAMB-driven, greedy-decode BLEU.
        groups.require_at_least_one(args, "samples", "batch_size")
        full = make_translation_dataset(n=args.samples, vocab_size=20, min_len=4, max_len=8,
                                        rng=np.random.default_rng(args.seed))
        train_ds, val_ds = full.split(int(0.85 * args.samples))
        train_loader, val_loader = train_ds.batches(args.batch_size), val_ds.batches(len(val_ds))
        model = Seq2SeqTransformer(vocab_size=20, d_model=32, n_heads=4,
                                   num_layers=2, d_ff=64, dropout=0.0, max_len=16)
        hybrid_config = transformer_hybrid_config(rank_ratio=args.rank_ratio)
        loss_fn = nn.CrossEntropyLoss(ignore_index=0, label_smoothing=0.1)
        batch_fn = functools.partial(seq2seq_batch, loss_fn=loss_fn)
        make_trainer = lambda m, opt: Trainer(m, opt, batch_fn=batch_fn)
    else:
        train_loader, val_loader = groups.cifar_loaders_from_args(args, noise=args.noise)
        model, hybrid_config = groups.model_from_args(args)
        milestone = int(0.75 * args.epochs)
        make_trainer = lambda m, opt: Trainer(
            m, opt, scheduler=MultiStepLR(opt, [milestone], gamma=0.1), amp=args.amp
        )

    with _epoch_lines():
        if args.method == "pufferfish":
            trainer = groups.pufferfish_from_args(
                args, model, hybrid_config, optimizer_factory=opt_factory,
                trainer_factory=make_trainer,
            )
            model = trainer.fit(train_loader, val_loader)
            print()
            _print_factorized(trainer.report)
        else:
            trainer = make_trainer(model, opt_factory(model.parameters()))
            trainer.fit(train_loader, val_loader, epochs=args.epochs)

    if args.task == "transformer":
        nll, best = evaluate_translation(model, val_ds)
        print(f"val perplexity: {perplexity(nll):.2f}")
        print(f"val BLEU: {best:.2f}")
    else:
        best = max(s.val_metric for s in trainer.history)
        print(f"best val accuracy: {best:.4f}")
    _save_final(args, model, best)
    return 0


def run_factorize(args) -> int:
    set_seed(args.seed)
    model, hybrid_config = groups.model_from_args(args)
    hybrid, report = build_hybrid(model, hybrid_config)

    print(f"model: {args.model} (width {args.width})")
    print(f"parameters: {report.params_before:,} -> {report.params_after:,} "
          f"({report.compression:.2f}x smaller)")
    print(f"SVD cost: {report.svd_seconds*1e3:.1f} ms")
    if args.model != "mlp":
        x = Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32))
        print(f"MACs: {measure_macs(model, x)/1e6:.1f} M -> "
              f"{measure_macs(hybrid, x)/1e6:.1f} M")
    print(f"\nfactorized layers ({len(report.replaced)}):")
    for path, rank in report.replaced:
        print(f"  {path:<40} rank {rank}")
    print(f"kept full-rank ({len(report.kept)}): {', '.join(report.kept)}")
    return 0
