"""``repro train`` and ``repro factorize``: single-process Pufferfish runs."""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core import Trainer, build_hybrid
from ..data import make_translation_dataset
from ..metrics import corpus_bleu, measure_macs, perplexity
from ..models import Seq2SeqTransformer, transformer_hybrid_config
from ..optim import MultiStepLR
from ..tensor import Tensor, no_grad
from ..utils import Logger, save_checkpoint, set_seed
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
    p.add_argument("--fused", action="store_true",
                   help="fused flat-arena optimizer updates (SGD/Adam bit-exact "
                        "when every parameter gets a gradient, LAMB within its "
                        "tolerance tag; incompatible with --amp)")
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


def _train_transformer(args, opt_factory) -> int:
    """The paper's WMT16 transformer experiment at laptop scale: synthetic
    reverse-and-relabel translation, Adam/LAMB-driven, greedy-decode BLEU."""
    groups.require_at_least_one(args, "samples", "batch_size")
    vocab = 20
    full = make_translation_dataset(
        n=args.samples, vocab_size=vocab, min_len=4, max_len=8,
        rng=np.random.default_rng(args.seed),
    )
    train_ds, val_ds = full.split(int(0.85 * args.samples))
    loss_fn = nn.CrossEntropyLoss(ignore_index=0, label_smoothing=0.1)
    model = Seq2SeqTransformer(vocab_size=vocab, d_model=32, n_heads=4,
                               num_layers=2, d_ff=64, dropout=0.0, max_len=16)

    def run_epochs(m, opt, epochs):
        for _ in range(epochs):
            m.train()
            for i in range(0, len(train_ds), args.batch_size):
                src = train_ds.src[i : i + args.batch_size]
                tgt = train_ds.tgt[i : i + args.batch_size]
                opt.zero_grad()
                logits = m(src, tgt[:, :-1])
                loss_fn(logits.reshape(-1, vocab), tgt[:, 1:].reshape(-1)).backward()
                opt.step()

    if args.method == "pufferfish":
        run_epochs(model, opt_factory(model.parameters()), args.warmup_epochs)
        model, report = build_hybrid(model, transformer_hybrid_config(rank_ratio=args.rank_ratio))
        _print_factorized(report)
        run_epochs(model, opt_factory(model.parameters()), max(args.epochs - args.warmup_epochs, 0))
    else:
        run_epochs(model, opt_factory(model.parameters()), args.epochs)

    model.eval()
    with no_grad():
        logits = model(val_ds.src, val_ds.tgt[:, :-1])
        nll = nn.CrossEntropyLoss(ignore_index=0)(
            logits.reshape(-1, vocab), val_ds.tgt[:, 1:].reshape(-1)
        )
    hyp = model.greedy_decode(val_ds.src, bos=1, eos=2, max_len=val_ds.tgt.shape[1])
    bleu = corpus_bleu([list(h) for h in hyp], [list(t) for t in val_ds.tgt], strip_ids={0, 1, 2})
    print(f"val perplexity: {perplexity(float(nll.data)):.2f}")
    print(f"val BLEU: {bleu:.2f}")
    _save_final(args, model, bleu)
    return 0


def run_train(args) -> int:
    if args.fused and args.amp:
        # The AMP cast round-trip rebinds every p.data each batch, which
        # would rebuild the arena (and reset optimizer state) every step.
        raise groups.ConfigError("--fused is incompatible with --amp")
    if args.task == "transformer" and args.amp:
        raise groups.ConfigError("--task transformer does not support --amp")
    opt_factory = groups.optimizer_factory_from_args(
        args, default="adam" if args.task == "transformer" else "sgd"
    )
    set_seed(args.seed)
    if args.task == "transformer":
        return _train_transformer(args, opt_factory)

    train_loader, val_loader = groups.cifar_loaders_from_args(args, noise=args.noise)
    model, hybrid_config = groups.model_from_args(args)
    logger = Logger(args.model)
    sched_factory = lambda opt: MultiStepLR(opt, [int(0.75 * args.epochs)], gamma=0.1)

    if args.method == "pufferfish":
        trainer = groups.pufferfish_from_args(
            args, model, hybrid_config, optimizer_factory=opt_factory,
            scheduler_factory=sched_factory, amp=args.amp, logger=logger,
        )
        trainer.fit(train_loader, val_loader)
        print()
        _print_factorized(trainer.report)
        final_model = trainer.hybrid_model
    else:
        opt = opt_factory(model.parameters())
        trainer = Trainer(model, opt, scheduler=sched_factory(opt), amp=args.amp, logger=logger)
        trainer.fit(train_loader, val_loader, epochs=args.epochs)
        final_model = model

    best = max(s.val_metric for s in trainer.history)
    print(f"best val accuracy: {best:.4f}")
    _save_final(args, final_model, best)
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
