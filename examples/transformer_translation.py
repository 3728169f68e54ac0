"""Pufferfish on a Transformer translation task (the paper's WMT16
experiment, Table 3, at laptop scale).

The synthetic task is "reverse and relabel": the target sequence is the
source mapped through a fixed vocabulary permutation and reversed, so the
decoder must genuinely use positional attention.  BLEU is computed from
greedy decoding.

Run:  python examples/transformer_translation.py
"""

import functools

import numpy as np

from repro import nn
from repro.core import PufferfishTrainer, Trainer, seq2seq_batch
from repro.data import make_translation_dataset
from repro.metrics import evaluate_translation, perplexity
from repro.models import Seq2SeqTransformer, transformer_hybrid_config
from repro.optim import Adam
from repro.utils import set_seed

VOCAB = 20
EPOCHS = 12
WARMUP = 4
BATCH = 64
LR = 2e-3

set_seed(0)
full = make_translation_dataset(n=768, vocab_size=VOCAB, min_len=4, max_len=8,
                                rng=np.random.default_rng(0))
train_ds, val_ds = full.split(650)
loaders = (train_ds.batches(BATCH), val_ds.batches(len(val_ds)))
batch_fn = functools.partial(
    seq2seq_batch, loss_fn=nn.CrossEntropyLoss(ignore_index=0, label_smoothing=0.1)
)


def make_model():
    return Seq2SeqTransformer(vocab_size=VOCAB, d_model=32, n_heads=4, num_layers=2,
                              d_ff=64, dropout=0.0, max_len=16)


def make_opt(params):
    return Adam(params, lr=LR)


make_trainer = lambda model, opt: Trainer(model, opt, batch_fn=batch_fn)


def evaluate(model, label):
    nll, bleu = evaluate_translation(model, val_ds)
    print(f"{label:<28} params={model.num_parameters():>8,}  "
          f"val ppl={perplexity(nll):6.2f}  BLEU={bleu:6.2f}")


print("=== vanilla Transformer ===")
vanilla = make_model()
make_trainer(vanilla, make_opt(vanilla.parameters())).fit(*loaders, epochs=EPOCHS)
evaluate(vanilla, "vanilla")

print("\n=== Pufferfish Transformer (warm-up -> SVD -> fine-tune) ===")
set_seed(0)
trainer = PufferfishTrainer(make_model(), transformer_hybrid_config(rank_ratio=0.25), make_opt,
                            warmup_epochs=WARMUP, total_epochs=EPOCHS,
                            trainer_factory=make_trainer)
hybrid = trainer.fit(*loaders)
report = trainer.report
print(f"factorized {len(report.replaced)} projections "
      f"({report.params_before:,} -> {report.params_after:,} params, "
      f"{report.compression:.2f}x)")
evaluate(hybrid, "Pufferfish")
