"""Pufferfish on a 2-layer LSTM language model (the paper's WikiText-2
experiment, Table 2, at laptop scale).

Trains the vanilla tied-embedding LSTM for a few warm-up epochs, converts
the gate matrices to rank-r factors via truncated SVD, fine-tunes, and
reports perplexity for both models side by side.

Run:  python examples/lstm_language_model.py
"""

import functools

import numpy as np

from repro import nn
from repro.core import PufferfishTrainer, Trainer, lm_batch
from repro.data import batchify, lm_chunks, make_lm_corpus
from repro.metrics import perplexity
from repro.models import LSTMLanguageModel, lstm_lm_hybrid_config
from repro.optim import SGD
from repro.utils import set_seed

VOCAB = 80
EMBED = 64
BPTT = 16
BATCH = 16
EPOCHS = 8
WARMUP = 3
LR = 10.0

set_seed(0)
corpus = make_lm_corpus(vocab_size=VOCAB, n_train=8000, n_valid=1600, n_test=1600,
                        branching=4, rng=np.random.default_rng(0))
loaders = (lm_chunks(batchify(corpus.train, BATCH), BPTT),
           lm_chunks(batchify(corpus.valid, BATCH), BPTT))
batch_fn = functools.partial(lm_batch, loss_fn=nn.CrossEntropyLoss())


def make_model():
    return LSTMLanguageModel(VOCAB, embed_dim=EMBED, num_layers=2, dropout=0.2)


def make_opt(params):
    return SGD(params, lr=LR)


make_trainer = lambda model, opt: Trainer(model, opt, batch_fn=batch_fn, grad_clip=0.25)


def show(history):
    for s in history:
        print(f"  epoch {s.epoch} ({s.phase}): train ppl {perplexity(s.train_metric):7.2f}  "
              f"val ppl {perplexity(s.val_metric):7.2f}")


print("=== vanilla LSTM ===")
vanilla = make_model()
print(f"params: {vanilla.num_parameters():,}")
trainer = make_trainer(vanilla, make_opt(vanilla.parameters()))
show(trainer.fit(*loaders, epochs=EPOCHS))

print("\n=== Pufferfish LSTM (warm-up -> SVD -> fine-tune) ===")
set_seed(0)
# Halve the LR at the switch, as the paper does for the LSTM task.
trainer = PufferfishTrainer(make_model(), lstm_lm_hybrid_config(rank_ratio=0.25), make_opt,
                            warmup_epochs=WARMUP, total_epochs=EPOCHS,
                            trainer_factory=make_trainer, lr_decay_at_switch=0.5)
trainer.fit(*loaders)
report = trainer.report
print(f"factorized: {report.params_before:,} -> {report.params_after:,} params "
      f"({report.compression:.2f}x), SVD took {report.svd_seconds*1e3:.0f} ms")
show(trainer.history)
