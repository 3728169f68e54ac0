"""Table 9 — ablation of vanilla warm-up on the low-rank LSTM LM.

Paper (WikiText-2):
    low-rank LSTM, no warm-up  val ppl 97.59, test ppl 92.04
    low-rank LSTM, w/ warm-up  val ppl 93.62, test ppl 88.72

Claim under test: warm-starting the factors from a partially trained
full-rank model yields test perplexity at least as good as training the
factorized LSTM from scratch, at equal total epochs.
"""

import numpy as np

from harness import lm_task, print_table, run_lm
from repro.metrics import perplexity
from repro.models import LSTMLanguageModel
from repro.utils import set_seed

EPOCHS = 8
WARMUP = 3
VOCAB = 80
DIM = 64
LR = 10.0
SEEDS = [0, 1, 2]


def run_variant(warmup, seed):
    set_seed(seed)
    corpus = lm_task(np.random.default_rng(seed), vocab=VOCAB, branching=4)
    model = LSTMLanguageModel(VOCAB, embed_dim=DIM, num_layers=2, dropout=0.2)
    # warmup=0 factorizes the random initialization and trains it at LR.
    return run_lm(model, corpus, epochs=EPOCHS, lr=LR, warmup_epochs=warmup)


def test_table9_lstm_warmup_ablation(benchmark, rng):
    def experiment():
        out = {"scratch": [], "warmup": []}
        for s in SEEDS:
            out["scratch"].append(run_variant(0, s))
            out["warmup"].append(run_variant(WARMUP, s))
        return out

    res = benchmark.pedantic(experiment, rounds=1, iterations=1)

    def agg(key, metric):
        vals = [perplexity(r[metric]) for r in res[key]]
        return float(np.mean(vals)), float(np.std(vals))

    rows = [
        ["Val Ppl (paper: 97.59 / 93.62)",
         agg("scratch", "val_nll")[0], agg("warmup", "val_nll")[0]],
        ["Test Ppl (paper: 92.04 / 88.72)",
         agg("scratch", "test_nll")[0], agg("warmup", "test_nll")[0]],
        ["Train Ppl (paper: 68.04 / 62.2)",
         agg("scratch", "train_nll")[0], agg("warmup", "train_nll")[0]],
    ]
    print_table("Table 9: LSTM warm-up ablation (3 seeds)",
                ["Metric", "No warm-up", "With warm-up"], rows)

    scratch_ppl = agg("scratch", "test_nll")[0]
    warm_ppl = agg("warmup", "test_nll")[0]
    # Both beat uniform; warm-up is at least as good (10% noise margin).
    assert scratch_ppl < VOCAB and warm_ppl < VOCAB
    assert warm_ppl <= scratch_ppl * 1.10
