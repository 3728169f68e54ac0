"""Table 3 — vanilla vs Pufferfish 6-layer Transformer on translation.

Paper (WMT16 De-En, d_model 512):
    params 48.98M -> 26.70M, val ppl 11.88 -> 7.34, BLEU 19.05 -> 26.87
    (the factorized model *wins* — implicit regularization).

Scaled run (synthetic reverse-translation, d_model 32, 2 layers): claims
under test — factorization shrinks the model and BLEU stays comparable or
better.
"""

import numpy as np

from harness import print_table, run_translation, translation_task
from repro.metrics import perplexity
from repro.models import Seq2SeqTransformer
from repro.utils import set_seed

VOCAB = 20
EPOCHS = 12
WARMUP = 4
LR = 2e-3


def _make_model():
    return Seq2SeqTransformer(
        vocab_size=VOCAB, d_model=32, n_heads=4, num_layers=2, d_ff=64,
        dropout=0.0, max_len=16,
    )


def test_table3_transformer(benchmark, rng):
    def experiment():
        out = {}
        for method, warmup in (("vanilla", None), ("pufferfish", WARMUP)):
            set_seed(11)
            train_ds, val_ds = translation_task(
                np.random.default_rng(11), n=768, vocab=VOCAB, min_len=4, max_len=8
            )
            out[method] = run_translation(_make_model(), train_ds, val_ds, epochs=EPOCHS,
                                          warmup_epochs=warmup, lr=LR)
        return out

    res = benchmark.pedantic(experiment, rounds=1, iterations=1)

    # Paper-scale parameter reproduction (exact arithmetic).
    paper_vanilla = Seq2SeqTransformer(
        vocab_size=9521, d_model=512, n_heads=8, num_layers=6, max_len=64
    )
    n_paper_vanilla = paper_vanilla.num_parameters()

    rows = [
        ["# Params (paper: 48,978,432)", n_paper_vanilla, "-"],
        ["# Params (this run)", res["vanilla"]["params"], res["pufferfish"]["params"]],
        ["Train Ppl (paper: 13.68 / 10.27)",
         perplexity(res["vanilla"]["train_nll"]), perplexity(res["pufferfish"]["train_nll"])],
        ["Val Ppl (paper: 11.88 / 7.34)",
         perplexity(res["vanilla"]["val_nll"]), perplexity(res["pufferfish"]["val_nll"])],
        ["Val BLEU (paper: 19.05 / 26.87)",
         res["vanilla"]["val_bleu"], res["pufferfish"]["val_bleu"]],
    ]
    print_table("Table 3: Transformer, vanilla vs Pufferfish",
                ["Metric", "Vanilla", "Pufferfish"], rows)

    assert res["pufferfish"]["params"] < res["vanilla"]["params"]
    # Both models must have learned structure (beat the trivial 0-BLEU).
    assert res["vanilla"]["val_bleu"] > 1.0
    assert res["pufferfish"]["val_bleu"] > 1.0
    # Near parity or better (the paper's Pufferfish actually wins).
    assert res["pufferfish"]["val_bleu"] > 0.5 * res["vanilla"]["val_bleu"]
