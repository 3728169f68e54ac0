"""What the benchmark measures: read from ``BENCHMARK.json`` at the repo
root, plus the few things that file's fixed schema cannot hold.

``BENCHMARK.json`` lists the workloads, the end-to-end metrics every
workload reports (with unit, direction and regression bound) and the
per-layer metrics.  Its schema requires every run to print *every*
end-to-end metric, so metrics that exist on some workloads only
(``modeled_iter_ms`` on the simulator, ``latency_ms_p95`` and
``first_frame_ms_p50`` on the gateway) and ``failed_share`` (always 0, and
the schema wants metrics that are never 0) are bounded here instead, and
``compare.py`` enforces them from ``BENCH_e2e.json``.  Each bound is written
down once: in ``BENCHMARK.json`` or, for those four, in ``EXTRA_END_TO_END``.
"""

from __future__ import annotations

import functools
import json
import os
import platform
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

# One BLAS thread; the process as a whole uses at most nproc (= 2) threads:
# the main thread plus, on serve_live only, the gateway's inference thread.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_BACKEND_THREADS": "1",
}

BACKEND = "fast"  # the path performance PRs change; numpy is the oracle
MODEL_SEED = 0  # weights are program state, not input: --seed moves only the data
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups in one run
MIN_TIMED_OPS = 100  # a --seconds window times at least this many: a p90 needs 10 beyond it

# Timed operations per workload at --scale 1 (ISSUE 11's counts, sized for
# 15-20 s each on the 2-core reference box) and warm-up operations that
# belong to set-up.  A run given --seconds ignores the timed count and times
# as many operations as the warm-up rate says fit.
OPS = {
    "train_conv": {"timed": 100, "warmup": 5},
    "train_seq": {"timed": 240, "warmup": 10},
    "ddp_factorized": {"timed": 120, "warmup": 4},
    "ddp_powersgd": {"timed": 120, "warmup": 5},
    "serve_live": {"timed": 1600, "warmup": 50},
}

# End-to-end metrics that only some workloads have, with the bound on the
# share of the baseline median by which they may worsen.  failed_share is
# absolute: any failure is a regression.
EXTRA_END_TO_END = {
    "modeled_iter_ms": {"unit": "ms", "better": "lower", "bound": 0.25,
                        "workloads": ("ddp_factorized", "ddp_powersgd")},
    "latency_ms_p95": {"unit": "ms", "better": "lower", "bound": 0.25,
                       "workloads": ("serve_live",)},
    "first_frame_ms_p50": {"unit": "ms", "better": "lower", "bound": 0.25,
                           "workloads": ("serve_live",)},
    "failed_share": {"unit": "share", "better": "lower", "bound": 0.0,
                     "workloads": tuple(OPS)},
}

# Module classes that get their own nn.fwd_self_ms.<Class> row; every other
# class (containers, residual blocks) is summed into nn.fwd_self_ms.other.
LAYER_CLASSES = (
    "Conv2d", "LowRankConv2d", "BatchNorm2d", "MaxPool2d", "GlobalAvgPool2d",
    "ReLU", "Linear", "LowRankLinear", "MultiHeadAttention", "PositionwiseFFN",
    "LayerNorm", "Embedding", "PositionalEncoding", "Dropout", "Flatten",
)


@functools.cache
def load() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def workload_names() -> list[str]:
    return [w["name"] for w in load()["workloads"]]


def end_to_end() -> dict[str, dict]:
    return {m["name"]: m for m in load()["end_to_end"]}


def per_layer() -> dict[str, dict]:
    return {m["name"]: m for m in load()["per_layer"]}


def bounds_for(workload: str) -> dict[str, dict]:
    """Every bounded end-to-end metric of one workload: name -> spec."""
    out = dict(end_to_end())
    for name, spec in EXTRA_END_TO_END.items():
        if workload in spec["workloads"]:
            out[name] = spec
    return out


def pin_threads() -> None:
    """Must run before numpy is imported."""
    os.environ.update(THREAD_PINS)


def environment(seed: int, scale: float, seconds: float | None) -> dict:
    """The environment block written into every result."""
    import numpy as np

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "thread_pins": dict(THREAD_PINS),
        "backend": BACKEND,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "setup_repeats": SETUP_REPEATS,
    }
