"""Characterization of the error-feedback codecs, round by round.

``tests/test_ddp_one_iteration.py`` pins what a whole training run leaves
behind; this table pins every protocol round of PowerSGD and AB-Training on
their own: the decoded aggregates, every worker's ``error_norm``, the
claimed wire bytes and the warm-start state, over seven rounds, for each way
the trainer (or a benchmark) may drive a codec — whole-gradient and
per-bucket encoding, ``decode_aggregate`` called twice per round, float64 /
non-contiguous gradients, a rank above ``min(shape)``, and a worker that
misses rounds 2–3 and rejoins in round 4.  It was recorded *before* the
residual moved into one resident buffer per ``(worker, layer)`` and must not
change when error feedback is restructured: a moved digest is a changed
float32 rounding, not a refactor.

Aggregates depend on the BLAS / LAPACK kernels NumPy dispatches to, so the
table only binds where ``PLATFORM_CANARY`` matches; elsewhere the suite
skips (loudly).

Regenerate on purpose with
``PYTHONPATH=src python tests/test_powersgd_rounds.py``.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest

from repro.compression import make_compressor
from repro.utils import canonical_digest

WORLD = 4
ROUNDS = 7
SHAPES = ((12, 9), (7,), (6, 4, 3), (5, 8), (3,))
BUCKETS = ((0, 1), (2,), (3, 4))
KWARGS = {
    "powersgd": {"rank": 2, "seed": 5},
    "abtrain": {"rank": 2, "resync_every": 3},
}
# Warm-start state each codec carries between rounds (hashed per round).
WARM_STATE = {"powersgd": ("_qs",), "abtrain": ("_us", "_vs")}
# scenario -> (constructor overrides, buckets, decodes per round, input kind,
# rounds (0-based) in which worker 2 is absent)
SCENARIOS = {
    "ef": ({}, None, 1, "f32", ()),
    "noef": ({"error_feedback": False}, None, 1, "f32", ()),
    "tiled": ({}, BUCKETS, 1, "f32", ()),
    "decode_twice": ({}, BUCKETS, 2, "f32", ()),
    "f64_strided": ({}, None, 1, "f64_strided", ()),
    "rank_over": ({"rank": 8}, None, 1, "f32", ()),
    "rejoin": ({}, BUCKETS, 1, "f32", (1, 2)),
}
CASES = {f"{codec}-{s}": (codec, s) for codec in KWARGS for s in SCENARIOS}


def _sha(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(str((a.shape, a.dtype.str)).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def gradients(round_: int, worker: int, kind: str = "f32") -> list[np.ndarray]:
    """One worker's seeded gradient for one round.  Layer 0 carries a dead
    unit (a row of negative zeros), as a ReLU network's weight gradient
    does, so every round orthogonalizes and lifts an exactly-zero row."""
    rng = np.random.default_rng([11, round_, worker])
    grads = []
    for shape in SHAPES:
        if kind == "f64_strided":
            g = rng.standard_normal(shape[::-1]).T  # float64, Fortran-ordered view
        else:
            g = rng.standard_normal(shape).astype(np.float32)
        grads.append(g)
    grads[0][3] = -0.0
    return grads


def run_rounds(codec: str, scenario: str) -> list[str]:
    """One digest per round of ``scenario`` driven through ``codec``."""
    overrides, buckets, n_decodes, kind, absent_rounds = SCENARIOS[scenario]
    comp = make_compressor(codec, WORLD, **{**KWARGS[codec], **overrides})
    groups = buckets or (tuple(range(len(SHAPES))),)
    digests = []
    for r in range(ROUNDS):
        active = [w for w in range(WORLD) if not (w == 2 and r in absent_rounds)]
        grads = {w: gradients(r, w, kind) for w in active}
        # Encode every bucket before decoding any, as the trainer does.
        encoded = [
            [comp.encode(w, [grads[w][i] for i in g], layer_offset=g[0]) for w in active]
            for g in groups
        ]
        decoded = [
            [comp.decode_aggregate(per_worker) for per_worker in encoded]
            for _ in range(n_decodes)
        ]
        comp.advance_step()
        state = [getattr(comp, name) for name in WARM_STATE[codec]]
        digests.append(
            canonical_digest(
                {
                    "agg": [_sha(a for bucket in d for a in bucket) for d in decoded],
                    "error_norm": [float(comp.error_norm(w)).hex() for w in range(WORLD)],
                    "nbytes": [sum(res.nbytes for res in col) for col in zip(*encoded)],
                    "warm": [_sha(s[k] for k in sorted(s)) for s in state],
                }
            )
        )
    return digests


@functools.cache
def platform_canary() -> str:
    """The three kernels the codecs lean on — GEMM, QR, SVD — on fixed data."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((12, 9)).astype(np.float32)
    q = rng.standard_normal((9, 2)).astype(np.float32)
    qr, _ = np.linalg.qr((m @ q).astype(np.float64))
    u, s, vt = np.linalg.svd(m.astype(np.float64), full_matrices=False)
    return _sha([m @ q, qr, m.T @ qr.astype(np.float32), u, s, vt])[:16]


PLATFORM_CANARY = "58dff47c605afed7"

# fmt: off
PINNED: dict[str, list[str]] = {
    "abtrain-decode_twice": [
        "7d6b5407f18b2abe", "8ea78af0849a9a71", "47749a74f652dda8", "860c7b1d7c365dfb",
        "e4c2b750eeaf8790", "b747b9dd6cfbb75c", "8566c778347c0dfe",
    ],
    "abtrain-ef": [
        "9dc61f93750cb537", "0c67aea24e6165ee", "2a7dc51b2e1cecba", "71c3645885ed7abd",
        "468bff654830db57", "903a03ed096c9b9c", "b4bbdf8876f6079d",
    ],
    "abtrain-f64_strided": [
        "c071ffb5be48f8dd", "13fc772cd9f4a0a4", "57b0cef26733330f", "d4da39894ba9e066",
        "df102df05115a395", "f7e80ec69a2e0f80", "d46a7196e49824fb",
    ],
    "abtrain-noef": [
        "9dc61f93750cb537", "c4deaf69b1378eba", "bcab94247fb36767", "a3b9968f73b026e4",
        "9d68d5055a00c04b", "548b27e53a1efe57", "58f0f1b464fb4435",
    ],
    "abtrain-rank_over": [
        "a8e1be57c61892b0", "3709a62dad40000a", "e09b432b64f2ca57", "48a6ee8c7a91aba8",
        "72ce235dc9b20d73", "4827f2c2f4f94159", "b951eb4b151ae027",
    ],
    "abtrain-rejoin": [
        "9dc61f93750cb537", "c1bc971c5e04e666", "f71b2c0275d5a1fb", "2727213cc4d21ceb",
        "f2da71516953aabd", "70d97b823e532373", "cf0bb60fbba44b1d",
    ],
    "abtrain-tiled": [
        "9dc61f93750cb537", "0c67aea24e6165ee", "2a7dc51b2e1cecba", "71c3645885ed7abd",
        "468bff654830db57", "903a03ed096c9b9c", "b4bbdf8876f6079d",
    ],
    "powersgd-decode_twice": [
        "5a90f99e37ae8572", "6ddd1d067e8ef835", "6345847aa6140c69", "ba4a60f752306968",
        "de607c721abbe1aa", "fedc52faee55c12a", "2f42e1aee6e19666",
    ],
    "powersgd-ef": [
        "d77ab222aab206df", "41924eda64faf266", "616a292641deb2e8", "76f3936582c7a730",
        "6b5ca17146f15482", "6e83786cfb6bff88", "28672be66c0be506",
    ],
    "powersgd-f64_strided": [
        "c57092e5a4d5a9f4", "d0da799bf0e06ee4", "bc470197db323cc7", "abffe795c41cb88a",
        "e488b1c8d17c10bf", "818297ddcb6520a4", "1f2a25f26b055c9e",
    ],
    "powersgd-noef": [
        "5c76d294e07da2a7", "436ea8be9ddec306", "085d992ac9a1b87b", "d7277572ffe58559",
        "2ecbd6656467c9ec", "46ff2087fd42406d", "cf037bd41e2cf111",
    ],
    "powersgd-rank_over": [
        "d5b7dd3298e87c44", "d43227e24dcc440e", "e1f798bb888c8acd", "14745e68fb21738c",
        "e98ca52f8b5dc8cf", "97f18e8dba75061e", "3fcba69d3c839c80",
    ],
    "powersgd-rejoin": [
        "d77ab222aab206df", "d7e35362080244c9", "a721532976f1b4f5", "3a587898ea31b601",
        "9cf7e813226933cb", "414261cad42f141c", "4ad98581f0d40ede",
    ],
    "powersgd-tiled": [
        "d77ab222aab206df", "41924eda64faf266", "616a292641deb2e8", "76f3936582c7a730",
        "6b5ca17146f15482", "6e83786cfb6bff88", "28672be66c0be506",
    ],
}
# fmt: on


def test_table_covers_every_case():
    assert set(PINNED) == set(CASES)
    assert all(len(v) == ROUNDS >= 6 for v in PINNED.values())


@pytest.mark.parametrize("name", sorted(CASES))
def test_round_digests_are_pinned(name):
    if platform_canary() != PLATFORM_CANARY:
        pytest.skip(
            "round table was recorded on different BLAS kernels "
            f"(canary {platform_canary()} != {PLATFORM_CANARY})"
        )
    assert run_rounds(*CASES[name]) == PINNED[name]


@pytest.mark.parametrize("codec", sorted(KWARGS))
def test_scenarios_differ_where_they_should(codec):
    """The table is not one digest repeated: error feedback, the rank and a
    missing worker each move the rounds they touch."""
    ef, noef, rejoin = (run_rounds(codec, s) for s in ("ef", "noef", "rejoin"))
    assert ef == run_rounds(codec, "tiled")  # bucket tiling commutes with encoding
    assert ef[-1] != noef[-1] and ef[-1] != run_rounds(codec, "rank_over")[-1]
    assert rejoin[0] == ef[0] and all(a != b for a, b in zip(rejoin[1:], ef[1:]))


def _residual_norm(residuals) -> float:
    return float(np.sqrt(sum(float(np.sum(e.astype(np.float64) ** 2)) for e in residuals)))


def test_powersgd_error_norm_is_the_hand_built_residual():
    """``error_norm`` is ‖M − p̂qᵀ‖ of the round just decoded, bit for bit —
    not ‖M‖ (what a codec that forgets to subtract reports, and what no
    other test in the suite tells apart)."""
    comp = make_compressor("powersgd", 2, rank=2, seed=3)
    residual = {w: np.zeros((12, 9), dtype=np.float32) for w in range(2)}
    q = np.random.default_rng([3, 0, 9]).standard_normal((9, 2)).astype(np.float32)
    for r in range(3):
        g = {w: gradients(r, w)[0] for w in range(2)}
        comp.decode_aggregate([comp.encode(w, [g[w]]) for w in range(2)])
        m = {w: g[w] + residual[w] if r else g[w] for w in range(2)}
        p_hat, _ = np.linalg.qr(np.mean([m[w] @ q for w in range(2)], axis=0).astype(np.float64))
        p_hat = p_hat.astype(np.float32)
        q_acc = np.zeros((9, 2), dtype=np.float64)
        for w in range(2):
            q_acc += m[w].T @ p_hat
        q = (q_acc / 2).astype(np.float32)
        for w in range(2):
            residual[w] = m[w] - p_hat @ q.T
            assert comp.error_norm(w) == _residual_norm([residual[w]])
            assert comp.error_norm(w) < _residual_norm([m[w]])


def test_abtrain_error_norm_is_the_hand_built_residual():
    """Same for AB-Training's factor steps: each worker's residual is its
    matrix minus the lift of its *own* projection through the shared basis."""
    comp = make_compressor("abtrain", 2, rank=2, resync_every=4)
    g = {w: gradients(0, w)[0] for w in range(2)}
    comp.decode_aggregate([comp.encode(w, [g[w]]) for w in range(2)])  # resync
    comp.advance_step()
    assert comp.error_norm(0) == comp.error_norm(1) == 0.0
    mean = ((g[0].astype(np.float64) + g[1]) / 2).astype(np.float32)
    u, _, vt = np.linalg.svd(mean.astype(np.float64), full_matrices=False)
    u, v = u[:, :2].astype(np.float32), vt[:2].T.astype(np.float32)
    residual = {w: np.zeros_like(g[w]) for w in range(2)}
    for r, lift in ((1, lambda m: (m @ v) @ v.T), (2, lambda m: u @ (u.T @ m))):
        g = {w: gradients(r, w)[0] for w in range(2)}
        comp.decode_aggregate([comp.encode(w, [g[w]]) for w in range(2)])
        comp.advance_step()
        for w in range(2):
            m = g[w] + residual[w]
            residual[w] = m - lift(m)
            assert comp.error_norm(w) == _residual_norm([residual[w]])
            assert comp.error_norm(w) < _residual_norm([m])


if __name__ == "__main__":
    print(f'PLATFORM_CANARY = "{platform_canary()}"')
    print("PINNED: dict[str, list[str]] = {")
    for name in sorted(CASES):
        d = [f'"{x}"' for x in run_rounds(*CASES[name])]
        print(f'    "{name}": [\n        {", ".join(d[:4])},\n        {", ".join(d[4:])},\n    ],')
    print("}")
