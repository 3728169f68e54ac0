"""Property-based tests for the gradient-compressor contract.

Every compressor in the registry is held to the published contract in
``repro.compression.base`` (see also docs/COMPRESSION.md):

* ``decode_aggregate(encode x W)`` matches the exact gradient mean within
  the compressor's published ``agg_contract`` / ``agg_tolerance`` regime;
* the claimed wire size ``EncodeResult.nbytes`` is at least the byte
  count of the wire-essential payload (``min_payload_nbytes``);
* error-feedback residuals stay bounded over many steps (no silent
  divergence of the EF memory);
* allreduce-compatible compressors commute with bucket tiling: encoding
  bucket-by-bucket with ``layer_offset`` is bit-identical to encoding the
  whole gradient at once — the invariant the compressed-overlap DDP path
  relies on;
* what ``decode_aggregate`` returns when one worker's gradient holds NaN or
  ±inf is pinned per compressor: which entries come back poisoned, or which
  typed error is raised.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import NonFiniteGradientError, make_compressor, registered_compressors
from tests.oracles import exact_mean_oracle

ALL_NAMES = sorted(registered_compressors())
ARC_NAMES = sorted(
    name for name, cls in registered_compressors().items() if cls.allreduce_compatible
)

SEED = st.integers(0, 2**31 - 1)
WORLD = st.integers(1, 5)

# The "dense" contract regime: the compressor configured to keep every
# coordinate (base.Compressor docstring names these configurations).
DENSE_CONFIG = {
    "topk": {"ratio": 1.0},
    "vargate": {"threshold": math.inf},
}


def make_grads(rng, n=6, m=7, vec=5):
    """One matrix layer + one vector layer (biases exercise raw paths)."""
    return [
        rng.standard_normal((n, m)).astype(np.float32),
        rng.standard_normal(vec).astype(np.float32),
    ]


def make_low_rank_grads(rng, world, rank=2, n=8, m=9, vec=5):
    """Per-worker gradients whose matrix layers share a rank-``rank``
    column space (so the mean is also rank <= ``rank``)."""
    basis = rng.standard_normal((n, rank)).astype(np.float32)
    out = []
    for _ in range(world):
        coeff = rng.standard_normal((rank, m)).astype(np.float32)
        out.append(
            [
                (basis @ coeff).astype(np.float32),
                rng.standard_normal(vec).astype(np.float32),
            ]
        )
    return out


def exact_mean(per_worker):
    return [exact_mean_oracle(layer, np.float32) for layer in zip(*per_worker)]


def rel_err(got, want):
    num = math.sqrt(
        sum(float(np.sum((g.astype(np.float64) - w.astype(np.float64)) ** 2))
            for g, w in zip(got, want))
    )
    den = math.sqrt(sum(float(np.sum(w.astype(np.float64) ** 2)) for w in want))
    return num / max(den, 1e-12)


class TestAggregationContract:
    """decode_aggregate(encode x W) ~= mean, per published contract."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    @given(seed=SEED, world=WORLD)
    @settings(max_examples=15, deadline=None)
    def test_contract_holds(self, name, seed, world):
        cls = registered_compressors()[name]
        rng = np.random.default_rng(seed)
        if cls.agg_contract == "unbiased":
            self._check_unbiased(name, cls, rng)
            return
        comp = make_compressor(name, world, **DENSE_CONFIG.get(name, {}))
        if cls.agg_contract == "low_rank":
            per_worker = make_low_rank_grads(rng, world)
        else:
            per_worker = [make_grads(rng) for _ in range(world)]
        results = [comp.encode(w, per_worker[w]) for w in range(world)]
        decoded = comp.decode_aggregate(results)
        mean = exact_mean(per_worker)
        if cls.agg_contract in ("exact", "dense", "low_rank"):
            assert rel_err(decoded, mean) <= cls.agg_tolerance
        elif cls.agg_contract == "sign":
            # Only coordinate signs of the (momentum) mean are recovered;
            # with fresh momentum the sign equals the gradient sign where
            # every worker agrees.
            for d, m_layer, stack in zip(
                decoded, mean, zip(*per_worker)
            ):
                assert set(np.unique(d)) <= {-1.0, 0.0, 1.0}
                signs = np.stack([np.sign(g) for g in stack])
                unanimous = np.all(signs == signs[0], axis=0) & (signs[0] != 0)
                assert np.array_equal(d[unanimous], signs[0][unanimous])
        else:  # pragma: no cover - new contract names need a branch here
            pytest.fail(f"unknown agg_contract {cls.agg_contract!r}")

    @staticmethod
    def _check_unbiased(name, cls, rng, trials=300):
        # E[decode] = mean: average many independent stochastic encodings
        # of the same single-worker gradient.
        grads = make_grads(rng)
        acc = None
        for _ in range(trials):
            comp = make_compressor(name, 1)
            decoded = comp.decode_aggregate([comp.encode(0, grads)])
            if acc is None:
                acc = [d.astype(np.float64) for d in decoded]
            else:
                for a, d in zip(acc, decoded):
                    a += d
        averaged = [(a / trials).astype(np.float32) for a in acc]
        assert rel_err(averaged, grads) <= cls.agg_tolerance


class TestByteHonesty:
    """The claimed wire size never undercounts the encoded payload."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    @given(seed=SEED, world=st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_nbytes_at_least_min_payload(self, name, seed, world):
        comp = make_compressor(name, world)
        rng = np.random.default_rng(seed)
        # Several steps so schedule-dependent modes (AB-Training's a/b
        # phases, variance gating's deferrals) all hit the assertion.
        for _ in range(4):
            per_worker = [make_grads(rng) for _ in range(world)]
            results = [comp.encode(w, per_worker[w]) for w in range(world)]
            for res in results:
                assert res.nbytes >= comp.min_payload_nbytes(res)
                assert res.nbytes >= 0
            comp.decode_aggregate(results)
            comp.advance_step()


class TestErrorFeedbackBounded:
    """Residual memory stays bounded over 50 steps of unit gradients."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    @given(seed=SEED)
    @settings(max_examples=5, deadline=None)
    def test_error_norm_bounded(self, name, seed):
        world = 3
        comp = make_compressor(name, world)
        rng = np.random.default_rng(seed)
        bound = 0.0
        for _ in range(50):
            per_worker = []
            norm = 0.0
            for w in range(world):
                grads = make_grads(rng)
                norm = max(
                    norm,
                    math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2))
                                  for g in grads)),
                )
                per_worker.append(grads)
            comp.decode_aggregate(
                [comp.encode(w, per_worker[w]) for w in range(world)]
            )
            comp.advance_step()
            bound = max(bound, norm)
        for w in range(world):
            e = comp.error_norm(w)
            assert math.isfinite(e)
            # Generous: catches divergence, not the per-scheme constant.
            assert e <= 30.0 * bound


class TestBucketTilingCommutes:
    """Per-bucket encoding with layer_offset == whole-gradient encoding,
    bit for bit — the compressed-overlap invariant."""

    @pytest.mark.parametrize("name", ARC_NAMES)
    @given(seed=SEED, world=st.integers(1, 4), split=st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_tiled_equals_whole(self, name, seed, world, split):
        whole = make_compressor(name, world)
        tiled = make_compressor(name, world)
        rng = np.random.default_rng(seed)
        for _ in range(4):
            per_worker = [
                [
                    rng.standard_normal((5, 6)).astype(np.float32),
                    rng.standard_normal(4).astype(np.float32),
                    rng.standard_normal((3, 7)).astype(np.float32),
                    rng.standard_normal((6, 2)).astype(np.float32),
                ]
                for _ in range(world)
            ]
            n_layers = len(per_worker[0])

            whole_out = whole.decode_aggregate(
                [whole.encode(w, per_worker[w]) for w in range(world)]
            )

            tiled_out = []
            start = 0
            while start < n_layers:
                stop = min(n_layers, start + split)
                results = [
                    tiled.encode(w, per_worker[w][start:stop], layer_offset=start)
                    for w in range(world)
                ]
                tiled_out.extend(tiled.decode_aggregate(results))
                start = stop

            for a, b in zip(whole_out, tiled_out):
                np.testing.assert_array_equal(a, b)
            for w in range(world):
                assert whole.error_norm(w) == tiled.error_norm(w)
            whole.advance_step()
            tiled.advance_step()


def poisoned(decoded) -> str:
    """Per layer, the flat indices of every NaN / +inf / -inf entry
    (``all`` when the whole layer is), or ``finite``."""
    parts = []
    for layer in decoded:
        flat = layer.reshape(-1)
        kinds = []
        for kind, mask in (("nan", np.isnan(flat)), ("+inf", np.isposinf(flat)),
                           ("-inf", np.isneginf(flat))):
            idx = np.flatnonzero(mask)
            if idx.size == flat.size:
                kinds.append(f"{kind}:all")
            elif idx.size:
                kinds.append(f"{kind}:" + ",".join(map(str, idx)))
        parts.append(" ".join(kinds) or "finite")
    return " | ".join(parts)


# Worker 1 of 4 carries the bad value at flat entry 17 of its (6, 7) matrix
# and entry 4 of its vector.  Reading the table: the exact-mean codecs (sgd,
# vargate with open gates) poison exactly those entries with the input's
# kind; a low-rank or quantized matrix (powersgd, qsgd, binary) spreads NaN
# over the whole layer.  atomo's SVD refuses a matrix that is not finite
# before LAPACK sees it, and abtrain, signum and topk refuse the gradient
# at encode: their projection, sign vote and selection would hide it.
NON_FINITE = {
    ("abtrain", "nan"): "NonFiniteGradientError",
    ("abtrain", "+inf"): "NonFiniteGradientError",
    ("abtrain", "-inf"): "NonFiniteGradientError",
    ("atomo", "nan"): "NonFiniteGradientError",
    ("atomo", "+inf"): "NonFiniteGradientError",
    ("atomo", "-inf"): "NonFiniteGradientError",
    ("binary", "nan"): "nan:all | nan:all",
    ("binary", "+inf"): "nan:all | nan:all",
    ("binary", "-inf"): "nan:all | nan:all",
    ("powersgd", "nan"): "nan:all | nan:4",
    ("powersgd", "+inf"): "nan:all | +inf:4",
    ("powersgd", "-inf"): "nan:all | -inf:4",
    ("qsgd", "nan"): "nan:all | nan:all",
    ("qsgd", "+inf"): "nan:all | nan:all",
    ("qsgd", "-inf"): "nan:all | nan:all",
    ("sgd", "nan"): "nan:17 | nan:4",
    ("sgd", "+inf"): "+inf:17 | +inf:4",
    ("sgd", "-inf"): "-inf:17 | -inf:4",
    ("signum", "nan"): "NonFiniteGradientError",
    ("signum", "+inf"): "NonFiniteGradientError",
    ("signum", "-inf"): "NonFiniteGradientError",
    ("topk", "nan"): "NonFiniteGradientError",
    ("topk", "+inf"): "NonFiniteGradientError",
    ("topk", "-inf"): "NonFiniteGradientError",
    ("vargate", "nan"): "nan:17 | nan:4",
    ("vargate", "+inf"): "+inf:17 | +inf:4",
    ("vargate", "-inf"): "-inf:17 | -inf:4",
}
BAD_VALUES = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}


class TestNonFiniteGradients:
    """One poisoned worker: what comes back, per compressor, is pinned."""

    def test_table_covers_the_registry(self):
        assert {name for name, _ in NON_FINITE} == set(ALL_NAMES)
        assert len(NON_FINITE) == len(ALL_NAMES) * len(BAD_VALUES)

    @pytest.mark.parametrize("bad", sorted(BAD_VALUES))
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_decode_is_pinned(self, name, bad):
        world = 4
        rng = np.random.default_rng(0)
        comp = make_compressor(name, world)
        per_worker = [make_grads(rng) for _ in range(world)]
        per_worker[1][0][2, 3] = BAD_VALUES[bad]
        per_worker[1][1][4] = BAD_VALUES[bad]
        with np.errstate(all="ignore"):
            try:
                decoded = comp.decode_aggregate(
                    [comp.encode(w, per_worker[w]) for w in range(world)]
                )
            except np.linalg.LinAlgError as e:
                got = type(e).__name__
            else:
                got = poisoned(decoded)
        assert got == NON_FINITE[(name, bad)]

    @pytest.mark.parametrize("bad", sorted(BAD_VALUES))
    @pytest.mark.parametrize("name", ["abtrain", "atomo"])
    def test_lapack_never_sees_a_matrix_that_is_not_finite(self, name, bad, monkeypatch):
        """An SVD of a matrix with ``inf`` at ``[0, 0]`` can hang OpenBLAS, so
        the codecs that factorize must refuse the gradient first; here such
        an SVD fails loudly instead of hanging."""
        real_svd = np.linalg.svd

        def lapack(m, *args, **kwargs):
            assert np.isfinite(m).all(), "np.linalg.svd reached with a matrix that is not finite"
            return real_svd(m, *args, **kwargs)

        rng = np.random.default_rng(0)
        comp = make_compressor(name, 2)
        per_worker = [make_grads(rng) for _ in range(2)]
        per_worker[1][0][0, 0] = BAD_VALUES[bad]
        monkeypatch.setattr(np.linalg, "svd", lapack)
        with pytest.raises(NonFiniteGradientError, match="not finite"):
            comp.decode_aggregate([comp.encode(w, per_worker[w]) for w in range(2)])

    @pytest.mark.parametrize("name", ["abtrain", "signum", "topk"])
    def test_a_refused_gradient_moves_no_state(self, name):
        """The raise comes before any momentum or residual moves: encoding
        clean gradients afterwards gives a fresh compressor's bytes."""
        rng = np.random.default_rng(0)
        rounds = [make_grads(rng) for _ in range(3)]
        bad = [g.copy() for g in rounds[0]]
        bad[-1][4] = np.nan  # in the last layer, after the first layer's state
        comp, fresh = make_compressor(name, 2), make_compressor(name, 2)
        comp.encode(0, rounds[0])
        fresh.encode(0, rounds[0])
        with pytest.raises(NonFiniteGradientError):
            comp.encode(0, bad)
        for grads in rounds[1:]:
            got, want = comp.encode(0, grads), fresh.encode(0, grads)
            assert got.nbytes == want.nbytes
            assert pickle.dumps(got.payload) == pickle.dumps(want.payload)
