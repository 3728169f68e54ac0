"""Gradient compressor interface for the distributed simulator.

A compressor sees each worker's gradient (as the list of per-parameter
arrays), produces a wire payload plus its byte size, and turns the set of
worker payloads back into one aggregated (averaged) gradient.

``allreduce_compatible`` decides which collective the simulator charges:
sum-compatible encodings ride the ring allreduce; everything else falls
back to allgather, whose cost grows linearly in the node count — the
effect behind Fig. 4's Signum communication bars and Appendix F.

The contract (enforced by ``tests/test_compression_properties.py`` for
every registered compressor, and documented in docs/COMPRESSION.md):

* ``encode(worker, grads, layer_offset=k)`` must treat layer ``i`` of the
  sub-list as global layer ``k + i``, so per-bucket encoding of a tiled
  gradient is indistinguishable from whole-gradient encoding.  For
  allreduce-compatible compressors this is a hard requirement — under
  ``overlap`` the trainer encodes bucket by bucket as gradients arrive.
* ``EncodeResult.nbytes`` is the *claimed* wire size; it must be at least
  :meth:`Compressor.min_payload_nbytes`, the byte count of the
  wire-essential data actually present in the payload.
* ``agg_contract`` + ``agg_tolerance`` publish what ``decode_aggregate``
  guarantees relative to the exact gradient mean (see class docstring).
* Stateful compressors expose residual magnitude via :meth:`error_norm`
  and advance protocol state (step counters, gates) only in
  :meth:`advance_step`, never inside ``decode_aggregate`` — decode may be
  called many times per step (once per bucket).
* A payload may alias compressor-owned state (:class:`ResidualStore`'s
  resident matrices, from a worker's second round on): one ``encode`` per
  ``(worker, layer)`` per round, and a payload is dead once that pair is
  encoded again.  ``decode_aggregate`` stays pure in its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Compressor",
    "EncodeResult",
    "NoCompression",
    "ResidualStore",
    "UndecodedRoundError",
    "exact_mean",
    "register_compressor",
    "registered_compressors",
    "make_compressor",
]

FLOAT32_BYTES = 4

#: Elements per pass of :func:`exact_mean`: its two float64 scratch chunks
#: (512 KiB together) stay in L2 while every worker's slice is folded in.
MEAN_CHUNK = 32768


def exact_mean(arrays, dtype=None) -> np.ndarray:
    """Element-wise mean of equally shaped ``arrays``, accumulated in float64
    in list order and cast once to ``dtype`` (default: the first input's).

    The float64 operations are exactly those of ``a0.astype(float64)``,
    ``+= a1 … += a(n-1)``, ``/ n``, ``.astype(dtype)``, in that order, so the
    result is byte-equal to that formula on every input — signed zeros,
    infinities and NaN payloads included (``tests/oracles.py`` keeps the
    formula as the oracle).  Only the traversal differs: ``MEAN_CHUNK``
    elements at a time, worker 0 copied and every later worker cast into two
    float64 scratch chunks that stay in cache, where the formula streams
    whole-array float64 temporaries through memory once per worker.
    """
    if not arrays:
        raise ValueError("exact_mean of no arrays")
    first = arrays[0]
    if any(a.shape != first.shape for a in arrays):
        raise ValueError(f"exact_mean needs one shape, got {[a.shape for a in arrays]}")
    n = len(arrays)
    out = np.empty(first.shape, dtype=first.dtype if dtype is None else dtype)
    dst = out.reshape(-1)
    flats = [a.reshape(-1) for a in arrays]  # views of contiguous inputs
    acc_buf, cast_buf = np.empty((2, min(dst.size, MEAN_CHUNK)), dtype=np.float64)
    for start in range(0, dst.size, MEAN_CHUNK):
        stop = min(start + MEAN_CHUNK, dst.size)
        acc, cast = acc_buf[: stop - start], cast_buf[: stop - start]
        acc[...] = flats[0][start:stop]
        for flat in flats[1:]:
            cast[...] = flat[start:stop]
            acc += cast
        np.divide(acc, n, out=acc)
        dst[start:stop] = acc
    return out


@dataclass
class EncodeResult:
    """One worker's encoded gradient: opaque payload + wire size in bytes."""

    payload: object
    nbytes: int


def _payload_nbytes(obj) -> int:
    """Bytes of every ndarray reachable in a payload (the default honest
    lower bound for the wire size)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_payload_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_payload_nbytes(v) for v in obj)
    return 0


class UndecodedRoundError(RuntimeError):
    """A ``(worker, layer)`` was encoded again, or asked for its residual,
    while its previous round was never decoded: the residual of that round
    does not exist yet, and the matrix it would be taken from is already
    folded into the resident buffer."""


class ResidualStore:
    """Error feedback in place, for codecs whose residual is ``M − m̂``
    (PowerSGD, AB-Training).

    Each key — ``(worker, global layer)`` — owns **one** float32 buffer
    holding that worker's last matrix ``M`` plus a reference to the ``m̂`` of
    the round the key last decoded in.  The residual is never materialised:
    :meth:`fold` subtracts ``m̂`` and adds the new gradient into the buffer
    (the two float32 roundings of ``g + (M − m̂)``, so bit-identical to
    it), and :meth:`settle` only records ``m̂``, which keeps
    ``decode_aggregate`` pure — it may run twice per round and never writes
    to a payload.  A key that skips rounds keeps the ``m̂`` of *its* last
    round, whatever the layer saw since.
    """

    def __init__(self) -> None:
        # key -> [M, m̂]; m̂ is None between a fold and the next settle.
        self._state: dict[tuple[int, int], list] = {}

    def fold(self, key: tuple[int, int], m: np.ndarray) -> np.ndarray:
        """``m`` plus ``key``'s residual.  The first round has none and
        returns ``m`` itself (borrowed); later rounds return the resident
        buffer, which the caller's payload then aliases."""
        state = self._state.get(key)
        if state is None:
            return m
        buf, m_hat = state
        if m_hat is None:
            raise UndecodedRoundError(
                f"worker {key[0]} encoded layer {key[1]} twice without a decode in between"
            )
        state[1] = None
        if m_hat is buf:  # the last round went out exactly: residual +0.0
            buf.fill(0.0)
        else:
            buf -= m_hat
        buf += m
        return buf

    def settle(
        self, key: tuple[int, int], m: np.ndarray, m_hat: np.ndarray | None = None
    ) -> None:
        """Record that this round approximated ``key``'s matrix ``m`` by
        ``m_hat`` (``None``: transmitted exactly).  ``m`` is adopted by copy
        unless it already is the resident buffer; ``m_hat`` is kept by
        reference and must stay private to the codec."""
        state = self._state.get(key)
        if state is None or state[0] is not m:
            state = self._state[key] = [m.copy(), None]
        state[1] = state[0] if m_hat is None else m_hat

    def norm(self, worker: int) -> float:
        """L2 norm of ``worker``'s residual ``M − m̂`` over all its layers."""
        mine = [state for (w, _), state in self._state.items() if w == worker]
        if any(m_hat is None for _, m_hat in mine):
            raise UndecodedRoundError(
                f"worker {worker}'s residual is undefined until its last round is decoded"
            )
        return float(
            np.sqrt(sum(float(np.sum((m - m_hat).astype(np.float64) ** 2)) for m, m_hat in mine))
        )


class Compressor:
    """Base class.  Subclasses may keep per-worker state (momentum, error
    feedback); ``num_workers`` is fixed at construction so state arrays can
    be indexed by worker id.

    Aggregation contract (published, property-tested):

    * ``agg_contract`` names the regime in which ``decode_aggregate`` is
      checked against the exact mean, within relative ``agg_tolerance``:

      - ``"exact"`` — any input;
      - ``"low_rank"`` — inputs whose matrix gradients have rank ≤ the
        compressor's rank (PowerSGD/AB-Training after a sync step);
      - ``"dense"`` — the compressor configured to keep everything
        (Top-k with ratio=1, variance gating with an infinite threshold);
      - ``"unbiased"`` — only ``E[decode] = mean`` holds; checked by
        averaging repeated stochastic encodings;
      - ``"sign"`` — only the coordinate signs of the mean are recovered
        (Signum's majority vote).
    """

    #: True if payloads can be summed by a ring allreduce.
    allreduce_compatible: bool = True
    name: str = "base"
    #: Aggregation guarantee: exact | low_rank | dense | unbiased | sign.
    agg_contract: str = "exact"
    #: Relative L2 tolerance for the contract above (where applicable).
    agg_tolerance: float = 1e-5

    def __init__(self, num_workers: int):
        self.num_workers = num_workers

    def encode(
        self, worker: int, grads: list[np.ndarray], layer_offset: int = 0
    ) -> EncodeResult:
        """Encode one worker's (possibly tiled) gradient list.

        ``layer_offset`` is the global index of ``grads[0]`` — stateful
        compressors must key warm starts / residuals on
        ``layer_offset + i`` so bucket tiling commutes with encoding.
        ``grads`` are lent, not given: the payload may alias them, but an
        encoder never writes to them (the simulator hands over each
        worker's gradient buffers without a copy).
        """
        raise NotImplementedError

    def decode_aggregate(self, results: list[EncodeResult]) -> list[np.ndarray]:
        """Average of all workers' gradients, reconstructed from payloads."""
        raise NotImplementedError

    def advance_step(self) -> None:
        """Advance protocol state by one optimizer step.

        Called exactly once per training iteration by the simulator (after
        all buckets of the step are decoded).  Stateless compressors
        ignore it; protocol compressors (AB-Training's A/B alternation,
        variance gating's deferral counters) move their schedule here so
        per-bucket decode calls within one step see frozen state.
        """

    def error_norm(self, worker: int) -> float:
        """L2 norm of this worker's error-feedback residual (0 if none).

        Public so the property suite can assert residuals stay bounded
        without reaching into private state.
        """
        return 0.0

    def min_payload_nbytes(self, result: EncodeResult) -> int:
        """Lower bound on the wire size of ``result``'s payload.

        Default: total bytes of every ndarray in the payload.  Compressors
        whose payload carries decode-side state that never hits the wire
        (PowerSGD's full matrices) or whose wire format is tighter than
        the in-memory arrays (QSGD's bit-packing) override this.
        """
        return _payload_nbytes(result.payload)


# ---------------------------------------------------------------------------
# Registry: every concrete compressor registers under its wire name so the
# CLI, the benchmarks and the property suite enumerate one source of truth.

_REGISTRY: dict[str, type[Compressor]] = {}


def register_compressor(cls: type[Compressor]) -> type[Compressor]:
    """Class decorator: register ``cls`` under ``cls.name``."""
    if not cls.name or cls.name == "base":
        raise ValueError("registered compressors need a unique name")
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise ValueError(f"compressor name {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def registered_compressors() -> dict[str, type[Compressor]]:
    """Name → class for every registered compressor (copy)."""
    return dict(_REGISTRY)


def make_compressor(name: str, num_workers: int, **kwargs) -> Compressor:
    """Instantiate a registered compressor by wire name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown compressor {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
    return cls(num_workers, **kwargs)


@register_compressor
class NoCompression(Compressor):
    """Vanilla SGD baseline: raw fp32 gradients over allreduce."""

    allreduce_compatible = True
    name = "sgd"
    agg_contract = "exact"
    agg_tolerance = 1e-6

    def encode(
        self, worker: int, grads: list[np.ndarray], layer_offset: int = 0
    ) -> EncodeResult:
        # The payload *is* the lent gradient list: nothing here or in
        # decode_aggregate writes to it.
        nbytes = sum(g.size for g in grads) * FLOAT32_BYTES
        return EncodeResult(payload=list(grads), nbytes=nbytes)

    def decode_aggregate(self, results: list[EncodeResult]) -> list[np.ndarray]:
        return [
            exact_mean(layer, np.float32) for layer in zip(*(res.payload for res in results))
        ]
