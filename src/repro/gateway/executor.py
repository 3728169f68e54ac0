"""Async batch inference executors for the gateway.

Two implementations behind one tiny interface (``estimate`` + awaitable
``run_step``):

* :class:`ModelExecutor` runs *real* ``no_grad`` eval-mode forwards of a
  registry model.  The forward is pure CPU work, so it is offloaded to a
  single worker thread via ``run_in_executor`` — the event loop keeps
  accepting connections and running admission while a GEMM is in flight.
  One thread (not a pool) mirrors the one-replica-one-device reality the
  latency profile was measured under; multi-replica gateways get one
  executor each.

* :class:`ProfileExecutor` *sleeps* the profile's measured latency
  instead of computing.  This is the sim-vs-live twin's instrument: the
  live gateway runs the full socket/asyncio/admission path while service
  times stay exactly the pinned profile the simulator used, so any
  divergence between the two is attributable to the serving machinery,
  not to host noise in the forwards.

Batch *steps* model progressive inference (snippet-1-style streaming
sessions): a request asking for ``steps=k`` receives ``k`` partial
results, one per executor step of its batch, each flushed to the client
as soon as that step completes.  A member is aboard for its own ``k``
steps only: ``run_step`` is called with the members still computing, and
``estimate`` prices a batch the same way.
"""

from __future__ import annotations

import asyncio
import concurrent.futures

import numpy as np

from ..serve.batcher import Request
from ..serve.inputs import InputSpec
from ..serve.latency import LatencyProfile

__all__ = ["ProfileExecutor", "ModelExecutor"]


def _estimate(profile: LatencyProfile, steps: list[int]) -> float:
    """Expected service seconds of a batch whose members ask for ``steps``
    steps each: every step costs the latency of the members still aboard."""
    return sum(
        profile.latency(sum(1 for s in steps if s > step)) for step in range(max(steps))
    )


class ProfileExecutor:
    """Replays a pinned :class:`LatencyProfile` as real elapsed time."""

    kind = "profile"

    def __init__(self, profile: LatencyProfile):
        self.profile = profile

    def estimate(self, steps: list[int]) -> float:
        """Expected service seconds for one batch (the admission estimate)."""
        return _estimate(self.profile, steps)

    async def run_step(self, requests: list[Request], payloads: list[int], step: int) -> list:
        """One batch step: sleep the measured latency, echo the payloads.

        The result is a pure function of (payload, step) so a client can
        verify end-to-end integrity of the streamed chunks.
        """
        await asyncio.sleep(self.profile.latency(len(requests)))
        return [{"echo": int(p), "step": step} for p in payloads]

    def describe(self) -> dict:
        return {
            "executor": self.kind,
            "profile": self.profile.to_dict(),
        }


class ModelExecutor:
    """Real batched ``no_grad`` forwards of a served model, off the loop."""

    kind = "model"

    def __init__(self, served, profile: LatencyProfile | None = None):
        self.served = served
        self.model = served.model
        self.spec: InputSpec = served.input_spec
        # Admission still needs a service estimate; measure lazily if the
        # caller did not bring a profile.
        if profile is None:
            from ..serve.latency import measure_latency_profile

            profile = measure_latency_profile(
                self.model, self.spec, batch_sizes=(1, 4, 8), repeats=1
            )
        self.profile = profile
        self.model.eval()
        self._thread = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="gateway-infer"
        )

    def estimate(self, steps: list[int]) -> float:
        return _estimate(self.profile, steps)

    def _forward(self, payloads: list[int], step: int) -> list:
        from ..tensor import no_grad

        # The batch inputs are a pure function of the request payload
        # seeds (counter-keyed, like every other seeded draw in the repo)
        # so a given trace always computes the same batches.
        rng = np.random.default_rng([int(p) for p in payloads] + [step])
        args = self.spec.example_batch(len(payloads), rng)
        with no_grad():
            out = self.model(*args)
        data = getattr(out, "data", out)
        data = np.asarray(data)
        # Collapse to one class id per example: argmax over the last axis,
        # then (for sequence outputs) take the last position per example.
        pred = np.argmax(data, axis=-1).reshape(len(payloads), -1)[:, -1]
        return [{"class": int(c), "step": step} for c in pred]

    async def run_step(self, requests: list[Request], payloads: list[int], step: int) -> list:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._thread, self._forward, payloads, step)

    def describe(self) -> dict:
        out = {
            "executor": self.kind,
            "model": self.served.name,
            "variant": self.served.variant,
            "params": int(self.served.params),
            "macs": int(self.served.macs),
            "input_spec": self.spec.to_dict(),
        }
        if self.served.lineage:
            # Promoted lifecycle artifact: expose checkpoint version,
            # parent run and rank-map digest on GET /v1/model.
            out["lineage"] = dict(self.served.lineage)
        return out

    def close(self) -> None:
        self._thread.shutdown(wait=False)
