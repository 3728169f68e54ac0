"""A real asyncio serving gateway over the simulator's policy core.

``repro.gateway`` lifts the serving stack off the discrete-event
simulator and onto real localhost sockets: a stdlib-only HTTP/1.1 server
(:mod:`repro.gateway.server`) drives the *same*
:class:`~repro.serve.core.ServingCore` — admission, batching, replica
pool and outcome ledger, clock injected — that
:class:`~repro.serve.simulator.ServeSimulator` drives, against real
batched ``no_grad`` forwards
(:mod:`repro.gateway.executor`).  Streaming responses flush one chunked
frame per completed batch step; graceful shutdown sheds the queue with
accounted reasons.

The seeded load generator is repurposed as an async open/closed-loop
client (:mod:`repro.gateway.client`): a seed fully determines the
offered trace, so :mod:`repro.gateway.validate` can replay one trace
through the simulator *and* the live server and gate that the two agree
— the simulator becomes the model a real server is validated against.

CLI: ``repro gateway serve`` / ``repro gateway loadtest``.
Docs: ``docs/GATEWAY.md``.
"""

from .client import (
    LoadClient,
    TraceRequest,
    build_trace,
    summarize_records,
    trace_digest,
)
from .executor import ModelExecutor, ProfileExecutor
from .http import HttpError
from .server import GatewayServer
from .validate import run_twin

__all__ = [
    "LoadClient",
    "TraceRequest",
    "build_trace",
    "summarize_records",
    "trace_digest",
    "ModelExecutor",
    "ProfileExecutor",
    "HttpError",
    "GatewayServer",
    "run_twin",
]
