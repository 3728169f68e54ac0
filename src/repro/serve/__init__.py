"""SLO-aware inference serving over full-rank and factorized models.

The serving subsystem quantifies what Pufferfish's permanently smaller
models buy at inference time: a model registry materializes ``full`` or
``factorized`` variants of any zoo model (params/MACs accounted per
variant), replica workers take their per-batch service times from
*measured* ``no_grad`` forward passes, and a discrete-event simulator
drives them with seeded Poisson/bursty offered load through a dynamic
batcher and deadline-based admission control.

Pieces (each usable standalone):

* :mod:`repro.serve.registry`  — named builders → :class:`ServedModel`
  variants with params/MACs accounting and checkpoint loading.
* :mod:`repro.serve.latency`   — measured :class:`LatencyProfile`
  (batch size → forward seconds), JSON round-trip for replayable runs.
* :mod:`repro.serve.loadgen`   — counter-keyed seeded arrival processes
  (Poisson / bursty), same RNG discipline as the fault injector.
* :mod:`repro.serve.batcher`   — torch-serve-style dynamic batching
  (``max_batch_size`` + ``max_wait_ms`` deadline flush).
* :mod:`repro.serve.admission` — SLO-aware deadline shedding.
* :mod:`repro.serve.core`      — the one clock-agnostic driver: policy,
  replica pool, per-request timeline / shed ledger and ``serve.*``
  observability metrics.
* :mod:`repro.serve.simulator` — the modeled clock over that driver.

Typical use::

    from repro.serve import (
        ArrivalSpec, BatchPolicy, ServeConfig, ServeSimulator,
        default_registry, generate_arrivals, measure_latency_profile,
    )

    served = default_registry().materialize("vgg19", "factorized", width=0.25)
    profile = measure_latency_profile(served.model, served.input_spec)
    sim = ServeSimulator(profile, ServeConfig(slo_s=0.15, policy=BatchPolicy(16, 0.01)))
    report = sim.run(generate_arrivals(ArrivalSpec(rate_rps=300, duration_s=10, seed=0)))
    print(report.summary())
"""

from .admission import AdmissionController
from .batcher import BatchPolicy, DynamicBatcher
from .core import BatchRecord, RequestOutcome, ServeReport, ServingCore
from .inputs import InputSpec
from .latency import LatencyProfile, measure_latency_profile
from .loadgen import ArrivalSpec, generate_arrivals
from .registry import ModelRegistry, ServedModel, default_registry
from .simulator import ServeConfig, ServeSimulator

__all__ = [
    "AdmissionController",
    "ServingCore",
    "ArrivalSpec",
    "generate_arrivals",
    "BatchPolicy",
    "DynamicBatcher",
    "InputSpec",
    "LatencyProfile",
    "measure_latency_profile",
    "ModelRegistry",
    "ServedModel",
    "default_registry",
    "BatchRecord",
    "RequestOutcome",
    "ServeConfig",
    "ServeReport",
    "ServeSimulator",
]
