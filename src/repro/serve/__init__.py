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

from .admission import (
    SHED_ADMISSION,
    SHED_DEADLINE,
    SHED_ERROR,
    SHED_SHUTDOWN,
    AdmissionController,
    AdmissionDecision,
)
from .batcher import BatchPolicy, DynamicBatcher, Request
from .core import BatchRecord, RequestOutcome, ServeReport, ServingCore
from .inputs import INPUT_KINDS, InputSpec
from .latency import DEFAULT_BATCH_SIZES, LatencyProfile, measure_latency_profile
from .loadgen import ArrivalSpec, generate_arrivals
from .registry import (
    IMAGE_MODELS,
    SEQUENCE_MODELS,
    VARIANTS,
    ModelRegistry,
    ServedModel,
    build_model,
    default_registry,
    hybrid_config_for,
    input_spec_for,
)
from .simulator import ServeConfig, ServeSimulator

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "SHED_ADMISSION",
    "SHED_DEADLINE",
    "SHED_SHUTDOWN",
    "SHED_ERROR",
    "ServingCore",
    "ArrivalSpec",
    "generate_arrivals",
    "BatchPolicy",
    "DynamicBatcher",
    "Request",
    "InputSpec",
    "INPUT_KINDS",
    "LatencyProfile",
    "DEFAULT_BATCH_SIZES",
    "measure_latency_profile",
    "VARIANTS",
    "IMAGE_MODELS",
    "SEQUENCE_MODELS",
    "ModelRegistry",
    "ServedModel",
    "build_model",
    "default_registry",
    "hybrid_config_for",
    "input_spec_for",
    "BatchRecord",
    "RequestOutcome",
    "ServeConfig",
    "ServeReport",
    "ServeSimulator",
]
