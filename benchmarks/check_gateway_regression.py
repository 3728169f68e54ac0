#!/usr/bin/env python
"""CI regression gate for the gateway sim-vs-live benchmark.

Compares a fresh ``BENCH_gateway.json`` against the committed baseline
(``benchmarks/baselines/gateway_baseline.json``).  The artifact has two
very different halves and the gate treats them accordingly:

* ``sim_twin`` is a pure function of ``(seed, pinned profile, config)``
  — simulator summary and trace digest are compared with an exact
  deep-diff.  Any drift is a behavior change in the ``ServingCore``
  driver, never noise.  ``mixed_steps`` ran live but records only counts
  (member-steps the executor computed, frames, who was answered first),
  so it is deep-diffed too: 7 member-steps, not 16, is the step-level
  batch membership contract.
* ``live_twin`` and ``streaming`` ran against a real localhost server,
  so their measured fields are machine-dependent.  They are *not*
  diffed; instead the gate re-asserts the committed validation bands on
  the current run: shed-rate delta, throughput ratio, per-request
  admission/status agreement, zero client errors, and every streamed
  response progressive (first partial strictly before its final frame).

Usage::

    python benchmarks/check_gateway_regression.py \
        [--current BENCH_gateway.json] \
        [--baseline benchmarks/baselines/gateway_baseline.json]
"""

from __future__ import annotations

from gatelib import DeepExact, Gate, run_gate

MAX_SHED_RATE_DELTA = 0.05
THROUGHPUT_RATIO_BAND = (0.9, 1.1)
MIN_AGREEMENT = 0.80


def invariants(name: str, scenario: dict) -> list[str]:
    failures: list[str] = []
    if name == "live_twin":
        delta = scenario.get("shed_rate_delta", 1.0)
        if abs(delta) > MAX_SHED_RATE_DELTA:
            failures.append(
                f"live_twin: |shed_rate_delta| {abs(delta):.4f} > "
                f"{MAX_SHED_RATE_DELTA} — live server sheds unlike its sim twin"
            )
        ratio = scenario.get("throughput_ratio", 0.0)
        lo, hi = THROUGHPUT_RATIO_BAND
        if not (lo <= ratio <= hi):
            failures.append(
                f"live_twin: throughput ratio {ratio:.4f} outside [{lo}, {hi}]"
            )
        for key in ("admission_agreement", "status_agreement"):
            agree = scenario.get(key, 0.0)
            if agree < MIN_AGREEMENT:
                failures.append(
                    f"live_twin: {key} {agree:.4f} < {MIN_AGREEMENT} — "
                    "per-request decisions diverge from the simulator"
                )
        if scenario.get("n_client_errors", 1):
            failures.append(
                f"live_twin: {scenario.get('n_client_errors')} client error(s)"
            )
    elif name == "streaming":
        if not scenario.get("progressive", False):
            failures.append(
                "streaming: a response's first partial did not precede its "
                "final frame"
            )
        if scenario.get("n_streamed") != scenario.get("n_requests"):
            failures.append(
                f"streaming: {scenario.get('n_streamed')} of "
                f"{scenario.get('n_requests')} responses streamed"
            )
    return failures


def headline(current: dict) -> list[str]:
    failures: list[str] = []
    scenarios = current.get("scenarios", {})
    for name in ("sim_twin", "live_twin", "streaming", "mixed_steps"):
        if name not in scenarios:
            failures.append(f"{name}: scenario missing from current run")
    sim = scenarios.get("sim_twin")
    if sim is not None and sim["summary"]["shed_rate"] <= 0.1:
        failures.append(
            f"sim_twin: shed rate {sim['summary']['shed_rate']} <= 0.1 — the "
            "twin scenario no longer exercises admission control"
        )
    return failures


GATE = Gate(
    name="gateway",
    default_current="BENCH_gateway.json",
    default_baseline="benchmarks/baselines/gateway_baseline.json",
    rules=(DeepExact(),),
    # live_twin/streaming ran against a real server: banded via
    # invariants, never diffed against the baseline.
    skip=lambda name: name in ("live_twin", "streaming"),
    invariants=invariants,
    headline=headline,
    ok_line=lambda n, t: (
        "gateway regression gate: sim twin and mixed steps exact, live twin within bands "
        f"({n} baseline scenarios)"
    ),
    description=__doc__.splitlines()[0],
)


if __name__ == "__main__":
    raise SystemExit(run_gate(GATE))
