#!/usr/bin/env python
"""Regression gates for the benchmark artifacts.

Usage::

    python benchmarks/gate.py NAME [--current PATH] [--baseline PATH]

compares a fresh ``BENCH_<NAME>.json`` (``--current``) against the
committed ``benchmarks/baselines/<NAME>_baseline.json`` (``--baseline``).
Exit codes: 0 every check holds, 1 one ``FAIL`` line per broken check,
2 a missing file or an unknown NAME.  :data:`GATES` maps each NAME to one
function ``(current, baseline) -> failures``.

All gates but ``observability`` go through :func:`walk`: every baseline
scenario must be present in the current run (a missing one is reported
once), the gate's field rules compare it with its baseline, and the gate's
invariants bound every current scenario (machine-dependent numbers are
sanity-checked, never diffed).  A gate's headline claims — the paper's
claims re-asserted on the current artifact — run only on the scenarios
they read that are present.

Field rules, each ``rule(cur, base, name, failures)``:

:func:`deep_diff`
    Exact recursive diff of the whole scenario (pure-function artifacts
    where *any* drift is a behavior change).
:class:`ExactFields`
    Named fields that must equal the baseline (structure facts, seeded
    counts — drift is a behavior change).
:class:`BandFields`
    Deterministic modeled quantities within ±:data:`THRESHOLD` of the
    baseline (``mode="band"``), or at most ``+THRESHOLD`` above it
    (``mode="upper"``: more seconds is a regression, fewer is fine).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

THRESHOLD = 0.20
BASELINES = Path(__file__).resolve().parent / "baselines"


def deep_diff(cur, base, path: str, failures: list[str]) -> None:
    """Record every leaf where ``cur`` differs from ``base``."""
    if isinstance(base, dict) and isinstance(cur, dict):
        for key in sorted(set(base) | set(cur)):
            if key not in cur:
                failures.append(f"{path}.{key}: missing from current run")
            elif key not in base:
                failures.append(f"{path}.{key}: not in baseline (new key)")
            else:
                deep_diff(cur[key], base[key], f"{path}.{key}", failures)
        return
    if isinstance(base, list) and isinstance(cur, list):
        if len(base) != len(cur):
            failures.append(f"{path}: length {len(cur)} != baseline {len(base)}")
            return
        for i, (c, b) in enumerate(zip(cur, base)):
            deep_diff(c, b, f"{path}[{i}]", failures)
        return
    if cur != base:
        failures.append(f"{path}: {cur!r} != baseline {base!r}")


@dataclass(frozen=True)
class ExactFields:
    """Fields that must equal the baseline exactly (absent from both: skipped)."""

    keys: tuple[str, ...]
    note: str = ""

    def __call__(self, cur: dict, base: dict, name: str, failures: list[str]) -> None:
        suffix = f" ({self.note})" if self.note else ""
        for key in self.keys:
            if key not in base and key not in cur:
                continue
            if cur.get(key) != base.get(key):
                failures.append(f"{name}.{key}: {cur.get(key)} != baseline {base.get(key)}{suffix}")


@dataclass(frozen=True)
class BandFields:
    """Modeled quantities gated against :data:`THRESHOLD`.

    ``mode="band"`` fails outside ``[b·(1-t), b·(1+t)]`` (and skips keys
    absent from the baseline); ``mode="upper"`` fails only above
    ``b·(1+t)``.  ``unit`` is appended to printed values ("s" for seconds).
    """

    keys: tuple[str, ...]
    mode: str = "band"
    note: str = ""
    unit: str = "s"

    def __call__(self, cur: dict, base: dict, name: str, failures: list[str]) -> None:
        t, u = THRESHOLD, self.unit
        for key in self.keys:
            if self.mode == "band":
                if key not in base:
                    continue
                b, c = base[key], cur.get(key, 0.0)
                lo, hi = b * (1.0 - t), b * (1.0 + t)
                if not (lo <= c <= hi):
                    suffix = f"; {self.note}" if self.note else ""
                    failures.append(
                        f"{name}.{key}: {c:.6f}{u} outside [{lo:.6f}, {hi:.6f}] "
                        f"(baseline {b:.6f}{u} ±{t:.0%}{suffix})"
                    )
            else:
                b, c = base.get(key, 0.0), cur.get(key, 0.0)
                limit = b * (1.0 + t)
                if c > limit and c - b > 1e-9:
                    failures.append(
                        f"{name}.{key}: {c:.6f}{u} > {limit:.6f}{u} (baseline {b:.6f}{u} +{t:.0%})"
                    )


def walk(current, baseline, rules=(deep_diff,), section="scenarios", skip=(), invariants=None):
    """Presence and ``rules`` for every baseline item of ``section``, then
    ``invariants(name, item)`` on every current item.

    An item whose name starts with a ``skip`` prefix is required but never
    compared with its baseline (it carries this host's measurements).
    Items outside ``"scenarios"`` are named ``<section>.<name>``.
    """
    failures: list[str] = []
    scenarios = section == "scenarios"
    cur_items = current.get(section, {})
    for name, base in sorted(baseline.get(section, {}).items()):
        label = name if scenarios else f"{section}.{name}"
        cur = cur_items.get(name)
        if cur is None:
            failures.append(f"{label}: {'scenario ' if scenarios else ''}missing from current run")
        elif not name.startswith(skip):
            for rule in rules:
                rule(cur, base, label, failures)
    if invariants is not None:
        for name, item in sorted(cur_items.items()):
            failures.extend(invariants(name, item))
    return failures


# ---------------------------------------------------------------- faults


def faults(current: dict, baseline: dict) -> list[str]:
    """Chaos suite.  Every metric is modeled (seed-determined): the seeded
    event stream must match exactly (drift is a determinism break), and
    recovery-time seconds may not exceed the baseline by more than 20%."""
    return walk(
        current,
        baseline,
        (
            ExactFields(
                ("events", "retries"),
                note="seeded event stream changed — determinism break",
            ),
            BandFields(("comm_s", "other_s", "backoff_s", "recovery_s"), mode="upper"),
        ),
    )


# --------------------------------------------------------------- overlap


def _overlap_invariants(name: str, cur: dict) -> list[str]:
    failures: list[str] = []
    if "overlap_fraction" in cur:
        f = cur["overlap_fraction"]
        if not (0.0 < f <= 1.0):
            failures.append(f"{name}.overlap_fraction: {f} outside (0, 1]")
    if "comm_exposed_s" in cur and "comm_bucketed_s" in cur:
        if cur["comm_exposed_s"] > cur["comm_bucketed_s"] + 1e-9:
            failures.append(
                f"{name}: exposed {cur['comm_exposed_s']:.6f}s exceeds "
                f"total bucketed comm {cur['comm_bucketed_s']:.6f}s"
            )
    return failures


def overlap(current: dict, baseline: dict) -> list[str]:
    """Overlap / fused-optimizer benchmark.  Bucket structure is a pure
    function of the model and the cap (exact); the α–β modeled comm
    seconds stay within ±20%; measured compute and the hidden fraction are
    only bounded: ``0 < overlap_fraction <= 1``, exposed <= bucketed comm."""
    return walk(
        current,
        baseline,
        (
            ExactFields(
                ("n_buckets", "n_tensors", "n_params", "payload_bytes", "sizes", "offsets"),
                note="bucket/arena structure changed",
            ),
            BandFields(("comm_mono_s", "comm_bucketed_s"), note="modeled time drifted"),
        ),
        invariants=_overlap_invariants,
    )


# --------------------------------------------------------------- serving


def _check_cell_invariants(name: str, cell: dict, failures: list[str]) -> None:
    if "shed_rate" in cell and not (0.0 <= cell["shed_rate"] <= 1.0):
        failures.append(f"{name}: shed_rate {cell['shed_rate']} outside [0, 1]")
    if {"p50_ms", "p95_ms", "p99_ms"} <= set(cell):
        if not (cell["p50_ms"] <= cell["p95_ms"] <= cell["p99_ms"]):
            failures.append(
                f"{name}: quantiles out of order "
                f"p50={cell['p50_ms']} p95={cell['p95_ms']} p99={cell['p99_ms']}"
            )
    needed = {"n_requests", "n_completed", "n_shed_admission", "n_shed_deadline"}
    if needed <= set(cell):
        total = cell["n_completed"] + cell["n_shed_admission"] + cell["n_shed_deadline"]
        if total != cell["n_requests"]:
            failures.append(f"{name}: outcomes sum to {total}, not n_requests={cell['n_requests']}")


def _scenario_invariants(name: str, scenario: dict, failures: list[str]) -> None:
    if "capacity_rps" in scenario and scenario["capacity_rps"] <= 0:
        failures.append(f"{name}: capacity_rps {scenario['capacity_rps']} not positive")
    rates = scenario.get("rates")
    if isinstance(rates, dict):  # top-level "rates" may just list the sweep
        for rate, cell in rates.items():
            _check_cell_invariants(f"{name}.rates[{rate}]", cell, failures)
    _check_cell_invariants(name, scenario, failures)


def _serving_invariants(name: str, scenario: dict) -> list[str]:
    failures: list[str] = []
    _scenario_invariants(name, scenario, failures)
    for sub in scenario.get("variants", {}).values():
        _scenario_invariants(name, sub, failures)
    return failures


def serving(current: dict, baseline: dict) -> list[str]:
    """Serving benchmark.  ``variant_accounting`` and ``pinned_crossover``
    are pure functions of pinned inputs (exact deep-diff); the
    ``measured_*`` scenarios carry this host's forward times, so they are
    required but only invariant-checked (``0 <= shed_rate <= 1``, ordered
    quantiles, positive capacity, outcomes that sum up).  Headline: the
    factorized capacity strictly exceeds full-rank, and past full-rank
    saturation it sustains strictly higher throughput under the same SLO."""
    failures = walk(current, baseline, skip=("measured_",), invariants=_serving_invariants)
    pinned = current.get("scenarios", {}).get("pinned_crossover")
    if pinned is None:
        return failures
    variants = pinned.get("variants", {})
    full, fact = variants.get("full"), variants.get("factorized")
    if not full or not fact:
        failures.append("pinned_crossover: needs both full and factorized variants")
        return failures
    if not fact["capacity_rps"] > full["capacity_rps"]:
        failures.append(
            "pinned_crossover: factorized capacity "
            f"{fact['capacity_rps']} not above full {full['capacity_rps']}"
        )
    saturating = [r for r in pinned.get("rates", []) if r > full["capacity_rps"]]
    if not saturating:
        failures.append("pinned_crossover: sweep never exceeds full-rank capacity")
    for rate in saturating:
        f, h = full["rates"][str(rate)], fact["rates"][str(rate)]
        if not h["throughput_rps"] > f["throughput_rps"]:
            failures.append(
                f"pinned_crossover @ {rate} rps: factorized throughput "
                f"{h['throughput_rps']} not above full {f['throughput_rps']}"
            )
    return failures


# --------------------------------------------------------------- cluster


def cluster(current: dict, baseline: dict) -> list[str]:
    """Cluster control plane over pinned profiles: exact deep-diff,
    timeline digests included.  Headline: the factorized fleet serves the
    same stream at an equal-or-lower shed rate on strictly fewer hosts;
    autoscaling holds its shed target with zero oscillations; the healthy
    canary promotes and the slow one rolls back."""
    failures = walk(current, baseline)
    scenarios = current.get("scenarios", {})
    if "fleet_cost" in scenarios:
        full = scenarios["fleet_cost"]["variants"]["full"]
        fact = scenarios["fleet_cost"]["variants"]["factorized"]
        if not fact["n_hosts"] < full["n_hosts"]:
            failures.append(
                f"fleet_cost: factorized hosts {fact['n_hosts']} not strictly "
                f"below full {full['n_hosts']}"
            )
        if fact["shed_rate"] > full["shed_rate"]:
            failures.append(
                f"fleet_cost: factorized shed {fact['shed_rate']} above "
                f"full {full['shed_rate']}"
            )
        if fact["n_requests"] != full["n_requests"]:
            failures.append("fleet_cost: variants saw different request streams")
    if "autoscale_spike" in scenarios:
        scale = scenarios["autoscale_spike"]
        if scale["steady_state_shed"] > scale["shed_target"]:
            failures.append(
                f"autoscale_spike: steady-state shed {scale['steady_state_shed']} "
                f"above target {scale['shed_target']}"
            )
        if scale["oscillations"] != 0:
            failures.append(
                f"autoscale_spike: {scale['oscillations']} hysteresis "
                "oscillations in the event timeline"
            )
    if "canary_rollout" in scenarios:
        canary = scenarios["canary_rollout"]
        if canary["healthy"]["status"] != "promoted":
            failures.append(
                f"canary_rollout: healthy run {canary['healthy']['status']!r}, "
                "expected promoted"
            )
        if canary["slow_canary"]["status"] != "rolled_back":
            failures.append(
                f"canary_rollout: slow-canary run "
                f"{canary['slow_canary']['status']!r}, expected rolled_back"
            )
    return failures


# ----------------------------------------------------------- compression

COMPRESSION_HEADLINE = (
    "train:vgg:sgd",
    "train:vgg:powersgd",
    "train:vgg:abtrain",
    "train:vgg:factorized",
    "crossover",
)


def _compression_invariants(name: str, cur: dict) -> list[str]:
    failures: list[str] = []
    if "compression_ratio" in cur and cur["compression_ratio"] <= 0:
        failures.append(f"{name}.compression_ratio: {cur['compression_ratio']} <= 0")
    if "wire_bytes_mean" in cur and cur["wire_bytes_mean"] <= 0:
        failures.append(f"{name}.wire_bytes_mean: {cur['wire_bytes_mean']} <= 0")
    if name == "crossover" and not cur.get("winners"):
        failures.append("crossover.winners is empty")
    if name.startswith("faults:") and cur.get("events", 0) <= 0:
        failures.append(f"{name}: chaos run injected no events")
    return failures


def compression(current: dict, baseline: dict) -> list[str]:
    """Compression bake-off.  Names, counts, shape-determined wire bytes,
    crossover winners, MACs and the seeded fault census are exact; mean
    wire bytes (variance gating's depend on gradient values) and modeled
    comm seconds stay within ±20%.  Headline: PowerSGD and AB-Training
    send fewer bytes than SGD, the factorized payload is below the full
    one, and the factorized variant wins at least one crossover cell."""
    failures = walk(
        current,
        baseline,
        (
            ExactFields(
                (
                    "compressor",
                    "n_params",
                    "payload_bytes",
                    "n_buckets",
                    "iterations",
                    "wire_bytes_per_iter",
                    "wire_bytes_per_step",
                    "winners",
                    "macs",
                    "flops_ref",
                    "events",
                    "by_kind",
                ),
                note="bake-off structure / shape-determined bytes changed",
            ),
            BandFields(("wire_bytes_mean",), note="wire bytes drifted", unit="B"),
            BandFields(("comm_modeled_s",), note="modeled comm drifted"),
        ),
        invariants=_compression_invariants,
    )
    sc = current.get("scenarios", {})
    if not all(name in sc for name in COMPRESSION_HEADLINE):
        return failures

    def mean(key: str) -> float:
        return sc[key]["wire_bytes_mean"]

    for comp in ("powersgd", "abtrain"):
        if mean(f"train:vgg:{comp}") >= mean("train:vgg:sgd"):
            failures.append(
                f"headline: {comp} wire bytes "
                f"({mean(f'train:vgg:{comp}'):.0f}B) not below SGD "
                f"({mean('train:vgg:sgd'):.0f}B)"
            )
    if sc["train:vgg:factorized"]["payload_bytes"] >= sc["train:vgg:sgd"]["payload_bytes"]:
        failures.append("headline: factorized payload not below full payload")
    winners = set(sc["crossover"]["winners"].values())
    if "factorized" not in winners:
        failures.append(f"headline: factorized wins no crossover cell (winners: {winners})")
    return failures


# --------------------------------------------------------------- gateway

# Bands for the live twin (characterized over repeated runs on a loaded
# single-core machine; see docs/GATEWAY.md).  benchmarks/test_gateway.py
# asserts the same bands when it records the scenario.
MAX_SHED_RATE_DELTA = 0.05
THROUGHPUT_RATIO_BAND = (0.9, 1.1)
MIN_AGREEMENT = 0.80


def _gateway_invariants(name: str, scenario: dict) -> list[str]:
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
            failures.append(f"live_twin: throughput ratio {ratio:.4f} outside [{lo}, {hi}]")
        for key in ("admission_agreement", "status_agreement"):
            agree = scenario.get(key, 0.0)
            if agree < MIN_AGREEMENT:
                failures.append(
                    f"live_twin: {key} {agree:.4f} < {MIN_AGREEMENT} — "
                    "per-request decisions diverge from the simulator"
                )
        if scenario.get("n_client_errors", 1):
            failures.append(f"live_twin: {scenario.get('n_client_errors')} client error(s)")
    elif name == "streaming":
        if not scenario.get("progressive", False):
            failures.append("streaming: a response's first partial did not precede its final frame")
        if scenario.get("n_streamed") != scenario.get("n_requests"):
            failures.append(
                f"streaming: {scenario.get('n_streamed')} of "
                f"{scenario.get('n_requests')} responses streamed"
            )
    return failures


def gateway(current: dict, baseline: dict) -> list[str]:
    """Gateway sim-vs-live twin.  ``sim_twin`` (a pure function of seed,
    pinned profile and config) and ``mixed_steps`` (counts only: 7
    member-steps, not 16, is the step-level membership contract) are
    deep-diffed.  ``live_twin`` and ``streaming`` ran against a real
    localhost server: required, never diffed, held to the validation
    bands (shed-rate delta, throughput ratio, per-request agreement, zero
    client errors, every streamed response progressive).  Headline: the
    sim twin still sheds more than 10%, i.e. exercises admission control."""
    failures = walk(
        current, baseline, skip=("live_twin", "streaming"), invariants=_gateway_invariants
    )
    sim = current.get("scenarios", {}).get("sim_twin")
    if sim is not None and sim["summary"]["shed_rate"] <= 0.1:
        failures.append(
            f"sim_twin: shed rate {sim['summary']['shed_rate']} <= 0.1 — the "
            "twin scenario no longer exercises admission control"
        )
    return failures


# --------------------------------------------------------------- kernels


def _op_invariants(op: str, cur: dict) -> list[str]:
    failures: list[str] = []
    if not cur.get("parity_ok"):
        failures.append(
            f"{op}: parity violated under tag {cur.get('tag')!r} "
            f"(max_abs_err {cur.get('max_abs_err')})"
        )
    floor = cur.get("min_speedup")
    speedup = cur.get("speedup")
    if floor is not None and (speedup is None or speedup < floor):
        failures.append(
            f"{op}: speedup {speedup} below enforced floor {floor}x (fast-backend win regressed)"
        )
    return failures


def _fused_invariants(section: str, unfused: str):
    """Invariants of a fused-vs-unfused section: the match kind holds and
    the speedup over the ``unfused`` form meets its floor."""

    def invariants(name: str, cur: dict) -> list[str]:
        failures: list[str] = []
        if not cur.get("match_ok"):
            failures.append(
                f"{section}.{name}: fused result diverged from the {unfused} "
                f"(match kind {cur.get('match')!r})"
            )
        floor = cur.get("min_speedup")
        speedup = cur.get("speedup")
        if floor is not None and (speedup is None or speedup < floor):
            failures.append(
                f"{section}.{name}: speedup {speedup} over the {unfused} "
                f"below enforced floor {floor}x (fusion win regressed)"
            )
        return failures

    return invariants


def _powersgd_invariants(name: str, cur: dict) -> list[str]:
    """Match + floor as every rewrite-vs-oracle section, and the rewrite's
    point: a round's peak working set below the allocating codec's."""
    failures = _fused_invariants("powersgd_round", "allocate-per-round codec")(name, cur)
    if not cur["inplace_peak_mb"] < cur["oracle_peak_mb"]:
        failures.append(
            f"powersgd_round.{name}: peak working set {cur['inplace_peak_mb']} MB "
            f"not below the allocate-per-round codec's {cur['oracle_peak_mb']} MB"
        )
    return failures


# (section, exact fields, note, invariants)
KERNEL_SECTIONS = (
    ("ops", ("tag", "shape", "min_speedup"), "kernel", _op_invariants),
    (
        "fused_step",
        ("n_tensors", "n_params", "match", "min_speedup"),
        "fused-step",
        _fused_invariants("fused_step", "per-tensor loop"),
    ),
    (
        "linear_fwd_bwd",
        ("shape", "nodes_composite", "nodes_fused", "match", "min_speedup"),
        "linear_fwd_bwd",
        _fused_invariants("linear_fwd_bwd", "x @ W.T + b composite"),
    ),
    (
        "max_pool_fwd_bwd",
        ("shape", "match", "min_speedup"),
        "max_pool_fwd_bwd",
        _fused_invariants("max_pool_fwd_bwd", "argmax / col2im route"),
    ),
    ("powersgd_round", ("shape", "match", "min_speedup"), "powersgd_round", _powersgd_invariants),
    (
        "exact_mean",
        ("shape", "match", "min_speedup"),
        "exact_mean",
        _fused_invariants("exact_mean", "whole-array formula"),
    ),
)


def kernels(current: dict, baseline: dict) -> list[str]:
    """Backend kernels.  Wall-clock speedups are machine-dependent and never
    diffed.  Per section, each entry's parity tag or match kind, shape,
    graph-node counts and enforced floor are exact (a dropped op or a
    loosened floor is a gate change); every current entry's parity (or
    match) holds and its speedup meets its floor — per op, both fused
    optimizer steps, the fused linear, the max-pool slabs, a PowerSGD round
    with in-place error feedback (whose peak working set must also stay
    below the allocating codec's) and the chunked exact mean."""
    failures: list[str] = []
    for section, keys, what, invariants in KERNEL_SECTIONS:
        rule = ExactFields(keys, note=f"{what} benchmark structure changed")
        failures += walk(current, baseline, (rule,), section, invariants=invariants)
    return failures


# ------------------------------------------------------------- lifecycle


def lifecycle(current: dict, baseline: dict) -> list[str]:
    """Lifecycle pipeline: a pure function of (seed, config), so an exact
    deep-diff (spectra digests, rank maps, promotion decisions, timeline
    digest).  Headline: the per-layer map differs from the global-0.25 map
    and at least one online re-factorization fires and params shrink; every
    re-factorization under DDP is charged a resync broadcast; the promoted
    artifact round-trips ranks and weights; the healthy rollout promotes
    and the injected regression rolls back."""
    failures = walk(current, baseline)
    scenarios = current.get("scenarios", {})
    if "pipeline" in scenarios:
        pipeline = scenarios["pipeline"]
        if pipeline["n_layers_differ_from_global"] < 1:
            failures.append("pipeline: per-layer rank map identical to the global-ratio map")
        if pipeline["n_refactorizations"] < 1:
            failures.append("pipeline: no online re-factorization fired")
        if pipeline["param_reduction"] <= 1.0:
            failures.append(
                f"pipeline: param reduction {pipeline['param_reduction']} not above 1.0"
            )
    if "pipeline_ddp" in scenarios:
        resyncs = [e for e in scenarios["pipeline_ddp"]["events"] if e["event"] == "refactorize"]
        if not resyncs:
            failures.append("pipeline_ddp: no re-factorization fired under DDP")
        for e in resyncs:
            if e["resync_bytes"] <= 0 or e["resync_seconds"] <= 0:
                failures.append(
                    f"pipeline_ddp: epoch {e['epoch']} re-factorization "
                    "charged no resync broadcast"
                )
    if "promotion_roundtrip" in scenarios:
        promo = scenarios["promotion_roundtrip"]
        if not promo["ranks_exact"]:
            failures.append("promotion_roundtrip: served ranks differ from run")
        if not promo["weights_exact"]:
            failures.append("promotion_roundtrip: promoted weights did not round-trip")
        if promo["versions"] != [1, 2]:
            failures.append(
                f"promotion_roundtrip: versions {promo['versions']}, expected dense [1, 2]"
            )
    if "deployment" in scenarios:
        deploy = scenarios["deployment"]
        if deploy["healthy"]["status"] != "promoted":
            failures.append(
                f"deployment: healthy run {deploy['healthy']['status']!r}, expected promoted"
            )
        if deploy["degraded"]["status"] != "rolled_back":
            failures.append(
                f"deployment: degraded run {deploy['degraded']['status']!r}, "
                "expected rolled_back"
            )
    return failures


# --------------------------------------------------------- observability

# Columns whose values are exact model-structure arithmetic (Table 1).
EXACT_COLUMNS = ExactFields(
    (
        "#Params",
        "#Params (lib)",
        "#Params (formula)",
        "MACs (measured)",
        "MACs (formula)",
        "Formula",
        "Events",
        "Retries",
    ),
    note="closed-form value changed",
)
# Columns carrying modeled (cost-model) seconds.
MODELED_COLUMNS = BandFields(("Comm (s)",), unit="")


def _check_table(title: str, cur: dict, base: dict) -> list[str]:
    if cur.get("headers") != base.get("headers"):
        return [f"{title}: headers changed {base.get('headers')} -> {cur.get('headers')}"]
    failures: list[str] = []
    headers = base["headers"]
    cur_rows = {str(row[0]): row for row in cur.get("rows", [])}
    for label, base_row in {str(row[0]): row for row in base.get("rows", [])}.items():
        if label not in cur_rows:
            failures.append(f"{title}: row {label!r} missing from current run")
            continue
        c, b = dict(zip(headers, cur_rows[label])), dict(zip(headers, base_row))
        for rule in (EXACT_COLUMNS, MODELED_COLUMNS):
            rule(c, b, f"{title} [{label}]", failures)
    return failures


def observability(current: dict, baseline: dict) -> list[str]:
    """The benchmark-smoke records (``pytest benchmarks -k "table1 or
    fast"``), keyed by title.  Every baseline record must still be produced
    with the same kind and headers (a vanished table means a benchmark
    stopped reporting); closed-form columns are exact, modeled "Comm (s)"
    within ±20%; series keep their names and lengths.  Wall-clock columns
    are machine noise and never compared."""
    failures: list[str] = []
    cur_records = {r["title"]: r for r in current.get("records", [])}
    for base_rec in baseline.get("records", []):
        title = base_rec["title"]
        cur_rec = cur_records.get(title)
        if cur_rec is None:
            failures.append(f"{title}: record missing from current run")
            continue
        if cur_rec["kind"] != base_rec["kind"]:
            failures.append(f"{title}: kind changed {base_rec['kind']} -> {cur_rec['kind']}")
            continue
        if base_rec["kind"] == "table":
            failures.extend(_check_table(title, cur_rec, base_rec))
        elif base_rec["kind"] == "series":
            cur_series = cur_rec.get("series", {})
            for name, values in base_rec.get("series", {}).items():
                if name not in cur_series:
                    failures.append(f"{title}: series {name!r} missing")
                elif len(cur_series[name]) != len(values):
                    failures.append(
                        f"{title}: series {name!r} length {len(cur_series[name])} "
                        f"!= baseline {len(values)}"
                    )
    return failures


# ------------------------------------------------------------------ main

GATES = {
    "faults": faults,
    "overlap": overlap,
    "serving": serving,
    "cluster": cluster,
    "compression": compression,
    "gateway": gateway,
    "kernels": kernels,
    "lifecycle": lifecycle,
    "observability": observability,
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("name", metavar="NAME", choices=GATES)
    ap.add_argument("--current", help="default: BENCH_<NAME>.json")
    ap.add_argument("--baseline", help="default: benchmarks/baselines/<NAME>_baseline.json")
    args = ap.parse_args(argv)
    current = Path(args.current or f"BENCH_{args.name}.json")
    baseline = Path(args.baseline or BASELINES / f"{args.name}_baseline.json")
    for path in (current, baseline):
        if not path.exists():
            print(f"{args.name} regression gate: missing {path}", file=sys.stderr)
            return 2
    failures = GATES[args.name](json.loads(current.read_text()), json.loads(baseline.read_text()))
    if failures:
        print(f"{args.name} regression gate: {len(failures)} failure(s)")
        for f in failures:
            print(f"  FAIL {f}")
        return 1
    print(f"{args.name} regression gate: OK against {baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
