"""Serving benchmark — full-rank vs factorized variants under SLO load.

The headline experiment of the serving subsystem: as offered load rises,
the full-rank VGG-19 variant saturates first, while the factorized
variant (permanently fewer MACs — the Pufferfish property that survives
into deployment) keeps absorbing traffic under the same SLO.  Three
scenario families feed ``BENCH_serving.json``:

* ``variant_accounting`` — params/MACs of both variants; pure
  architecture arithmetic, gated exactly;
* ``pinned_crossover`` — the simulator driven by *pinned* latency
  profiles (measurement-derived medians from the development host, in
  seconds per batch).  Every downstream number is a pure function of
  (pinned profile, seeded arrivals, config), so the request counts, shed
  counts, throughputs and timeline digests are machine-independent and
  gated exactly;
* ``measured_*`` — the same sweep over profiles measured live on the CI
  host; numbers vary by machine, so the gate checks invariants only.

Gate: ``benchmarks/gate.py serving`` against
``benchmarks/baselines/serving_baseline.json``.
"""

from harness import artifact, print_table
from repro.lifecycle import PINNED_FACTORIZED_PROFILE, PINNED_FULL_PROFILE
from repro.serve import (
    ArrivalSpec,
    BatchPolicy,
    LatencyProfile,
    ServeConfig,
    ServeSimulator,
    default_registry,
    generate_arrivals,
    measure_latency_profile,
)

_SCENARIOS = artifact("serving")["scenarios"]

# Measurement-derived per-batch forward seconds (VGG-19, width 0.25,
# rank ratio 0.25, batch sizes 1..32) — representative medians recorded
# on the development host and pinned in ``repro.lifecycle``.  Pinning them
# makes the crossover scenario a deterministic function of the seed, so CI
# gates it exactly; the ``measured_*`` scenarios re-derive the same shape
# from live timings.
PINNED = {"full": PINNED_FULL_PROFILE, "factorized": PINNED_FACTORIZED_PROFILE}

SLO_S = 0.150
POLICY = BatchPolicy(max_batch_size=16, max_wait_s=0.010)
RATES = (380, 430, 500)
DURATION_S = 10.0


def _sweep(profiles: dict[str, LatencyProfile]) -> dict[str, dict]:
    """Run every (variant, rate) cell and return the result grid."""
    out: dict[str, dict] = {}
    for variant, profile in profiles.items():
        cells = {}
        for rate in RATES:
            arrivals = generate_arrivals(
                ArrivalSpec(rate_rps=rate, duration_s=DURATION_S, seed=0)
            )
            report = ServeSimulator(
                profile, ServeConfig(slo_s=SLO_S, policy=POLICY)
            ).run(arrivals, duration_s=DURATION_S)
            s = report.summary()
            cells[str(rate)] = {
                "n_requests": s["n_requests"],
                "n_completed": s["n_completed"],
                "n_shed_admission": s["n_shed_admission"],
                "n_shed_deadline": s["n_shed_deadline"],
                "shed_rate": s["shed_rate"],
                "throughput_rps": s["throughput_rps"],
                "goodput_rps": s["goodput_rps"],
                "p50_ms": s["p50_ms"],
                "p95_ms": s["p95_ms"],
                "p99_ms": s["p99_ms"],
                "queue_depth_max": s["queue_depth_max"],
                "timeline_digest": s["timeline_digest"],
            }
        out[variant] = {
            "capacity_rps": round(profile.capacity_rps(), 6),
            "best_batch": profile.best_batch(),
            "rates": cells,
        }
    return out


def test_variant_accounting():
    """Params and MACs per variant — what factorization permanently buys.

    Architecture arithmetic only (ranks fix the layer shapes), so the
    values are machine-independent and the gate compares them exactly.
    """
    registry = default_registry()
    full = registry.materialize("vgg19", "full", width=0.25)
    fact = registry.materialize("vgg19", "factorized", width=0.25, rank_ratio=0.25)
    print_table(
        "Served VGG-19 variants (width 0.25, rank ratio 0.25)",
        ["Variant", "Params", "MACs/example"],
        [
            ["full", full.params, full.macs],
            ["factorized", fact.params, fact.macs],
        ],
    )
    _SCENARIOS["variant_accounting"] = {
        "model": "vgg19",
        "width": 0.25,
        "rank_ratio": 0.25,
        "params_full": full.params,
        "params_factorized": fact.params,
        "macs_full": full.macs,
        "macs_factorized": fact.macs,
        "n_factorized_layers": fact.factorization["n_factorized"],
        "compression": round(fact.factorization["compression"], 6),
    }
    assert fact.params < full.params
    assert fact.macs < full.macs


def test_pinned_crossover():
    """The throughput/latency crossover under rising offered load.

    With the same SLO, batcher and seed on both sides, the factorized
    profile must sustain strictly higher max throughput — the serving
    restatement of the paper's claim that factorization, unlike gradient
    compression, still pays at inference time.
    """
    grid = _sweep(PINNED)
    full, fact = grid["full"], grid["factorized"]

    rows = []
    for rate in RATES:
        for variant, cells in (("full", full), ("factorized", fact)):
            c = cells["rates"][str(rate)]
            rows.append(
                [
                    rate,
                    variant,
                    c["throughput_rps"],
                    f"{c['shed_rate']:.1%}",
                    c["p50_ms"],
                    c["p99_ms"],
                ]
            )
    print_table(
        f"Serving crossover, pinned profiles (SLO {SLO_S * 1e3:.0f} ms, "
        f"batch <= {POLICY.max_batch_size}, seed 0)",
        ["Rate (rps)", "Variant", "Throughput", "Shed", "p50 (ms)", "p99 (ms)"],
        rows,
    )
    _SCENARIOS["pinned_crossover"] = {
        "slo_ms": SLO_S * 1e3,
        "max_batch": POLICY.max_batch_size,
        "max_wait_ms": POLICY.max_wait_s * 1e3,
        "rates": list(RATES),
        "duration_s": DURATION_S,
        "seed": 0,
        "variants": grid,
    }

    assert fact["capacity_rps"] > full["capacity_rps"]
    # Beyond the full variant's capacity the factorized variant completes
    # strictly more of the same request stream, and sheds less.
    saturating = [r for r in RATES if r > full["capacity_rps"]]
    assert saturating, "sweep never exceeds full-rank capacity"
    for rate in saturating:
        f, h = full["rates"][str(rate)], fact["rates"][str(rate)]
        assert h["throughput_rps"] > f["throughput_rps"], rate
        assert h["shed_rate"] < f["shed_rate"], rate
    # Same seeded request stream on both sides of every cell.
    for rate in RATES:
        assert (
            full["rates"][str(rate)]["n_requests"]
            == fact["rates"][str(rate)]["n_requests"]
        )


def test_measured_profiles(benchmark):
    """The same sweep over profiles measured live on this host.

    Machine-dependent by construction — the gate only checks invariants
    (quantile ordering, shed-rate bounds, positive capacities).  The
    factorized variant's params/MACs advantage is architectural; whether
    its wall-clock advantage survives this host's BLAS is what this
    scenario records.
    """
    registry = default_registry()
    profiles = {}
    for variant in ("full", "factorized"):
        served = registry.materialize("vgg19", variant, width=0.25, rank_ratio=0.25)
        profiles[variant] = measure_latency_profile(
            served.model,
            served.input_spec,
            batch_sizes=(1, 4, 16),
            repeats=3,
            meta={"model": "vgg19", "variant": variant},
        )
    grid = benchmark.pedantic(lambda: _sweep(profiles), rounds=1, iterations=1)

    print_table(
        "Measured per-batch forward latency (ms) on this host",
        ["Variant", "b=1", "b=4", "b=16", "Capacity (rps)"],
        [
            [
                v,
                *[round(t * 1e3, 2) for t in profiles[v].latency_s],
                round(profiles[v].capacity_rps(), 1),
            ]
            for v in ("full", "factorized")
        ],
    )
    for variant, cells in grid.items():
        _SCENARIOS[f"measured_{variant}"] = {
            "batch_sizes": list(profiles[variant].batch_sizes),
            "latency_ms": [round(t * 1e3, 4) for t in profiles[variant].latency_s],
            **cells,
        }
    for variant in ("full", "factorized"):
        assert profiles[variant].capacity_rps() > 0
        for cell in grid[variant]["rates"].values():
            assert 0.0 <= cell["shed_rate"] <= 1.0
            assert cell["p50_ms"] <= cell["p95_ms"] <= cell["p99_ms"]
