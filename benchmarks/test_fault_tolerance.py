"""Chaos benchmark — fault-tolerance scenario sweep for the DDP simulator.

Runs the fault-injection layer through its paces: straggler
distributions, message-drop/retry sweeps, transient link degradation,
and worker-failure recovery under both policies (rejoin vs shrink), for
vanilla SGD and the Pufferfish hybrid.

Every *gated* number here is a modeled quantity (comm seconds, banked
retry penalties, recovery seconds, event/retry counts) — fully
determined by the fault seed, so the committed baseline
(``benchmarks/baselines/faults_baseline.json``) can be compared exactly.
Wall-clock compute appears in the printed tables for context but is
never gated.

The session leaves ``BENCH_faults.json`` behind;
``benchmarks/gate.py faults`` fails CI if any recovery-time
metric regresses more than 20% against the baseline.
"""

import numpy as np
import pytest

from harness import artifact, print_series, print_table
from repro.core import build_hybrid
from repro.data import DataLoader, shard_dataset
from repro.distributed import (
    ClusterSpec,
    DistributedTrainer,
    DropSpec,
    FailureSpec,
    FaultSpec,
    LinkSpec,
    StragglerSpec,
)
from repro.models import MLP, mlp_hybrid_config
from repro.optim import SGD
from repro.utils import set_seed

# Deterministic scenario metrics accumulated across this module's tests,
# written to BENCH_faults.json at session end.
_SCENARIOS = artifact("faults")["scenarios"]


def _make_trainer(n_nodes=4, faults=None, seed=0, hidden=16, pufferfish=False):
    set_seed(seed)
    model = MLP(32, [hidden, hidden], 4)
    if pufferfish:
        model, _ = build_hybrid(model, mlp_hybrid_config(rank_ratio=0.25))
    return DistributedTrainer(
        model,
        SGD(model.parameters(), lr=0.05),
        ClusterSpec(n_nodes, bandwidth_gbps=0.01, latency_s=50e-6),
        faults=faults,
    )


def _make_loaders(seed, n_nodes=4, per_worker=16, batch=4):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_nodes * per_worker, 32)).astype(np.float32)
    y = rng.integers(0, 4, n_nodes * per_worker)
    return [DataLoader(sx, sy, batch) for sx, sy in shard_dataset(x, y, n_nodes)]


def _run(faults=None, epochs=2, pufferfish=False, n_nodes=4):
    trainer = _make_trainer(n_nodes=n_nodes, faults=faults, pufferfish=pufferfish)
    loaders = _make_loaders(7, n_nodes=n_nodes)
    trainer.fit(loaders, (), epochs)  # no validation set: the timelines are the result
    timelines = [s.timeline for s in trainer.history]
    summary = trainer.faults.summary() if trainer.faults is not None else {}
    return timelines, summary, trainer


def _modeled(timelines, summary):
    """The deterministic (seed-determined) slice of a run's results."""
    return {
        "comm_s": round(sum(t.comm for t in timelines), 9),
        "other_s": round(sum(t.other for t in timelines), 9),
        "events": summary.get("events", 0),
        "retries": summary.get("retries", 0),
        "backoff_s": round(summary.get("backoff_s", 0.0), 9),
        "recovery_s": round(summary.get("recovery_s", 0.0), 9),
    }


def test_straggler_distribution_sweep(benchmark):
    """Straggler tails stretch the compute phase; the modeled comm phase
    is untouched (stragglers delay workers, not the wire)."""

    def experiment():
        out = {}
        for kind, scale, sigma in [
            ("none", 0.0, 1.0),
            ("constant", 4.0, 1.0),
            ("lognormal", 2.0, 1.0),
            ("heavytail", 2.0, 1.5),
        ]:
            spec = None
            if kind != "none":
                spec = FaultSpec(
                    seed=101,
                    straggler=StragglerSpec(kind=kind, prob=1.0, scale=scale, sigma=sigma),
                )
            out[kind] = _run(faults=spec)
        return out

    res = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = []
    for kind, (tls, summary, _) in res.items():
        compute = sum(t.compute for t in tls)
        rows.append([kind, compute, sum(t.comm for t in tls), summary.get("events", 0)])
        _SCENARIOS[f"straggler_{kind}"] = _modeled(tls, summary)
    print_table(
        "Chaos: straggler distributions, 4 nodes, 2 epochs",
        ["Distribution", "Compute (s)", "Comm (s)", "Events"],
        rows,
    )

    clean = sum(t.compute for t in res["none"][0])
    for kind in ("constant", "lognormal", "heavytail"):
        stretched = sum(t.compute for t in res[kind][0])
        assert stretched > 1.5 * clean, f"{kind} straggler did not stretch compute"
        # Stragglers never touch the modeled wire time.
        assert sum(t.comm for t in res[kind][0]) == pytest.approx(
            sum(t.comm for t in res["none"][0])
        )


def test_drop_retry_sweep(benchmark):
    """Higher drop probability → more retries and more banked penalty."""
    probs = [0.0, 0.02, 0.08, 0.2]

    def experiment():
        out = []
        for prob in probs:
            spec = FaultSpec(
                seed=202,
                drop=DropSpec(prob=prob, max_retries=12, timeout_s=0.05,
                              backoff_base_s=0.01),
            )
            tls, summary, _ = _run(faults=spec)
            out.append((prob, tls, summary))
        return out

    res = benchmark.pedantic(experiment, rounds=1, iterations=1)
    retries = [s["retries"] for _, _, s in res]
    penalties = [sum(t.comm for t in tls) for _, tls, _ in res]
    print_series(
        "Chaos: drop-probability sweep (retries and total comm incl. penalties)",
        f"drop prob = {probs}",
        {"retries": retries, "comm_s": penalties},
    )
    for (prob, tls, summary) in res:
        _SCENARIOS[f"drop_p{prob}"] = _modeled(tls, summary)

    assert retries[0] == 0
    assert retries[-1] > retries[0]
    assert penalties[-1] > penalties[0]


def test_link_degradation_inflates_comm(benchmark):
    """A degraded link divides effective bandwidth; modeled comm grows."""

    def experiment():
        clean = _run(faults=None)
        degraded = _run(
            faults=FaultSpec(seed=303, link=LinkSpec(prob=1.0, factor=0.2, duration=1))
        )
        return clean, degraded

    (clean_tls, _, _), (deg_tls, deg_summary, _) = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    comm_clean = sum(t.comm for t in clean_tls)
    comm_deg = sum(t.comm for t in deg_tls)
    print_table(
        "Chaos: transient link degradation (factor 0.2, every iteration)",
        ["Scenario", "Comm (s)", "Events"],
        [["clean", comm_clean, 0], ["degraded", comm_deg, deg_summary["events"]]],
    )
    _SCENARIOS["link_degraded"] = _modeled(deg_tls, deg_summary)

    assert comm_deg > 2.0 * comm_clean
    assert deg_summary["events"] > 0


def test_failure_recovery_policies(benchmark):
    """Worker failures under both recovery policies; recovery seconds are
    the gated recovery-time metric."""

    def experiment():
        out = {}
        for policy in ("rejoin", "shrink"):
            spec = FaultSpec(
                seed=400,
                failure=FailureSpec(prob=0.05, recovery=policy, recovery_s=0.5),
            )
            out[policy] = _run(faults=spec, epochs=3)
        return out

    res = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = []
    for policy, (tls, summary, trainer) in res.items():
        rows.append([
            policy,
            summary["recovery_s"],
            summary["by_kind"].get("failure", 0),
            len(trainer._active),
        ])
        _SCENARIOS[f"failure_{policy}"] = _modeled(tls, summary)
    print_table(
        "Chaos: worker-failure recovery policies (p=0.05/worker/iter, 3 epochs)",
        ["Policy", "Recovery (s)", "Failures", "Active workers at end"],
        rows,
    )

    rejoin_tls, rejoin_summary, rejoin_trainer = res["rejoin"]
    shrink_tls, shrink_summary, shrink_trainer = res["shrink"]
    # Rejoin pays recovery + re-broadcast time but keeps the full ring.
    assert rejoin_summary["recovery_s"] > 0
    assert len(rejoin_trainer._active) == 4
    # Shrink never pays recovery but permanently loses workers.
    assert shrink_summary["recovery_s"] == 0
    assert len(shrink_trainer._active) < 4


def test_pufferfish_under_chaos(benchmark):
    """Pufferfish's smaller payload keeps its comm advantage under faults —
    the paper's no-extra-cost claim extends to degraded networks."""
    chaos = {
        "seed": 505,
        "straggler": {"kind": "lognormal", "prob": 0.5, "scale": 0.5, "sigma": 1.0},
        "link": {"prob": 0.3, "factor": 0.4, "duration": 2},
        "drop": {"prob": 0.03, "max_retries": 10, "timeout_s": 0.02,
                 "backoff_base_s": 0.005},
    }

    def experiment():
        vanilla = _run(faults=FaultSpec.from_dict(chaos), epochs=2, pufferfish=False)
        hybrid = _run(faults=FaultSpec.from_dict(chaos), epochs=2, pufferfish=True)
        return vanilla, hybrid

    (v_tls, v_summary, _), (h_tls, h_summary, _) = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    rows = [
        ["SGD", sum(t.comm for t in v_tls), v_summary["events"], v_summary["retries"]],
        ["Pufferfish", sum(t.comm for t in h_tls), h_summary["events"],
         h_summary["retries"]],
    ]
    print_table(
        "Chaos: vanilla vs Pufferfish under combined faults (2 epochs)",
        ["Method", "Comm (s)", "Events", "Retries"],
        rows,
    )
    _SCENARIOS["chaos_vanilla"] = _modeled(v_tls, v_summary)
    _SCENARIOS["chaos_pufferfish"] = _modeled(h_tls, h_summary)

    # Identical fault seed → identical event stream for both methods
    # (chaos is a property of the cluster, not the model)...
    assert v_summary["events"] == h_summary["events"]
    # ...and the factorized model still communicates less through it.
    assert sum(t.comm for t in h_tls) < sum(t.comm for t in v_tls)
