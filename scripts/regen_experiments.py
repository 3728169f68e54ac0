#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md / docs tables from recorded benchmark artifacts.

Benchmark runs leave machine-readable records behind (``BENCH_*.json``);
hand-transcribing them into EXPERIMENTS.md invites drift.  This script
owns the sections of EXPERIMENTS.md wrapped in regen markers::

    <!-- regen:serving_crossover source=BENCH_serving.json -->
    ... generated content, do not edit by hand ...
    <!-- regen:end -->

Each marker names a generator below; the generator reads its source
artifact and emits the replacement lines.  Only deterministic artifacts
(pinned-profile scenarios, architecture arithmetic) should feed these
tables — CI runs ``--check`` after the serving benchmark, so anything
machine-dependent would flap.

Usage::

    python scripts/regen_experiments.py            # rewrite in place
    python scripts/regen_experiments.py --check    # exit 1 if stale
"""

from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS = REPO_ROOT / "EXPERIMENTS.md"
PERFORMANCE = REPO_ROOT / "docs" / "PERFORMANCE.md"
GATEWAY = REPO_ROOT / "docs" / "GATEWAY.md"

MARKER_RE = re.compile(
    r"<!-- regen:(?P<name>[\w-]+) source=(?P<source>[\w./-]+) -->\n"
    r"(?P<body>.*?)"
    r"<!-- regen:end -->",
    re.DOTALL,
)


def _md_table(headers: list[str], rows: list[list]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    for row in rows:
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    return lines


def gen_serving_crossover(artifact: dict) -> list[str]:
    """The headline serving table: pinned-profile crossover sweep."""
    s = artifact["scenarios"]["pinned_crossover"]
    acct = artifact["scenarios"]["variant_accounting"]
    variants = s["variants"]
    lines = [
        f"Pinned measurement-derived profiles, SLO {s['slo_ms']:.0f} ms, "
        f"batch ≤ {s['max_batch']}, wait ≤ {s['max_wait_ms']:.0f} ms, "
        f"seed {s['seed']}, {s['duration_s']:.0f} s per cell "
        f"(`benchmarks/test_serving.py`, regenerated by "
        f"`scripts/regen_experiments.py`).",
        "",
        f"Variants: full {acct['params_full']:,} params / "
        f"{acct['macs_full']:,} MACs; factorized "
        f"{acct['params_factorized']:,} params / "
        f"{acct['macs_factorized']:,} MACs "
        f"({acct['compression']:.2f}× layer compression).  Single-replica "
        f"capacity: full {variants['full']['capacity_rps']:.0f} rps, "
        f"factorized {variants['factorized']['capacity_rps']:.0f} rps.",
        "",
    ]
    rows = []
    for rate in s["rates"]:
        for variant in ("full", "factorized"):
            c = variants[variant]["rates"][str(rate)]
            rows.append(
                [
                    rate,
                    variant,
                    f"{c['throughput_rps']:.1f}",
                    f"{100 * c['shed_rate']:.1f}%",
                    f"{c['p50_ms']:.1f}",
                    f"{c['p99_ms']:.1f}",
                    c["queue_depth_max"],
                ]
            )
    lines += _md_table(
        ["Offered (rps)", "Variant", "Throughput (rps)", "Shed", "p50 (ms)",
         "p99 (ms)", "Peak queue"],
        rows,
    )
    return lines


def gen_fault_injection(artifact: dict) -> list[str]:
    """Seeded fault-injection sweep — every value is modeled-clock
    deterministic, so the table is machine-independent."""
    scenarios = artifact["scenarios"]
    lines = [
        "Seeded fault-injection scenarios (`benchmarks/test_fault_tolerance.py`, "
        "gated by `benchmarks/gate.py faults`; regenerated by "
        "`scripts/regen_experiments.py`).  Counts and modeled seconds are "
        "pure functions of the fault seed — any drift is a determinism "
        "break, not noise.",
        "",
    ]
    rows = []
    for name in sorted(scenarios):
        s = scenarios[name]
        rows.append(
            [
                f"`{name}`",
                s["events"],
                s["retries"],
                f"{s['backoff_s'] * 1e3:.0f}",
                f"{s['recovery_s']:.3f}",
                f"{s['comm_s']:.4f}",
            ]
        )
    lines += _md_table(
        ["Scenario", "Events", "Retries", "Backoff (ms)", "Recovery (s)",
         "Comm (s)"],
        rows,
    )
    return lines


def gen_overlap_buckets(artifact: dict) -> list[str]:
    """Gradient-bucketing structure — only the deterministic keys (bucket
    boundaries, payload bytes, tensor/param counts); measured speedups
    stay in prose since they are machine-dependent."""
    s = artifact["scenarios"]
    buckets = s["bucket_structure"]
    overlap = s["overlap_mlp"]
    fused = s["fused_sgd"]
    lines = [
        f"Bucket layout for the overlap benchmark's MLP "
        f"(`benchmarks/test_overlap.py`, structure gated exactly by "
        f"`benchmarks/gate.py overlap`; regenerated by "
        f"`scripts/regen_experiments.py`): {buckets['n_buckets']} buckets "
        f"over {overlap['payload_bytes']:,} payload bytes; the fused "
        f"optimizer covers {fused['n_tensors']} tensors / "
        f"{fused['n_params']:,} parameters in one arena pass.",
        "",
    ]
    rows = [
        [i, f"{size / 1e6:.2f}", f"{off / 1e6:.2f}"]
        for i, (size, off) in enumerate(zip(buckets["sizes"], buckets["offsets"]))
    ]
    lines += _md_table(["Bucket", "Size (MB)", "Offset (MB)"], rows)
    return lines


def gen_cluster_fleet(artifact: dict) -> list[str]:
    """The cluster control plane's headline: fleet cost full vs
    factorized, plus the autoscaler's spike response — all driven by
    pinned profiles, so deterministic and gated exactly."""
    s = artifact["scenarios"]
    fleet = s["fleet_cost"]
    scale = s["autoscale_spike"]
    lines = [
        f"Fleet placement and autoscaling over pinned profiles "
        f"(`benchmarks/test_cluster.py`, gated exactly by "
        f"`benchmarks/gate.py cluster`; regenerated by "
        f"`scripts/regen_experiments.py`).  Hosts: "
        f"{fleet['host_mem_mb']:.0f} MB / {fleet['host_rps']:.0f} rps; "
        f"{fleet['replicas_per_variant']} replicas per variant.",
        "",
    ]
    rows = []
    for variant in ("full", "factorized"):
        v = fleet["variants"][variant]
        rows.append(
            [
                variant,
                f"{v['replica_mem_mb']:.2f}",
                f"{v['capacity_rps']:.0f}",
                v["n_hosts"],
                f"{v['fleet_cost']:.1f}",
                f"{100 * v['shed_rate']:.2f}%",
            ]
        )
    lines += _md_table(
        ["Variant", "MB/replica", "rps/replica", "Hosts", "Fleet cost", "Shed"],
        rows,
    )
    lines += [
        "",
        f"Autoscaler spike response ({scale['phases']}, window "
        f"{scale['window_s']:.0f} s, policy `{scale['policy']}`): replicas "
        f"{scale['initial_replicas']} → {scale['final_replicas']} "
        f"(peak {scale['max_replicas']}), {scale['n_scale_events']} scale "
        f"events, {scale['oscillations']} oscillations, steady-state shed "
        f"{100 * scale['steady_state_shed']:.2f}% (digest "
        f"`{scale['timeline_digest']}`).",
    ]
    return lines


def _col(key: str, spec: str = "{}"):
    """A kernel-table cell: ``spec`` applied to the entry's ``key``."""
    return lambda name, s: spec.format(s[key])


def _name(name: str, s: dict) -> str:
    return name


_MATCH, _SHAPE = ("Match", _col("match")), ("Shape", _col("shape"))
_SPEEDUP = ("Speedup", _col("speedup", "{:.2f}×"))
_FLOOR = ("Enforced floor", _col("min_speedup", "≥{:.1f}×"))


# One entry per kernels-baseline section: (section key, intro text,
# ((header, formatter(name, entry)), ...)); rows are sorted by name.
KERNEL_TABLES = (
    (
        "ops",
        "Per-op `numpy` vs `fast` backend timings "
        "(`benchmarks/test_kernels.py`, gated by "
        "`benchmarks/gate.py kernels`; regenerated by "
        "`scripts/regen_experiments.py` from the committed baseline "
        "`benchmarks/baselines/kernels_baseline.json`).  Milliseconds are "
        "from the baseline machine and purely documentary — the CI gate "
        "enforces only the parity tags and the floors in the last column.",
        (
            ("Op", lambda name, s: f"`{name}`"),
            ("Parity", _col("tag")),
            _SHAPE,
            ("numpy (ms)", _col("numpy_ms", "{:.2f}")),
            ("fast (ms)", _col("fast_ms", "{:.2f}")),
            _SPEEDUP,
            ("Enforced floor", lambda name, s: "—" if s["min_speedup"] is None
             else f"≥{s['min_speedup']:.1f}×"),
        ),
    ),
    (
        "fused_step",
        "Arena optimizer step (fast backend) vs the "
        "in-place per-tensor loop at CPU-scaled VGG-19 widths "
        "(50 steps, best of 7):",
        (
            ("Optimizer",
             lambda name, s: f"`{name.upper() if name == 'lamb' else name.capitalize()}`"),
            _MATCH,
            ("Model", lambda name, s: f"{s['n_tensors']} tensors / {s['n_params']:,} params"),
            ("loop (ms)", _col("loop_ms", "{:.2f}")),
            ("fused (ms)", _col("fused_ms", "{:.2f}")),
            _SPEEDUP,
            _FLOOR,
        ),
    ),
    (
        "linear_fwd_bwd",
        "`functional.linear` (one graph node, weight gradient written "
        "in `(out, in)` layout) vs the `x @ W.T + b` composite it "
        "replaced, forward + backward with the input as data:",
        (
            ("Layer", _name),
            _MATCH,
            _SHAPE,
            ("Graph nodes", lambda name, s: f"{s['nodes_composite']} → {s['nodes_fused']}"),
            ("composite (ms)", _col("composite_ms", "{:.2f}")),
            ("fused (ms)", _col("fused_ms", "{:.2f}")),
            _SPEEDUP,
            _FLOOR,
        ),
    ),
    (
        "max_pool_fwd_bwd",
        "`max_pool2d` as k² shifted strided slabs vs the route it "
        "replaced (strided windows, `argmax`, `put_along_axis`, a "
        "scatter-add per offset; kept in `tests/oracles.py` as the oracle), forward + "
        "backward on post-ReLU activations, one implementation for both "
        "backends:",
        (
            ("Case", _name),
            _MATCH,
            _SHAPE,
            ("argmax route (ms)", _col("oracle_ms", "{:.2f}")),
            ("slabs (ms)", _col("slab_ms", "{:.2f}")),
            _SPEEDUP,
            _FLOOR,
        ),
    ),
    (
        "powersgd_round",
        "One PowerSGD protocol round (every worker's `encode` + the "
        "`decode_aggregate`, best of rounds 3–8) with error feedback "
        "folded into one resident matrix per (worker, layer), vs the "
        "codec it replaced (`m = g + err` and `err = m − m̂` as fresh "
        "arrays every round; kept in the benchmark as the oracle).  "
        "MB are `tracemalloc` totals of four rounds: *resident* is what "
        "the codec holds between rounds (the in-place codec also keeps "
        "the round's shared `m̂`), *peak* the most alive at once, the "
        "workers' gradients included:",
        (
            ("Case", _name),
            _MATCH,
            _SHAPE,
            ("allocating (ms)", _col("oracle_ms", "{:.2f}")),
            ("in place (ms)", _col("inplace_ms", "{:.2f}")),
            _SPEEDUP,
            ("Resident MB",
             lambda name, s: f"{s['oracle_resident_mb']} → {s['inplace_resident_mb']}"),
            ("Peak MB", lambda name, s: f"{s['oracle_peak_mb']} → {s['inplace_peak_mb']}"),
            _FLOOR,
        ),
    ),
    (
        "exact_mean",
        "The exact gradient mean of `ddp_factorized`'s decode "
        "(`compression.base.exact_mean`: float64 chunks of "
        "`MEAN_CHUNK` elements that stay in cache) vs the whole-array "
        "`astype / += / (/ n) / astype` formula it replaced (kept in "
        "`tests/oracles.py` as the oracle), best of 20 interleaved:",
        (
            ("Case", _name),
            _MATCH,
            _SHAPE,
            ("whole-array (ms)", _col("oracle_ms", "{:.2f}")),
            ("chunked (ms)", _col("chunked_ms", "{:.2f}")),
            _SPEEDUP,
            _FLOOR,
        ),
    ),
)


def gen_kernel_speedups(artifact: dict) -> list[str]:
    """Backend kernel tables, one per :data:`KERNEL_TABLES` entry the
    artifact holds.  Sourced from the *committed* kernels baseline (not a
    fresh ``BENCH_kernels.json``) so ``--check`` never flaps on machine
    noise: the tables document the reference machine; CI enforces only
    parity tags and speedup floors."""
    lines: list[str] = []
    for key, intro, columns in KERNEL_TABLES:
        section = artifact.get(key)
        if not section:
            continue
        lines += ([""] if lines else []) + [intro, ""]
        lines += _md_table(
            [header for header, _ in columns],
            [[cell(name, s) for _, cell in columns] for name, s in sorted(section.items())],
        )
    return lines


def gen_compression_bakeoff(artifact: dict) -> list[str]:
    """The factorized-vs-compressed head-to-head.  Sourced from the
    *committed* compression baseline (not a fresh
    ``BENCH_compression.json``) so ``--check`` never flaps: the gate
    (`benchmarks/gate.py compression`) enforces the numbers; this table
    documents the reference run."""
    s = artifact["scenarios"]
    lines = [
        "Compression bake-off under compressed-bucket overlap "
        "(`benchmarks/test_compression_bakeoff.py`, gated by "
        "`benchmarks/gate.py compression`; regenerated by "
        "`scripts/regen_experiments.py` from the committed baseline "
        "`benchmarks/baselines/compression_baseline.json`).  Wire bytes "
        "for SGD/PowerSGD/AB-Training are pure functions of parameter "
        "shapes and are gated exactly; variance gating's are "
        "gradient-dependent and band-gated.",
        "",
        "VGG-11-class model, 4 nodes @ 0.3 Gbps, per-bucket encode "
        "overlapped with backward:",
        "",
    ]
    rows = []
    for label in ("sgd", "powersgd", "abtrain", "vargate", "factorized"):
        c = s[f"train:vgg:{label}"]
        rows.append(
            [
                label,
                f"{c['n_params']:,}",
                c["n_buckets"],
                f"{c['wire_bytes_mean'] / 1e3:.1f}",
                f"{c['compression_ratio']:.2f}×",
                f"{c['comm_modeled_s'] * 1e3:.2f}",
            ]
        )
    lines += _md_table(
        ["Method", "Params", "Buckets", "Wire KB/iter", "vs payload",
         "Modeled comm (ms)"],
        rows,
    )
    lines += [
        "",
        "LSTM LM wire bytes per protocol step (KB, max over workers; "
        "AB-Training's resync/A/B schedule is visible in the columns):",
        "",
    ]
    rows = []
    for label in ("sgd", "powersgd", "abtrain", "factorized"):
        c = s[f"wire:lstm:{label}"]
        steps = c["wire_bytes_per_step"]
        rows.append(
            [label, f"{c['payload_bytes'] / 1e3:.1f}"]
            + [f"{b / 1e3:.1f}" for b in steps]
        )
    lines += _md_table(
        ["Method", "Full payload", "Step 0", "Step 1", "Step 2"], rows
    )
    cx = s["crossover"]
    lines += [
        "",
        f"Crossover winners (argmin modeled per-iteration seconds: "
        f"MAC-derived compute at {cx['flops_ref'] / 1e9:.0f} GFLOP/s "
        f"reference + analytic encode FLOPs + α–β allreduce; `hier` = "
        f"two-level topology, 2 GPUs/node @ 100 Gbps intra).  Exact-gated "
        f"— any change in a winner is a behavior change:",
        "",
    ]
    rows = []
    for cell in sorted(cx["winners"]):
        model, topo, nodes, bw = cell.split(":")
        rows.append(
            [model, topo, nodes.rstrip("n"), bw.replace("gbps", ""),
             f"**{cx['winners'][cell]}**"]
        )
    lines += _md_table(
        ["Model", "Topology", "Nodes", "Gbps", "Winner"], rows
    )
    faults = s["faults:powersgd"]
    by_kind = ", ".join(f"{k} {v}" for k, v in sorted(faults["by_kind"].items()))
    lines += [
        "",
        f"Chaos run (PowerSGD + compressed overlap, seeded fault spec): "
        f"{faults['events']} events ({by_kind}) over "
        f"{faults['iterations']} iterations — exact-gated, proving the "
        f"fault timeline is independent of the compressor.",
    ]
    return lines


def gen_gateway_vs_sim(artifact: dict) -> list[str]:
    """The sim-vs-live twin table.  Sourced from the *committed* gateway
    baseline (not a fresh ``BENCH_gateway.json``) so ``--check`` never
    flaps: live numbers are machine-dependent and the gate enforces only
    their bands; this table documents the reference run."""
    s = artifact["scenarios"]
    sim = s["sim_twin"]
    live = s["live_twin"]
    stream = s["streaming"]
    spec = sim["spec"]
    bands = live["bands"]
    lines = [
        f"One seeded trace ({spec['rate_rps']:.0f} rps {spec['process']} × "
        f"{spec['duration_s']:.0f} s, seed {spec['seed']}, digest "
        f"`{sim['trace_digest']}`) through the simulator and a live "
        f"localhost gateway sleeping the pinned profile "
        f"(`benchmarks/test_gateway.py`, gated by "
        f"`benchmarks/gate.py gateway`; regenerated by "
        f"`scripts/regen_experiments.py` from the committed baseline "
        f"`benchmarks/baselines/gateway_baseline.json`).  Sim numbers are "
        f"exact-gated; live numbers are from the baseline machine and "
        f"documentary — CI enforces only the bands in the last column.",
        "",
    ]
    rows = []
    for key, label, fmt, band in (
        ("shed_rate", "Shed rate", "{:.1%}", ""),
        ("throughput_rps", "Throughput (rps)", "{:.1f}", ""),
        ("p50_ms", "p50 (ms)", "{:.1f}", ""),
        ("p99_ms", "p99 (ms)", "{:.1f}", ""),
    ):
        rows.append(
            [label, fmt.format(live["sim"][key]), fmt.format(live["live"][key]), band]
        )
    rows += [
        ["Shed-rate delta", "—", f"{live['shed_rate_delta']:+.4f}",
         f"|Δ| ≤ {bands['max_shed_rate_delta']}"],
        ["Throughput ratio", "—", f"{live['throughput_ratio']:.4f}",
         f"[{bands['throughput_ratio'][0]}, {bands['throughput_ratio'][1]}]"],
        ["Admission agreement", "—", f"{live['admission_agreement']:.1%}",
         f"≥ {bands['min_agreement']:.0%}"],
        ["Status agreement", "—", f"{live['status_agreement']:.1%}",
         f"≥ {bands['min_agreement']:.0%}"],
    ]
    lines += _md_table(["Quantity", "Simulator", "Live gateway", "CI band"], rows)
    lines += [
        "",
        f"All {stream['n_streamed']} streamed responses in the "
        f"streaming scenario flushed their first partial before the final "
        f"frame (max lead {stream['stream_lead_ms_max']:.1f} ms on the "
        f"baseline machine).",
    ]
    mixed = s["mixed_steps"]
    lines += [
        "",
        f"Step-level batch membership (`mixed_steps`, exact-gated counts): one "
        f"{mixed['stream_steps']}-step stream and {mixed['n_unary']} unary "
        f"requests cut as one batch (sizes {mixed['batch_sizes']}) cost the "
        f"executor **{mixed['member_steps']}** member-steps over "
        f"{mixed['steps_run']} steps — {mixed['member_steps_all_aboard']} with "
        f"every member aboard to the end; the stream got "
        f"{mixed['stream_partial_frames']} partial frames "
        f"(`unary_before_second_frame`: "
        f"{str(mixed['unary_before_second_frame']).lower()} — every unary "
        f"reply was on the wire before the stream's second frame).",
    ]
    return lines


def gen_lifecycle(artifact: dict) -> list[str]:
    """The train → factorize → deploy loop.  Sourced from the *committed*
    lifecycle baseline (not a fresh ``BENCH_lifecycle.json``) so
    ``--check`` never flaps: the whole artifact is seed-deterministic and
    the gate (`benchmarks/gate.py lifecycle`) enforces it exactly; this
    table documents the reference run."""
    s = artifact["scenarios"]
    p = s["pipeline"]
    ddp = s["pipeline_ddp"]
    promo = s["promotion_roundtrip"]
    dep = s["deployment"]
    cfg = p["config"]
    lines = [
        f"One seeded `repro lifecycle run` ({cfg['model']}, width "
        f"{cfg['width']}, seed {cfg['seed']}, {cfg['warmup_epochs']} warm-up "
        f"+ {cfg['total_epochs'] - cfg['warmup_epochs']} low-rank epochs, "
        f"energy target {cfg['policy']['energy_threshold']}, hysteresis "
        f"{cfg['policy']['hysteresis']}) — `benchmarks/test_lifecycle.py`, "
        f"gated exactly by `benchmarks/gate.py lifecycle`; regenerated by "
        f"`scripts/regen_experiments.py` from the committed baseline "
        f"`benchmarks/baselines/lifecycle_baseline.json`.  Spectra digest "
        f"`{p['spectra_digest']}`, timeline digest `{p['timeline_digest']}`.",
        "",
        f"Per-layer ranks chosen online from measured spectra vs the "
        f"paper's global {cfg['rank_ratio']} ratio "
        f"({p['n_layers_differ_from_global']} of {len(p['rank_map'])} "
        f"layers differ; params {p['params_full']:,} → "
        f"{p['params_factorized']:,}, {p['param_reduction']:.2f}×; MACs "
        f"{p['mac_reduction']:.2f}×):",
        "",
    ]
    rows = [
        [f"`{path}`", p["global_rank_map"].get(path, "—"), rank,
         "✓" if p["global_rank_map"].get(path) != rank else ""]
        for path, rank in sorted(p["rank_map"].items())
    ]
    lines += _md_table(
        ["Layer", "Global-ratio rank", "Lifecycle rank", "Differs"], rows
    )
    resyncs = [e for e in ddp["events"] if e["event"] == "refactorize"]
    resync_bytes = sum(e["resync_bytes"] for e in resyncs)
    resync_ms = sum(e["resync_seconds"] for e in resyncs) * 1e3
    lines += [
        "",
        f"Online re-factorization fired {p['n_refactorizations']}× "
        f"single-node and {ddp['n_refactorizations']}× under simulated DDP "
        f"({ddp['config']['workers']} workers), each charged an AB-style "
        f"full-resync broadcast — {resync_bytes:,} bytes, "
        f"{resync_ms:.3f} modeled ms in total (DDP timeline digest "
        f"`{ddp['timeline_digest']}`).",
        "",
        f"Promotion: versions {promo['versions']} assigned densely; the "
        f"served model rebuilt from the self-describing artifact matches "
        f"the run's ranks and weights bit-exactly "
        f"(`ranks_exact: {str(promo['ranks_exact']).lower()}`, "
        f"`weights_exact: {str(promo['weights_exact']).lower()}`).  Canary "
        f"deployment on pinned profiles: healthy rollout "
        f"**{dep['healthy']['status']}** at "
        f"{dep['healthy']['final_fraction']:.0%} after "
        f"{len(dep['healthy']['steps'])} steps; with an injected "
        f"{dep['degraded']['degrade_factor']:.0f}× latency regression "
        f"**{dep['degraded']['status']}** at step 1 (deploy digests "
        f"`{dep['healthy']['deploy_digest']}` / "
        f"`{dep['degraded']['deploy_digest']}`).",
    ]
    return lines


GENERATORS = {
    "serving_crossover": gen_serving_crossover,
    "gateway_vs_sim": gen_gateway_vs_sim,
    "fault_injection": gen_fault_injection,
    "overlap_buckets": gen_overlap_buckets,
    "cluster_fleet": gen_cluster_fleet,
    "kernel_speedups": gen_kernel_speedups,
    "compression_bakeoff": gen_compression_bakeoff,
    "lifecycle": gen_lifecycle,
}


def regenerate(text: str, bench_dir: Path) -> tuple[str, list[str]]:
    """Return (new text, names regenerated).  Raises on unknown generator
    or missing source artifact — a stale marker is a bug, not a skip."""
    regenerated: list[str] = []

    def replace(match: re.Match) -> str:
        name, source = match.group("name"), match.group("source")
        if name not in GENERATORS:
            raise SystemExit(f"regen: no generator named {name!r}")
        path = bench_dir / source
        if not path.exists():
            raise SystemExit(
                f"regen: {name} needs {path} — run the benchmark first "
                f"(pytest benchmarks/test_serving.py)"
            )
        artifact = json.loads(path.read_text())
        body = "\n".join(GENERATORS[name](artifact))
        regenerated.append(name)
        return (
            f"<!-- regen:{name} source={source} -->\n{body}\n<!-- regen:end -->"
        )

    return MARKER_RE.sub(replace, text), regenerated


def process(file: Path, bench_dir: Path, check: bool) -> int:
    text = file.read_text()
    new_text, names = regenerate(text, bench_dir)
    if not names:
        print(f"regen: no markers found in {file}")
        return 0
    if new_text == text:
        print(f"regen: {', '.join(names)} up to date")
        return 0
    if check:
        print(f"regen: {file} is stale (sections: {', '.join(names)}); "
              "run scripts/regen_experiments.py")
        return 1
    file.write_text(new_text)
    print(f"regen: rewrote {', '.join(names)} in {file}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="exit 1 if any generated file is stale instead of rewriting")
    ap.add_argument("--file", type=Path, action="append", dest="files",
                    help="file(s) to regenerate; may repeat "
                         "(default: EXPERIMENTS.md, docs/PERFORMANCE.md, docs/GATEWAY.md)")
    ap.add_argument("--bench-dir", type=Path, default=REPO_ROOT,
                    help="directory holding the BENCH_*.json artifacts")
    args = ap.parse_args(argv)

    files = args.files or [EXPERIMENTS, PERFORMANCE, GATEWAY]
    return max(process(f, args.bench_dir, args.check) for f in files)


if __name__ == "__main__":
    raise SystemExit(main())
