#!/usr/bin/env python
"""CI regression gate for the backend kernel benchmark.

Compares a fresh ``BENCH_kernels.json`` against the committed baseline
(``benchmarks/baselines/kernels_baseline.json``).  Wall-clock speedups
are machine-dependent, so times are never diffed against the baseline;
what is gated:

* **structure** — the op set, the fused-step set, the
  ``linear_fwd_bwd`` pair, the ``max_pool_fwd_bwd`` pair, the
  ``powersgd_round`` row and the ``exact_mean`` row, each entry's parity
  tag (or match kind),
  benchmark shape, graph-node counts and enforced floor must match the
  baseline exactly: a silently dropped op or a loosened floor is a gate
  change, not noise;
* **parity** — every op's ``parity_ok`` (and every fused step's and fused
  linear's ``match_ok``) must be true in the current run (bit-exact or
  within the published tolerance, per its tag);
* **speedup floors** — ops with a ``min_speedup`` must meet it, both
  fused optimizer steps (FusedAdam / FusedLAMB vs the in-place
  per-tensor loop) must hold their ≥2× floor at CPU-scaled wide-model
  widths, ``functional.linear`` must hold its floor over the
  three-node composite, ``max_pool2d`` its floor over the argmax /
  col2im route it replaced, and a PowerSGD round with in-place error
  feedback its floor over the allocate-per-round codec it replaced — with
  a smaller peak working set, or the point of the rewrite is gone — and
  the chunked exact gradient mean its floor over the whole-array formula.

Usage::

    python benchmarks/check_kernels_regression.py \
        [--current BENCH_kernels.json] \
        [--baseline benchmarks/baselines/kernels_baseline.json]
"""

from __future__ import annotations

from gatelib import ExactFields, Gate, run_gate

OPS_RULE = ExactFields(
    ("tag", "shape", "min_speedup"),
    note="kernel benchmark structure changed",
)
FUSED_RULE = ExactFields(
    ("n_tensors", "n_params", "match", "min_speedup"),
    note="fused-step benchmark structure changed",
)
LINEAR_RULE = ExactFields(
    ("shape", "nodes_composite", "nodes_fused", "match", "min_speedup"),
    note="linear_fwd_bwd benchmark structure changed",
)
POOL_RULE = ExactFields(
    ("shape", "match", "min_speedup"),
    note="max_pool_fwd_bwd benchmark structure changed",
)
POWERSGD_RULE = ExactFields(
    ("shape", "match", "min_speedup"),
    note="powersgd_round benchmark structure changed",
)
EXACT_MEAN_RULE = ExactFields(
    ("shape", "match", "min_speedup"),
    note="exact_mean benchmark structure changed",
)


def op_invariants(op: str, cur: dict) -> list[str]:
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
            f"{op}: speedup {speedup} below enforced floor {floor}x "
            "(fast-backend win regressed)"
        )
    return failures


def fused_invariants(section: str, unfused: str):
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


def powersgd_invariants(name: str, cur: dict) -> list[str]:
    """Match + floor as every rewrite-vs-oracle section, and the rewrite's
    point: a round's peak working set below the allocating codec's."""
    failures = fused_invariants("powersgd_round", "allocate-per-round codec")(name, cur)
    if not cur["inplace_peak_mb"] < cur["oracle_peak_mb"]:
        failures.append(
            f"powersgd_round.{name}: peak working set {cur['inplace_peak_mb']} MB "
            f"not below the allocate-per-round codec's {cur['oracle_peak_mb']} MB"
        )
    return failures


def _walk(current, baseline, section, rule, invariants, failures):
    cur_items = current.get(section, {})
    for name, base in sorted(baseline.get(section, {}).items()):
        cur = cur_items.get(name)
        if cur is None:
            failures.append(f"{section}.{name}: missing from current run")
            continue
        rule.check(f"{section}.{name}", cur, base, 0.0, failures)
    for name, scenario in sorted(cur_items.items()):
        failures.extend(invariants(name, scenario))


def check(current: dict, baseline: dict, threshold: float) -> list[str]:
    failures: list[str] = []
    _walk(current, baseline, "ops", OPS_RULE, op_invariants, failures)
    _walk(current, baseline, "fused_step", FUSED_RULE,
          fused_invariants("fused_step", "per-tensor loop"), failures)
    _walk(current, baseline, "linear_fwd_bwd", LINEAR_RULE,
          fused_invariants("linear_fwd_bwd", "x @ W.T + b composite"), failures)
    _walk(current, baseline, "max_pool_fwd_bwd", POOL_RULE,
          fused_invariants("max_pool_fwd_bwd", "argmax / col2im route"), failures)
    _walk(current, baseline, "powersgd_round", POWERSGD_RULE, powersgd_invariants, failures)
    _walk(current, baseline, "exact_mean", EXACT_MEAN_RULE,
          fused_invariants("exact_mean", "whole-array formula"), failures)
    return failures


GATE = Gate(
    name="kernel",
    default_current="BENCH_kernels.json",
    default_baseline="benchmarks/baselines/kernels_baseline.json",
    section="ops",
    item_word="ops",
    custom=check,
    ok_line=lambda n, t: (
        f"kernel regression gate: {n} ops + fused steps + fused linear + max pool "
        "+ PowerSGD round + exact mean OK "
        "(structure exact, parity + speedup floors hold)"
    ),
    description=__doc__.splitlines()[0],
)


if __name__ == "__main__":
    raise SystemExit(run_gate(GATE))
