"""End-to-end pins of the nine benchmark regression gates.

Each gate is run as a subprocess on artifacts built in code from its
committed baseline (``benchmarks/baselines/<name>_baseline.json``):

* the baseline compared against itself must pass (exit 0);
* one mutated copy per check the gate makes — a missing baseline
  scenario / op / record, a changed exact field, a band field pushed 25 %
  past the baseline, a broken invariant, a broken headline claim — must
  fail with exactly the pinned exit code and sorted ``FAIL`` lines.

An edit is ``(where, path, fn)``: ``where`` is ``"cur"`` (the current
artifact only) or ``"both"`` (current and baseline alike, so only an
invariant or a headline claim can notice); ``fn`` maps the old value at
``path`` to the new one, or is ``None`` to delete it.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"

NAMES = (
    "faults",
    "overlap",
    "serving",
    "cluster",
    "compression",
    "gateway",
    "kernels",
    "lifecycle",
    "observability",
)


def gate_command(name: str) -> list[str]:
    return [sys.executable, str(BENCH / "gate.py"), name]


def run_gate(name: str, current: dict, baseline: dict, tmp_path: Path) -> tuple[int, list[str]]:
    """Exit code and sorted ``FAIL`` lines of gate ``name`` on two artifacts."""
    paths = []
    for tag, art in (("current", current), ("baseline", baseline)):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(art))
        paths.append(str(path))
    proc = subprocess.run(
        [*gate_command(name), "--current", paths[0], "--baseline", paths[1]],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    prefix = "  FAIL "
    fails = [line[len(prefix) :] for line in proc.stdout.splitlines() if line.startswith(prefix)]
    return proc.returncode, sorted(fails)


def load_baseline(name: str) -> dict:
    return json.loads((BENCH / "baselines" / f"{name}_baseline.json").read_text())


def apply(art: dict, path: tuple, fn) -> None:
    *head, last = path
    node = art
    for key in head:
        node = node[key]
    if fn is None:
        del node[last]
    else:
        node[last] = fn(node[last])


def bump(factor):
    return lambda v: v * factor


def plus(n):
    return lambda v: v + n


def const(value):
    return lambda v: value


S = "scenarios"
COMM_RECORD = {
    "kind": "table",
    "title": "Modeled comm",
    "headers": ["Method", "Comm (s)"],
    "rows": [["vanilla", 0.5]],
}

# (gate, case) -> edits
CASES = {
    ("faults", "missing"): [("cur", (S, "chaos_vanilla"), None)],
    ("faults", "exact"): [("cur", (S, "chaos_pufferfish", "events"), plus(1))],
    ("faults", "band"): [("cur", (S, "chaos_pufferfish", "comm_s"), bump(1.25))],
    ("overlap", "missing"): [("cur", (S, "bucket_structure"), None)],
    ("overlap", "exact"): [("cur", (S, "overlap_mlp", "n_buckets"), plus(1))],
    ("overlap", "band"): [("cur", (S, "overlap_mlp", "comm_mono_s"), bump(1.25))],
    ("overlap", "invariant"): [("cur", (S, "overlap_mlp", "overlap_fraction"), const(1.5))],
    ("serving", "missing"): [("cur", (S, "pinned_crossover"), None)],
    ("serving", "missing_measured"): [
        ("cur", (S, "measured_full"), None),
        ("cur", (S, "measured_factorized"), None),
    ],
    ("serving", "exact"): [("cur", (S, "variant_accounting", "params_full"), plus(1))],
    ("serving", "invariant"): [("cur", (S, "measured_full", "capacity_rps"), const(-1.0))],
    ("serving", "headline"): [
        (
            "both",
            (S, "pinned_crossover", "variants", "factorized", "capacity_rps"),
            const(1.0),
        ),
    ],
    ("cluster", "missing"): [("cur", (S, "fleet_cost"), None)],
    ("cluster", "exact"): [("cur", (S, "placement_policies", "lower_bound_hosts"), plus(1))],
    ("cluster", "headline"): [
        ("both", (S, "fleet_cost", "variants", "factorized", "n_hosts"), const(99)),
    ],
    ("compression", "missing"): [("cur", (S, "crossover"), None)],
    ("compression", "exact"): [("cur", (S, "train:vgg:sgd", "n_params"), plus(1))],
    ("compression", "band"): [("cur", (S, "train:vgg:sgd", "comm_modeled_s"), bump(1.25))],
    ("compression", "invariant"): [
        ("cur", (S, "train:vgg:powersgd", "compression_ratio"), const(0.0)),
    ],
    ("compression", "headline"): [
        ("both", (S, "train:vgg:factorized", "payload_bytes"), const(10**9)),
    ],
    ("gateway", "missing"): [("cur", (S, "sim_twin"), None)],
    ("gateway", "missing_live"): [("cur", (S, "live_twin"), None)],
    ("gateway", "exact"): [("cur", (S, "mixed_steps", "member_steps"), plus(9))],
    ("gateway", "invariant"): [("cur", (S, "live_twin", "n_client_errors"), const(2))],
    ("gateway", "headline"): [("both", (S, "sim_twin", "summary", "shed_rate"), const(0.05))],
    ("kernels", "missing"): [("cur", ("ops", "relu"), None)],
    ("kernels", "exact"): [("cur", ("ops", "relu", "shape"), const("1M elements"))],
    ("kernels", "parity"): [("cur", ("ops", "relu", "parity_ok"), const(False))],
    ("kernels", "floor"): [("cur", ("fused_step", "adam", "speedup"), const(1.5))],
    ("kernels", "peak"): [("cur", ("powersgd_round", "mlp_rank4", "inplace_peak_mb"), const(1e6))],
    ("lifecycle", "missing"): [("cur", (S, "deployment"), None)],
    ("lifecycle", "exact"): [("cur", (S, "promotion_roundtrip", "served_params"), plus(1))],
    ("lifecycle", "headline"): [
        ("both", (S, "deployment", "degraded", "status"), const("promoted")),
    ],
    ("observability", "missing"): [("cur", ("records", 0), None)],
    ("observability", "exact"): [("cur", ("records", 1, "rows", 0, 1), plus(1))],
    ("observability", "band"): [
        ("both", ("records",), lambda recs: [*recs, copy.deepcopy(COMM_RECORD)]),
        ("cur", ("records", 4, "rows", 0, 1), bump(1.25)),
    ],
}

EXPECTED = {
    ("cluster", "exact"): (
        1,
        [
            "placement_policies.lower_bound_hosts: 4 != baseline 3",
        ],
    ),
    ("cluster", "headline"): (
        1,
        [
            "fleet_cost: factorized hosts 99 not strictly below full 3",
        ],
    ),
    ("cluster", "missing"): (
        1,
        [
            "fleet_cost: scenario missing from current run",
        ],
    ),
    ("compression", "band"): (
        1,
        [
            "train:vgg:sgd.comm_modeled_s: 0.064394s outside [0.041212, 0.061818] (baseline "
            "0.051515s ±20%; modeled comm drifted)",
        ],
    ),
    ("compression", "exact"): (
        1,
        [
            "train:vgg:sgd.n_params: 153485 != baseline 153484 (bake-off structure / "
            "shape-determined bytes changed)",
        ],
    ),
    ("compression", "headline"): (
        1,
        [
            "headline: factorized payload not below full payload",
        ],
    ),
    ("compression", "invariant"): (
        1,
        [
            "train:vgg:powersgd.compression_ratio: 0.0 <= 0",
        ],
    ),
    ("compression", "missing"): (
        1,
        [
            "crossover: scenario missing from current run",
        ],
    ),
    ("faults", "band"): (
        1,
        [
            "chaos_pufferfish.comm_s: 0.104560s > 0.100378s (baseline 0.083648s +20%)",
        ],
    ),
    ("faults", "exact"): (
        1,
        [
            "chaos_pufferfish.events: 18 != baseline 17 (seeded event stream changed — "
            "determinism break)",
        ],
    ),
    ("faults", "missing"): (
        1,
        [
            "chaos_vanilla: scenario missing from current run",
        ],
    ),
    ("gateway", "exact"): (
        1,
        [
            "mixed_steps.member_steps: 16 != baseline 7",
        ],
    ),
    ("gateway", "headline"): (
        1,
        [
            "sim_twin: shed rate 0.05 <= 0.1 — the twin scenario no longer exercises admission "
            "control",
        ],
    ),
    ("gateway", "invariant"): (
        1,
        [
            "live_twin: 2 client error(s)",
        ],
    ),
    ("gateway", "missing"): (
        1,
        [
            "sim_twin: scenario missing from current run",
        ],
    ),
    ("gateway", "missing_live"): (
        1,
        [
            "live_twin: scenario missing from current run",
        ],
    ),
    ("kernels", "exact"): (
        1,
        [
            "ops.relu.shape: 1M elements != baseline 2M elements (kernel benchmark structure "
            "changed)",
        ],
    ),
    ("kernels", "floor"): (
        1,
        [
            "fused_step.adam: speedup 1.5 over the per-tensor loop below enforced floor 2.0x "
            "(fusion win regressed)",
        ],
    ),
    ("kernels", "missing"): (
        1,
        [
            "ops.relu: missing from current run",
        ],
    ),
    ("kernels", "parity"): (
        1,
        [
            "relu: parity violated under tag 'bit-exact' (max_abs_err 0.0)",
        ],
    ),
    ("kernels", "peak"): (
        1,
        [
            "powersgd_round.mlp_rank4: peak working set 1000000.0 MB not below the "
            "allocate-per-round codec's 102.3 MB",
        ],
    ),
    ("lifecycle", "exact"): (
        1,
        [
            "promotion_roundtrip.served_params: 244389 != baseline 244388",
        ],
    ),
    ("lifecycle", "headline"): (
        1,
        [
            "deployment: degraded run 'promoted', expected rolled_back",
        ],
    ),
    ("lifecycle", "missing"): (
        1,
        [
            "deployment: scenario missing from current run",
        ],
    ),
    ("observability", "band"): (
        1,
        [
            "Modeled comm [vanilla].Comm (s): 0.625000 outside [0.400000, 0.600000] (baseline "
            "0.500000 ±20%)",
        ],
    ),
    ("observability", "exact"): (
        1,
        [
            "Table 1: params & complexity (measured vs closed form) [Vanilla FC].#Params (lib): "
            "262145 != baseline 262144 (closed-form value changed)",
        ],
    ),
    ("observability", "missing"): (
        1,
        [
            "Table 19: SVD factorization cost (5 trials): record missing from current run",
        ],
    ),
    ("overlap", "band"): (
        1,
        [
            "overlap_mlp.comm_mono_s: 0.303859s outside [0.194470, 0.291704] (baseline 0.243087s "
            "±20%; modeled time drifted)",
        ],
    ),
    ("overlap", "exact"): (
        1,
        [
            "overlap_mlp.n_buckets: 7 != baseline 6 (bucket/arena structure changed)",
        ],
    ),
    ("overlap", "invariant"): (
        1,
        [
            "overlap_mlp.overlap_fraction: 1.5 outside (0, 1]",
        ],
    ),
    ("overlap", "missing"): (
        1,
        [
            "bucket_structure: scenario missing from current run",
        ],
    ),
    ("serving", "exact"): (
        1,
        [
            "variant_accounting.params_full: 1287797 != baseline 1287796",
        ],
    ),
    ("serving", "headline"): (
        1,
        [
            "pinned_crossover: factorized capacity 1.0 not above full 416.124837",
        ],
    ),
    ("serving", "invariant"): (
        1,
        [
            "measured_full: capacity_rps -1.0 not positive",
        ],
    ),
    ("serving", "missing_measured"): (
        1,
        [
            "measured_factorized: scenario missing from current run",
            "measured_full: scenario missing from current run",
        ],
    ),
    ("serving", "missing"): (
        1,
        [
            "pinned_crossover: scenario missing from current run",
        ],
    ),
}


@pytest.mark.parametrize("name", NAMES)
def test_committed_baseline_passes_its_own_gate(name, tmp_path):
    baseline = load_baseline(name)
    assert run_gate(name, baseline, baseline, tmp_path) == (0, [])


@pytest.mark.parametrize("gate,case", sorted(CASES))
def test_mutated_baseline_is_pinned(gate, case, tmp_path):
    current, baseline = load_baseline(gate), load_baseline(gate)
    for where, path, fn in CASES[gate, case]:
        for art in (current, baseline) if where == "both" else (current,):
            apply(art, path, fn)
    rc, fails = run_gate(gate, current, baseline, tmp_path)
    assert (rc, fails) == EXPECTED[gate, case]


def test_unknown_name_exits_2_and_lists_the_gates():
    proc = subprocess.run(gate_command("bogus"), capture_output=True, text=True)
    assert proc.returncode == 2
    listed = proc.stderr.split("choose from ", 1)[1]
    assert sorted(name.strip("'") for name in listed.strip(")\n").split(", ")) == sorted(NAMES)
