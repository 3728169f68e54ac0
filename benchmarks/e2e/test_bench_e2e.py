"""Smoke test of the benchmark itself; run it by path:

    python -m pytest benchmarks/e2e/test_bench_e2e.py -q

Tier-1 ``testpaths`` stays ``tests``.  Every workload runs at a 0.05 count
scale (about half a minute per seed) and the result is checked against the
schema ``BENCHMARK.json`` promises; no timing is asserted, the subprocess
timeout alone bounds the run.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchspec  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")
SEEDS = (0, 1)
# Exact counts that depend on the program and the workload's shapes, never
# on the seed: the program under test must receive nothing but the inputs.
SEED_INDEPENDENT = (
    "tensor.macs_per_step", "tensor.graph_nodes_per_step", "core.param_ratio",
    "core.mac_ratio", "distributed.n_buckets", "distributed.wire_bytes_per_iter",
    "compression.ratio",
)


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("e2e")
    proc = subprocess.run(
        RUN + ["--seeds", *map(str, SEEDS), "--scale", "0.05", "--out", "BENCH_e2e.json"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:]
    data = json.loads((cwd / "BENCH_e2e.json").read_text())
    return {"cwd": cwd, "runs": data["runs"]}


def test_every_workload_runs_once_per_seed(bench):
    assert [r["seed"] for r in bench["runs"]] == list(SEEDS)
    for run in bench["runs"]:
        assert list(run["workloads"]) == benchspec.workload_names() == list(benchspec.OPS)


def test_benchmark_json_fixes_a_bound_for_every_end_to_end_metric():
    spec = benchspec.load()
    assert spec["paths"] == ["benchmarks/e2e"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    setup_bound = benchspec.end_to_end()["setup_s"]["bound"]
    assert setup_bound == max(m["bound"] for m in spec["end_to_end"])
    for workload in benchspec.workload_names():
        for spec_ in benchspec.bounds_for(workload).values():
            assert spec_["bound"] >= 0 and spec_["unit"]
    assert 1 <= spec["run_seconds"] <= 60


def test_every_metric_is_present_with_its_unit(bench):
    per_layer = benchspec.per_layer()
    for run in bench["runs"]:
        for workload, result in run["workloads"].items():
            assert result["correct"], result["problems"]
            assert result["attempted"] >= 1 and result["failed"] == 0
            bounds = benchspec.bounds_for(workload)
            assert set(result["end_to_end"]) == set(bounds)
            for name, m in result["end_to_end"].items():
                assert NAME.fullmatch(name)
                assert m["unit"] == bounds[name]["unit"] and m["bound"] == bounds[name]["bound"]
                assert isinstance(m["value"], (int, float))
                if name != "failed_share":
                    assert m["value"] > 0, (workload, name)
            assert result["end_to_end"]["failed_share"]["value"] == 0
            assert set(result["per_layer"]) == set(per_layer)
            for name, m in result["per_layer"].items():
                assert NAME.fullmatch(name) and m["unit"] == per_layer[name]["unit"]


def test_layers_off_a_workloads_path_read_zero(bench):
    layers = {w: r["per_layer"] for w, r in bench["runs"][0]["workloads"].items()}
    assert layers["train_seq"]["nn.fwd_self_ms.Conv2d"]["value"] == 0
    assert layers["train_conv"]["nn.fwd_self_ms.MultiHeadAttention"]["value"] == 0
    assert layers["ddp_factorized"]["compression.encode_ms"]["value"] == 0
    assert layers["ddp_powersgd"]["compression.encode_ms"]["value"] > 0
    assert layers["train_conv"]["gateway.service_ms_p50"]["value"] == 0
    assert layers["serve_live"]["tensor.backward_ms"]["value"] == 0


def test_serve_live_reports_unary_and_streaming_latency_apart(bench):
    result = bench["runs"][0]["workloads"]["serve_live"]
    unary_p50 = result["end_to_end"]["step_ms_p50"]["value"]
    # A streaming request waits for three executor steps, a unary one for one or three.
    assert result["per_layer"]["gateway.stream_latency_ms_p50"]["value"] > unary_p50
    assert result["per_layer"]["gateway.first_frame_ms_p50"]["value"] > 0


def test_seed_moves_the_inputs_and_nothing_else(bench):
    first, second = (r["workloads"] for r in bench["runs"])
    for workload in first:
        assert first[workload]["inputs_digest"] != second[workload]["inputs_digest"]
        for metric in SEED_INDEPENDENT:
            a = first[workload]["per_layer"][metric]["value"]
            assert a == second[workload]["per_layer"][metric]["value"], (workload, metric)


def test_one_workload_form_prints_the_contract_line(bench):
    want = {"0": set(benchspec.end_to_end()), "1": set(benchspec.per_layer())}
    for trace in ("0", "1"):
        proc = subprocess.run(
            RUN + ["--workload", "serve_live", "--seed", "0", "--seconds", "1",
                   "--scale", "0.05", "--trace", trace],
            cwd=bench["cwd"], stdout=subprocess.PIPE, text=True, timeout=180,
        )
        assert proc.returncode == 0, proc.stdout[-2000:]
        last = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
        assert set(last["metrics"]) == want[trace]
        assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())
    trace_file = bench["cwd"] / "BENCH_e2e.serve_live.trace.json"
    spans = json.loads(trace_file.read_text())["spans"]
    assert {"id", "name", "start", "end", "parent", "op", "thread"} == set(spans[0])
    assert {"serve.run_step", "nn.forward", "gateway.request"} <= {s["name"] for s in spans}


def test_without_the_program_it_exits_non_zero_and_prints_no_result(tmp_path):
    shutil.copy(benchspec.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "train_seq", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_seconds_belongs_to_the_one_workload_form():
    with pytest.raises(SystemExit) as exit_info:
        run.parse_args(["--seconds", "5"])
    assert exit_info.value.code == 2


def test_a_hung_child_is_recorded_as_a_failed_workload(monkeypatch):
    def hang(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(run.subprocess, "run", hang)
    result = run.run_child("train_seq", seed=0, scale=0.05, trace=0)
    assert result["correct"] is False and "no result within" in result["problems"][0]


def test_compare_flags_a_regression_and_passes_a_rerun(bench, tmp_path, capsys):
    base = bench["cwd"] / "BENCH_e2e.json"
    assert compare.main([str(base), str(base)]) == 0
    assert " worse" not in capsys.readouterr().out.replace("0 worse", "")
    data = json.loads(base.read_text())
    for run in data["runs"]:
        run["workloads"]["train_seq"]["end_to_end"]["step_ms_p50"]["value"] *= 2
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(data))
    assert compare.main([str(base), str(slower)]) == 1
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines()
               if line.startswith("train_seq") and "step_ms_p50" in line)
    assert "worse" in row and "2.000" in row and "base " in row


def test_compare_reports_noise_wider_than_the_bound_as_unresolved():
    metric = {"unit": "ms", "better": "lower", "bound": 0.05}
    steady = {**metric, "values": [100.0, 101.0]}
    noisy = {**metric, "values": [90.0, 112.0]}
    assert compare.verdict(steady, steady)[0] == "ok"
    assert compare.verdict(steady, noisy)[0] == "unresolved"
    assert compare.verdict(steady, {**metric, "values": [80.0, 99.0]})[0] == "ok"  # all better
    assert compare.verdict(steady, {**metric, "values": [120.0, 121.0]})[0] == "worse"
    failed = {"unit": "share", "better": "lower", "bound": 0.0}
    assert compare.verdict({**failed, "values": [0.0]}, {**failed, "values": [0.01]})[0] == "worse"


def test_span_self_times_sum_to_the_root_and_faults_are_found():
    tracer = Tracer()
    with tracer.span("step", op=7):
        with tracer.span("nn.forward"):
            with tracer.span("Linear"):
                time.sleep(0.002)
        with tracer.span("tensor.backward"):
            time.sleep(0.001)
    assert tracer.integrity_errors() == []
    root = next(s for s in tracer.spans if s.name == "step")
    assert all(s.op == 7 for s in tracer.spans)
    assert sum(tracer.self_times().values()) == pytest.approx(root.duration)
    under = tracer.self_by_name(under="nn.forward")
    assert set(under) == {"nn.forward", "Linear"}
    assert sum(under.values()) == pytest.approx(tracer.total("nn.forward"))
    tracer.add("orphan", 1.0, 2.0)  # no step/request id
    assert any("no step/request id" in e for e in tracer.integrity_errors())
