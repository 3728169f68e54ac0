"""``benchmarks/harness.py``'s artifact writer: at session end every suite
that recorded something gets one ``BENCH_<suite>.json`` in the working
directory, the shared envelope plus the suite's body; a suite that recorded
nothing gets no file."""

import json

import pytest

from benchmarks import harness
from repro import __version__

ENVELOPE = {"generated_at", "repro_version", "python"}


@pytest.fixture(autouse=True)
def _fresh_session(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_ARTIFACTS", {})
    monkeypatch.chdir(tmp_path)


def _read(tmp_path, suite: str) -> dict:
    return json.loads((tmp_path / f"BENCH_{suite}.json").read_text())


def test_two_suites_write_two_files(tmp_path):
    harness.artifact("cluster")["scenarios"]["fleet_cost"] = {"n_hosts": 2}
    harness.artifact("kernels", {"schema": 6, "ops": {"conv2d": {"speedup": 1.5}}})

    assert sorted(harness.flush_bench_metrics()) == ["BENCH_cluster.json", "BENCH_kernels.json"]
    cluster, kernels = _read(tmp_path, "cluster"), _read(tmp_path, "kernels")
    assert set(cluster) == ENVELOPE | {"scenarios"}
    assert cluster["scenarios"] == {"fleet_cost": {"n_hosts": 2}}
    assert cluster["repro_version"] == __version__
    assert set(kernels) == ENVELOPE | {"schema", "ops"}
    assert kernels["ops"] == {"conv2d": {"speedup": 1.5}}


def test_suite_that_recorded_nothing_writes_no_file(tmp_path):
    scenarios = harness.artifact("serving")["scenarios"]  # module imported, no test ran
    assert harness.artifact("serving")["scenarios"] is scenarios

    assert harness.flush_bench_metrics() == []
    assert list(tmp_path.iterdir()) == []


def test_observability_keeps_records_and_metrics(tmp_path, capsys):
    harness.print_table("T", ["a", "b"], [[1, 2.5]])
    harness.print_series("S", "epoch", {"acc": [0.5, 0.75]})

    assert harness.flush_bench_metrics() == ["BENCH_observability.json"]
    obs = _read(tmp_path, "observability")
    assert set(obs) == ENVELOPE | {"records", "metrics"}
    assert obs["records"] == [
        {"kind": "table", "title": "T", "headers": ["a", "b"], "rows": [[1, 2.5]]},
        {"kind": "series", "title": "S", "xlabel": "epoch", "series": {"acc": [0.5, 0.75]}},
    ]
    assert isinstance(obs["metrics"], dict)
