"""Unit tests of ``benchmarks/gate.py``: the field rules, the scenario walk
and the command line (exit codes 0 / 1 / 2, the report lines).

The end-to-end pins of every gate on its committed baseline live in
``tests/test_gates.py``.
"""

import importlib.util
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

_spec = importlib.util.spec_from_file_location("gate", BENCH_DIR / "gate.py")
gate = importlib.util.module_from_spec(_spec)
sys.modules["gate"] = gate  # dataclasses resolve annotations via sys.modules
_spec.loader.exec_module(gate)


class TestDeepDiff:
    def test_equal(self):
        failures = []
        gate.deep_diff({"a": [1, {"b": 2}]}, {"a": [1, {"b": 2}]}, "s", failures)
        assert failures == []

    def test_leaf_drift_and_missing_keys(self):
        failures = []
        gate.deep_diff({"a": 2, "new": 1}, {"a": 1, "gone": 3}, "s", failures)
        assert any("s.a: 2 != baseline 1" in f for f in failures)
        assert any("s.gone: missing from current run" in f for f in failures)
        assert any("s.new: not in baseline (new key)" in f for f in failures)

    def test_list_length(self):
        failures = []
        gate.deep_diff([1, 2], [1, 2, 3], "s", failures)
        assert failures == ["s: length 2 != baseline 3"]


class TestFieldRules:
    def test_exact_fields(self):
        failures = []
        rule = gate.ExactFields(("n", "sizes"), note="structure changed")
        rule({"n": 2, "sizes": [1]}, {"n": 1, "sizes": [1]}, "sc", failures)
        assert failures == ["sc.n: 2 != baseline 1 (structure changed)"]

    def test_exact_fields_skips_absent_everywhere(self):
        failures = []
        gate.ExactFields(("missing",))({}, {}, "sc", failures)
        assert failures == []

    def test_band_fields_two_sided(self):
        rule = gate.BandFields(("t",), note="modeled time drifted")
        for cur, n_fail in ((1.0, 0), (1.19, 0), (1.21, 1), (0.79, 1)):
            failures = []
            rule({"t": cur}, {"t": 1.0}, "sc", failures)
            assert len(failures) == n_fail, (cur, failures)

    def test_band_fields_upper_only(self):
        rule = gate.BandFields(("t",), mode="upper")
        for cur, n_fail in ((0.1, 0), (1.19, 0), (1.21, 1)):
            failures = []
            rule({"t": cur}, {"t": 1.0}, "sc", failures)
            assert len(failures) == n_fail, (cur, failures)


def _paths(tmp_path, current, baseline):
    argv = []
    for flag, art in (("--current", current), ("--baseline", baseline)):
        path = tmp_path / f"{flag[2:]}.json"
        path.write_text(json.dumps(art))
        argv += [flag, str(path)]
    return argv


class TestRunGate:
    def test_ok_run(self, tmp_path, capsys):
        art = {"scenarios": {"a": {"events": 1}}}
        rc = gate.main(["faults", *_paths(tmp_path, art, art)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("faults regression gate: OK against ")

    def test_failure_report(self, tmp_path, capsys):
        rc = gate.main(
            [
                "faults",
                *_paths(
                    tmp_path,
                    {"scenarios": {"a": {"events": 2}}},
                    {"scenarios": {"a": {"events": 1}}},
                ),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "faults regression gate: 1 failure(s)" in out
        assert "  FAIL a.events: 2 != baseline 1 (seeded event stream changed" in out

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = gate.main(
            [
                "faults",
                "--current",
                str(tmp_path / "nope.json"),
                "--baseline",
                str(tmp_path / "also-nope.json"),
            ]
        )
        assert rc == 2
        assert "missing" in capsys.readouterr().err

    def test_missing_scenario(self, tmp_path):
        baseline = {"scenarios": {"a": {"events": 1}}}
        assert gate.main(["faults", *_paths(tmp_path, {"scenarios": {}}, baseline)]) == 1

    def test_skip_invariants_headline(self, tmp_path, capsys):
        current = {"scenarios": {"measured_x": {"n": 99, "capacity_rps": -1}}}
        baseline = {"scenarios": {"measured_x": {"n": 1}, "measured_y": {"n": 1}}}
        rc = gate.main(["serving", *_paths(tmp_path, current, baseline)])
        out = capsys.readouterr().out
        # measured_x's drift was skipped, but its invariant fired; the
        # skipped measured_y is still required; no headline without its
        # scenario.
        assert rc == 1
        assert "measured_x.n" not in out
        assert "measured_x: capacity_rps -1 not positive" in out
        assert "measured_y: scenario missing from current run" in out
        assert "pinned_crossover" not in out

    def test_custom_walk_and_ok_line(self, tmp_path, capsys):
        art = {"records": [{"title": "T", "kind": "series", "series": {"loss": [1, 2]}}]}
        assert gate.main(["observability", *_paths(tmp_path, art, art)]) == 0
        assert "observability regression gate: OK against " in capsys.readouterr().out
        shorter = {"records": [{"title": "T", "kind": "series", "series": {"loss": [1]}}]}
        assert gate.main(["observability", *_paths(tmp_path, shorter, art)]) == 1
        assert "  FAIL T: series 'loss' length 1 != baseline 2" in capsys.readouterr().out
