"""The CLI's cross-cutting contracts: one exit-2 path, lazy subsystem
imports, every command documented, and ``lifecycle deploy --gateway``
booting the live gateway from objects rather than a fabricated namespace."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.cli import COMMANDS, main

ROOT = Path(__file__).resolve().parents[1]

# Flag values no command can run with.  Each used to escape as a traceback
# (or, for ``train --samples 0``, "train" on nothing and report accuracy 0).
BAD_CONFIG_ARGVS = [
    ["simulate", "--model", "mlp", "--nodes", "0"],
    ["simulate", "--model", "mlp", "--nodes", "2", "--bandwidth", "0"],
    ["simulate", "--model", "mlp", "--nodes", "2", "--batch-size", "0"],
    ["train", "--model", "mlp", "--warmup-epochs", "5", "--epochs", "2"],
    ["train", "--model", "mlp", "--samples", "0"],
    ["serve", "--model", "mlp", "--latency-profile", "missing.json"],
    ["serve", "--model", "mlp", "--checkpoint", "missing.npz"],
    ["cluster", "place", "--model", "mlp", "--profile-full", "missing.json"],
    ["cluster", "autoscale", "--model", "mlp", "--latency-profile", "missing.json"],
    ["profile", "simulate", "--nodes", "0"],
]


class TestExitContract:
    @pytest.mark.parametrize("argv", BAD_CONFIG_ARGVS, ids=" ".join)
    def test_bad_configuration_exits_2_with_one_line(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # "missing.*" really is missing; no trace.json left behind
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad ") and err.count("\n") == 1, err
        assert "Traceback" not in err

    def test_counts_are_rejected_where_the_group_is_consumed(self, capsys):
        """One check per group, not per command: every consumer of the loader
        and DDP groups refuses a zero with the same message."""
        for argv, flag in [
            (["train", "--model", "mlp", "--batch-size", "0"], "--batch-size"),
            (["train", "--task", "transformer", "--samples", "0"], "--samples"),
            (["profile", "quickstart", "--samples", "0"], "--samples"),
            (["simulate", "--model", "mlp", "--iterations", "0"], "--iterations"),
            (["profile", "simulate", "--iterations", "0"], "--iterations"),
        ]:
            assert main(argv) == 2
            assert f"{flag} must be >= 1" in capsys.readouterr().err

    def test_only_main_returns_2(self):
        sources = {p.name: p.read_text() for p in (ROOT / "src/repro/cli").glob("*.py")}
        sites = [name for name, text in sources.items() for _ in re.findall(r"return 2\b", text)]
        assert sites == ["__init__.py"]
        assert not any("argparse.Namespace(" in text for text in sources.values())

    def test_bugs_keep_their_traceback(self, monkeypatch):
        """Only configuration errors become exit 2; a ValueError raised
        *after* construction is a bug and must propagate."""
        import repro.cli.train as train_module

        def boom(*args, **kwargs):
            raise ValueError("not a flag problem")

        monkeypatch.setattr(train_module, "build_hybrid", boom)
        with pytest.raises(ValueError, match="not a flag problem"):
            main(["factorize", "--model", "mlp"])


def _modules_after(statement: str) -> set[str]:
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; {statement}; print('\\n'.join(sys.modules))"],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
    )
    return set(out.stdout.split())


class TestImportLaziness:
    def test_building_the_parser_imports_no_serving_subsystem(self):
        loaded = _modules_after("import repro.cli; repro.cli.build_parser()")
        heavy = {"repro.serve", "repro.gateway", "repro.cluster", "repro.lifecycle", "asyncio"}
        assert not heavy & loaded

    @pytest.mark.parametrize("package", ["repro", "repro.gateway", "repro.serve"])
    def test_library_imports_no_cli_module(self, package):
        loaded = _modules_after(f"import {package}")
        assert not {m for m in loaded if m.startswith("repro.cli")}


class TestDocs:
    def test_api_md_lists_every_command(self):
        text = (ROOT / "docs/API.md").read_text()
        section = text[text.index("## CLI"):]
        section = section[: section.index("\n## ", 1)] if "\n## " in section[1:] else section
        for command in COMMANDS:
            assert f"`repro {command}`" in section, f"docs/API.md CLI section lacks {command!r}"
        for code in ("**0**", "**1**", "**2**"):
            assert code in section


@pytest.fixture(scope="module")
def promoted_registry(tmp_path_factory):
    """A registry holding one promoted MLP (``lifecycle run --registry-dir``)."""
    reg = tmp_path_factory.mktemp("registry")
    rc = main([
        "lifecycle", "run", "--model", "mlp", "--seed", "3", "--samples", "64",
        "--val-samples", "16", "--batch-size", "16", "--warmup-epochs", "1",
        "--epochs", "2", "--registry-dir", str(reg),
    ])
    assert rc == 0
    return reg


class TestDeployGateway:
    def test_deploy_boots_gateway_on_promoted_artifact(self, promoted_registry, tmp_path, capsys):
        ready = tmp_path / "gw.ready"
        seen = {}

        def probe():
            deadline = time.monotonic() + 60.0
            while not ready.exists() and time.monotonic() < deadline:
                time.sleep(0.02)
            # The file appears before its content is flushed; retry the read.
            while not ready.read_text() and time.monotonic() < deadline:
                time.sleep(0.02)
            url = f"http://127.0.0.1:{int(ready.read_text())}/v1/model"
            with urllib.request.urlopen(url, timeout=5.0) as resp:
                seen.update(json.load(resp))

        thread = threading.Thread(target=probe, daemon=True)
        thread.start()
        rc = main([
            "lifecycle", "deploy", "--registry-dir", str(promoted_registry), "--name", "mlp",
            "--gateway", "--port", "0", "--duration", "0.3", "--ready-file", str(ready),
        ])
        thread.join(timeout=10.0)
        assert not thread.is_alive() and rc == 0
        out = capsys.readouterr().out
        assert "booting gateway on the promoted checkpoint" in out
        assert "gateway listening on http://127.0.0.1:" in out and "timeline digest:" in out
        lineage = seen["lineage"]
        assert lineage["name"] == "mlp" and lineage["version"] == 1
        assert lineage["parent_run"].startswith("lc-") and lineage["rank_map_digest"]

    @pytest.mark.parametrize("damage", ["truncated", "wrong-shape"])
    def test_deploy_gateway_on_a_corrupt_checkpoint_exits_1_with_one_line(
        self, promoted_registry, tmp_path, capsys, damage
    ):
        from repro.lifecycle import PromotionRegistry

        source = PromotionRegistry(promoted_registry).latest("mlp")
        registry = PromotionRegistry(tmp_path / "registry")
        path = Path(registry.promote_artifact(source.path, source.lineage).path)
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        else:
            with np.load(path) as data:
                arrays = {k: data[k] for k in data.files}
            key = min(k for k, v in arrays.items() if k.startswith("model/") and v.ndim == 2)
            arrays[key] = np.ascontiguousarray(arrays[key].T)
            np.savez(path, **arrays)
        rc = main([
            "lifecycle", "deploy", "--registry-dir", str(registry.root), "--name", "mlp",
            "--gateway", "--port", "0", "--duration", "0.3",
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.count("\n") == 1 and str(path) in captured.err
        assert "Traceback" not in captured.err and "gateway listening" not in captured.out

    def test_deploy_gateway_bad_serving_flags_exit_2_before_the_canary(
        self, promoted_registry, capsys
    ):
        rc = main([
            "lifecycle", "deploy", "--registry-dir", str(promoted_registry), "--name", "mlp",
            "--gateway", "--replicas", "0",
        ])
        captured = capsys.readouterr()
        assert rc == 2 and captured.err.startswith("bad lifecycle configuration:")
        assert "deploying" not in captured.out
