"""Checkpoint promotion registry: versioned artifacts with lineage.

The shipping boundary between training and serving.  A
:class:`PromotionRegistry` is a directory of versioned ``.npz``
checkpoints plus an ``index.json``; promoting a :class:`~.pipeline.LifecycleRun`
(or a run artifact written by the CLI) stamps the run's full lineage —
parent run id, config and spectra digests, rank map, param/MAC accounting
— into the checkpoint metadata and the index.  Because the rank map rides
inside the artifact, a promoted checkpoint is self-describing:
``repro.serve.ModelRegistry.materialize`` rebuilds the exact per-layer
hybrid architecture before loading weights, and the gateway exposes the
lineage on ``GET /v1/model``.

Versions are integers per model name, assigned densely from 1.  Nothing
here depends on wall-clock time, so registry contents are a pure function
of the promoted runs.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..utils import amend_checkpoint, save_checkpoint
from .errors import CorruptCheckpointError, PromotionError
from .pipeline import LifecycleRun

__all__ = ["CheckpointRecord", "PromotionRegistry"]

_INDEX = "index.json"


@dataclass(frozen=True)
class CheckpointRecord:
    """One promoted checkpoint version and its provenance."""

    name: str
    version: int
    path: str
    lineage: dict

    @property
    def rank_map(self) -> dict:
        return dict(self.lineage.get("rank_map", {}))

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "version": self.version,
            "path": self.path,
            "lineage": dict(self.lineage),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CheckpointRecord":
        return cls(
            name=data["name"],
            version=int(data["version"]),
            path=data["path"],
            lineage=dict(data.get("lineage", {})),
        )


class PromotionRegistry:
    """Directory-backed store of promoted, versioned lifecycle checkpoints."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- index ---------------------------------------------------------

    @property
    def _index_path(self) -> Path:
        return self.root / _INDEX

    def _load_index(self) -> list[dict]:
        if not self._index_path.exists():
            return []
        return json.loads(self._index_path.read_text())["records"]

    def _save_index(self, records: list[dict]) -> None:
        """Write a sibling temp file, then rename it over the index: a crash
        mid-write leaves the previous index, never a truncated one."""
        tmp = self._index_path.with_name(_INDEX + ".tmp")
        tmp.write_text(json.dumps({"records": records}, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self._index_path)

    # -- queries -------------------------------------------------------

    def records(self, name: str | None = None) -> list[CheckpointRecord]:
        out = [CheckpointRecord.from_dict(r) for r in self._load_index()]
        if name is not None:
            out = [r for r in out if r.name == name]
        return sorted(out, key=lambda r: (r.name, r.version))

    def names(self) -> tuple[str, ...]:
        return tuple(sorted({r.name for r in self.records()}))

    def latest(self, name: str) -> CheckpointRecord:
        recs = self.records(name)
        if not recs:
            raise PromotionError(f"no promoted checkpoints for {name!r}")
        return recs[-1]

    def get(self, name: str, version: int) -> CheckpointRecord:
        for r in self.records(name):
            if r.version == version:
                return r
        raise PromotionError(f"no checkpoint {name!r} v{version}")

    # -- promotion -----------------------------------------------------

    def _next_version(self, name: str) -> int:
        recs = self.records(name)
        return recs[-1].version + 1 if recs else 1

    def _register(self, name: str, version: int, path: Path, lineage: dict) -> CheckpointRecord:
        record = CheckpointRecord(
            name=name, version=version, path=str(path), lineage=lineage
        )
        self._save_index(self._load_index() + [record.as_dict()])
        if _metrics.COLLECT:
            _metrics.REGISTRY.counter("lifecycle.promotions").inc()
            _metrics.REGISTRY.gauge("lifecycle.registry_versions").set(
                len(self.records(name))
            )
        return record

    def promote(self, run: LifecycleRun, name: str | None = None) -> CheckpointRecord:
        """Version an in-memory run's model into the registry."""
        name = name or run.config.model
        version = self._next_version(name)
        lineage = {**run.lineage(), "name": name, "version": version}
        path = self.root / f"{name}-v{version}.npz"
        with _trace.span("lifecycle.promote", name=name, version=version):
            save_checkpoint(path, run.model, lifecycle=lineage)
        return self._register(name, version, path, lineage)

    def promote_artifact(
        self,
        checkpoint: str | Path,
        lineage: dict,
        name: str | None = None,
    ) -> CheckpointRecord:
        """Version an on-disk checkpoint (the CLI's two-step path).

        ``lineage`` is the ``lineage`` block of a run summary written by
        ``repro lifecycle run --out``; the artifact is copied into the
        registry with the versioned lineage merged into its metadata.
        """
        checkpoint = Path(checkpoint)
        if not checkpoint.exists():
            raise PromotionError(f"checkpoint not found: {checkpoint}")
        if "rank_map" not in lineage:
            raise PromotionError("lineage must carry the run's rank_map")
        name = name or lineage.get("model")
        if not name:
            raise PromotionError("no model name in lineage; pass name=")
        version = self._next_version(name)
        lineage = {**lineage, "name": name, "version": version}
        path = self.root / f"{name}-v{version}.npz"
        with _trace.span("lifecycle.promote", name=name, version=version):
            amend_checkpoint(checkpoint, path, lifecycle=lineage)
        return self._register(name, version, path, lineage)

    # -- serving handoff -----------------------------------------------

    def materialize(self, record: CheckpointRecord, registry=None):
        """Turn a promoted record into a ready :class:`~repro.serve.ServedModel`.

        The serve registry reads the rank map out of the checkpoint
        metadata and rebuilds the exact per-layer hybrid before loading
        weights, so allocator-chosen ranks round-trip bit-exactly.  A
        checkpoint file that cannot be read back raises
        :class:`CorruptCheckpointError` before anything is built, and so does
        one that reads back but does not load into the model it was
        promoted as (an array of the wrong shape, a missing or unexpected
        key, a rank map that does not fit).
        """
        if registry is None:
            from ..serve import default_registry

            registry = default_registry()
        _require_readable(record.path)
        lineage = record.lineage
        try:
            return registry.materialize(
                lineage.get("model", record.name),
                "factorized",
                num_classes=int(lineage.get("num_classes", 4)),
                width=float(lineage.get("width", 0.25)),
                seed=int(lineage.get("seed", 0)),
                checkpoint=record.path,
            )
        except (KeyError, ValueError) as e:
            raise CorruptCheckpointError(
                f"checkpoint {record.path} does not load into its model: {type(e).__name__}: {e}"
            ) from e


def _require_readable(path) -> None:
    """Read every array of the checkpoint at ``path`` once, turning NumPy's
    and zipfile's errors for a damaged file into one typed error."""
    try:
        with np.load(path) as data:
            for key in data.files:
                data[key]
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as e:
        raise CorruptCheckpointError(
            f"checkpoint {path} cannot be read: {type(e).__name__}: {e}"
        ) from e
