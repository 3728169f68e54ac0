"""Model registry: the zoo's builders, variant materialization, cost accounting.

The serving layer's source of truth for *what* can be served: every model
in the zoo (:data:`IMAGE_MODELS` + :data:`SEQUENCE_MODELS`, built by
:func:`build_model`), and :meth:`ModelRegistry.materialize` turns
``(name, variant)`` into a ready :class:`ServedModel` — the
``full`` variant as trained, or the ``factorized`` variant rebuilt
through the paper's truncated-SVD hybrid conversion.  Each materialized
variant reports its parameter count and measured per-example MACs, which
is exactly the quantity Pufferfish permanently shrinks (unlike
gradient-compression schemes, which leave the served model full-rank).

The served model is an eval-only copy with every BatchNorm that follows a
conv folded into that conv (:func:`repro.core.fold_batchnorm`): the same
state dict, less work per forward.

Checkpoints saved by :func:`repro.utils.save_checkpoint` load into either
variant; for ``factorized`` the architecture is hybridized first so a
checkpoint from :class:`~repro.core.PufferfishTrainer` drops straight in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..observability import metrics as _metrics
from .inputs import InputSpec

__all__ = [
    "VARIANTS",
    "ServedModel",
    "ModelRegistry",
    "build_model",
    "input_spec_for",
    "hybrid_config_for",
    "default_registry",
    "IMAGE_MODELS",
    "SEQUENCE_MODELS",
]

VARIANTS = ("full", "factorized")

# Served weights are fp32: the memory a replica of ``params`` holds.
BYTES_PER_PARAM = 4

# The conv models take NCHW CIFAR-shaped images (MLP flattens them
# internally); the sequence zoo declares its own token specs below.
INPUT_SHAPE = (3, 32, 32)

IMAGE_MODELS = ("mlp", "vgg11", "vgg19", "resnet18", "resnet50", "wideresnet50")
SEQUENCE_MODELS = ("lstm", "transformer")

# Serving-scale sequence-model knobs: vocab and sequence length are fixed
# per model (they are task properties, not capacity knobs); ``width``
# scales the embedding/d_model dimension like the conv width multiplier.
_SEQ_VOCAB = 50
_LSTM_SEQ_LEN = 16
_TRANSFORMER_SEQ_LEN = 12
_BASE_DIM = 128  # width 1.0 embedding / d_model
_DIM_MULTIPLE = 4  # d_model must split evenly over the attention heads


def _seq_dim(width: float) -> int:
    """Width-scaled embedding dim, floored and rounded for head splits."""
    dim = max(_DIM_MULTIPLE, int(_BASE_DIM * width))
    return dim - dim % _DIM_MULTIPLE


def build_model(name: str, num_classes: int = 4, width: float = 0.25):
    """Construct a zoo model by name (the CLI's model table lives here).

    For the sequence models ``num_classes`` is ignored (their output space
    is the fixed vocabulary) and ``width`` scales the hidden dimension.
    """
    from .. import models

    if name == "mlp":
        return models.MLP(3 * 32 * 32, [256, 128], num_classes)
    if name == "vgg11":
        return models.vgg11(num_classes=num_classes, width_mult=width)
    if name == "vgg19":
        return models.vgg19(num_classes=num_classes, width_mult=width)
    if name == "resnet18":
        return models.resnet18(num_classes=num_classes, width_mult=width)
    if name == "resnet50":
        return models.resnet50(num_classes=num_classes, width_mult=width, small_input=True)
    if name == "wideresnet50":
        return models.wide_resnet50_2(
            num_classes=num_classes, width_mult=width, small_input=True
        )
    if name == "lstm":
        return models.LSTMLanguageModel(_SEQ_VOCAB, embed_dim=_seq_dim(width))
    if name == "transformer":
        return models.Seq2SeqTransformer(
            _SEQ_VOCAB,
            d_model=_seq_dim(width),
            n_heads=4,
            num_layers=2,
            max_len=4 * _TRANSFORMER_SEQ_LEN,
        )
    raise ValueError(f"unknown model {name!r}")


def input_spec_for(name: str) -> InputSpec:
    """The example-input metadata for a zoo model (see :mod:`.inputs`)."""
    if name in IMAGE_MODELS:
        return InputSpec("image", INPUT_SHAPE)
    if name == "lstm":
        return InputSpec("tokens", (_LSTM_SEQ_LEN,), vocab_size=_SEQ_VOCAB)
    if name == "transformer":
        return InputSpec("seq2seq", (_TRANSFORMER_SEQ_LEN,), vocab_size=_SEQ_VOCAB)
    raise ValueError(f"unknown model {name!r}")


def hybrid_config_for(
    name: str,
    model,
    rank_ratio: float = 0.25,
    rank_overrides: dict | None = None,
):
    """The per-model hybrid factorization config (paper Section 3.3).

    ``rank_overrides`` (path → exact rank) is merged on top of the model's
    paper config, so allocator- or lifecycle-chosen per-layer ranks reuse
    the same skip rules (first conv, last FC, full-rank prefixes) as the
    global-ratio baseline.
    """
    from dataclasses import replace

    from .. import models
    from ..core import FactorizationConfig

    if name == "vgg19":
        config = models.vgg19_hybrid_config(rank_ratio)
    elif name == "vgg11":
        config = models.vgg11_hybrid_config(rank_ratio)
    elif name == "resnet18":
        config = models.resnet18_hybrid_config(model, rank_ratio)
    elif name in ("resnet50", "wideresnet50"):
        config = models.resnet50_hybrid_config(model, rank_ratio)
    elif name == "lstm":
        config = models.lstm_lm_hybrid_config(rank_ratio)
    elif name == "transformer":
        config = models.transformer_hybrid_config(rank_ratio)
    else:
        config = FactorizationConfig(rank_ratio=rank_ratio)
    if rank_overrides:
        config = replace(
            config,
            rank_overrides={**config.rank_overrides, **rank_overrides},
        )
    return config


@dataclass
class ServedModel:
    """A materialized model variant plus its serving-relevant costs."""

    name: str
    variant: str
    model: object
    params: int
    macs: int
    input_shape: tuple[int, ...]
    factorization: dict | None = None  # params_before/after, compression, ...
    input_spec: InputSpec | None = None
    # Promotion provenance (checkpoint version, parent run, rank-map
    # digest, ...) when materialized from a promoted lifecycle artifact.
    lineage: dict | None = None
    # (conv, BatchNorm) pairs folded into the served copy of the model.
    bn_folded: int = 0

    def __post_init__(self) -> None:
        if self.input_spec is None:
            self.input_spec = InputSpec("image", self.input_shape)

    def memory_bytes(self) -> int:
        """Resident weight footprint of one replica (fp32 weights) — the
        memory cost the cluster placement engine bin-packs."""
        return self.params * BYTES_PER_PARAM

    def describe(self) -> dict:
        out = {
            "name": self.name,
            "variant": self.variant,
            "params": self.params,
            "macs": self.macs,
            "bn_folded": self.bn_folded,
            "input": self.input_spec.to_dict(),
        }
        if self.factorization:
            out["factorization"] = dict(self.factorization)
        if self.lineage:
            out["lineage"] = dict(self.lineage)
        return out


class ModelRegistry:
    """Cached variant materialization of the zoo's models.

    Materializing the factorized variant pays the one-time truncated SVD,
    so repeated lookups (rate sweeps, CLI reruns in one process) hit the
    cache; the cache key covers every argument that changes the result.
    """

    def __init__(self):
        self._cache: dict[tuple, ServedModel] = {}

    def materialize(
        self,
        name: str,
        variant: str = "full",
        *,
        num_classes: int = 4,
        width: float = 0.25,
        rank_ratio: float = 0.25,
        rank_overrides: dict | None = None,
        seed: int = 0,
        checkpoint=None,
    ) -> ServedModel:
        """Build (or fetch) one ready-to-serve model variant.

        ``rank_overrides`` threads allocator-chosen per-layer ranks into
        the factorized architecture.  ``checkpoint`` may be any
        :func:`repro.utils.save_checkpoint` file — a *promoted lifecycle
        artifact* carries its rank map and lineage in
        the metadata, so the matching per-layer hybrid is rebuilt
        automatically before the weights load and the lineage is exposed
        on the served model.
        """
        zoo = IMAGE_MODELS + SEQUENCE_MODELS
        if name not in zoo:
            raise ValueError(f"unknown model {name!r}; expected one of {zoo}")
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        key = (name, variant, num_classes, width, rank_ratio, seed,
               tuple(sorted(rank_overrides.items())) if rank_overrides else None,
               str(checkpoint) if checkpoint is not None else None)
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        from ..core import build_hybrid, fold_batchnorm, folded_pairs
        from ..metrics import measure_macs
        from ..utils import set_seed

        lineage = None
        if checkpoint is not None:
            from ..utils import peek_checkpoint

            lineage = peek_checkpoint(checkpoint).get("lifecycle")
            if lineage and variant == "factorized" and not rank_overrides:
                # The artifact knows its own architecture: adopt its
                # per-layer rank map so the state dict matches exactly.
                rank_overrides = {
                    path: int(r) for path, r in lineage.get("rank_map", {}).items()
                }

        set_seed(seed)
        model = build_model(name, num_classes, width)
        factorization = None
        if variant == "factorized":
            model, report = build_hybrid(
                model,
                hybrid_config_for(name, model, rank_ratio, rank_overrides),
            )
            factorization = {
                "params_before": report.params_before,
                "params_after": report.params_after,
                "compression": report.compression,
                "n_factorized": len(report.replaced),
            }
        if checkpoint is not None:
            from ..utils import load_checkpoint

            load_checkpoint(checkpoint, model)
        model.eval()
        spec = input_spec_for(name)
        example = spec.example_batch(1, np.random.default_rng(0))
        # Costs are the trained architecture's; the fold only changes how
        # the served copy computes the same function.
        params = int(model.num_parameters())
        macs = int(measure_macs(model, *example))
        model = fold_batchnorm(model)
        served = ServedModel(
            name=name,
            variant=variant,
            model=model,
            params=params,
            macs=macs,
            input_shape=spec.shape,
            factorization=factorization,
            input_spec=spec,
            bn_folded=folded_pairs(model),
            # Expose digests, not the full rank map — /v1/model stays small.
            lineage={k: v for k, v in lineage.items() if k != "rank_map"}
            if lineage
            else None,
        )
        self._cache[key] = served
        if _metrics.COLLECT:
            _metrics.REGISTRY.counter("serve.models_materialized").labels(
                variant=variant
            ).inc()
        return served


def default_registry() -> ModelRegistry:
    """A fresh registry (an empty cache) over the full model zoo."""
    return ModelRegistry()
