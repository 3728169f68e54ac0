"""Synthetic image-classification tasks (CIFAR-10 / ImageNet stand-ins).

The paper's datasets are not redistributable here, so we generate images
with *learnable class structure*: each class owns a smooth spatial
prototype (low-frequency random field) and samples are
``prototype + structured noise``.  Difficulty is controlled by the
signal-to-noise ratio.  The tasks exercise the identical code paths
(augmentation, normalization, conv nets, accuracy) and — because difficulty
is tunable — reproduce the orderings the paper's experiments rest on
(vanilla ≥ hybrid+warm-up > low-rank-from-scratch).

Normalization constants follow the paper's appendix H.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils import spawn_rng

__all__ = [
    "SyntheticImageDataset",
    "make_cifar_like",
    "make_imagenet_like",
    "random_crop_flip",
    "CIFAR_MEAN",
    "CIFAR_STD",
    "IMAGENET_MEAN",
    "IMAGENET_STD",
]

CIFAR_MEAN = np.array([0.491, 0.482, 0.447], dtype=np.float32)
CIFAR_STD = np.array([0.247, 0.244, 0.262], dtype=np.float32)
IMAGENET_MEAN = np.array([0.485, 0.456, 0.406], dtype=np.float32)
IMAGENET_STD = np.array([0.229, 0.224, 0.225], dtype=np.float32)

_SYNTH_CHUNK = 64  # images generated per step of _make_images


def _smooth_field(rng: np.random.Generator, channels: int, size: int, cutoff: int) -> np.ndarray:
    """Low-frequency random field via truncated 2-D Fourier synthesis."""
    freq = np.zeros((channels, size, size), dtype=np.complex128)
    k = min(cutoff, size)
    block = rng.standard_normal((channels, k, k)) + 1j * rng.standard_normal((channels, k, k))
    freq[:, :k, :k] = block
    field = np.fft.ifft2(freq, axes=(-2, -1)).real
    field /= np.abs(field).max(axis=(-2, -1), keepdims=True) + 1e-9
    return field.astype(np.float32)


@dataclass
class SyntheticImageDataset:
    """In-memory dataset of normalized images (N, C, H, W) + int labels."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int
    mean: np.ndarray
    std: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    def split(self, n_train: int) -> tuple["SyntheticImageDataset", "SyntheticImageDataset"]:
        """Deterministic train/val split."""
        train = SyntheticImageDataset(
            self.images[:n_train], self.labels[:n_train], self.num_classes, self.mean, self.std
        )
        val = SyntheticImageDataset(
            self.images[n_train:], self.labels[n_train:], self.num_classes, self.mean, self.std
        )
        return train, val


def _make_images(
    n: int,
    num_classes: int,
    size: int,
    channels: int,
    noise: float,
    cutoff: int,
    mean: np.ndarray,
    std: np.ndarray,
    rng: np.random.Generator | None,
) -> SyntheticImageDataset:
    rng = rng or spawn_rng()
    prototypes = np.stack(
        [_smooth_field(rng, channels, size, cutoff) for _ in range(num_classes)]
    )  # (K, C, H, W)
    labels = rng.integers(0, num_classes, n)
    # Sample = 0.5 + 0.3*prototype + noise, clipped to [0, 1] "pixel" range,
    # then normalized.  Built _SYNTH_CHUNK images at a time into the one
    # output array, so the float64 noise draw and the temporaries stay
    # chunk-sized; the draws are sequential, so chunked draws are the same
    # numbers, and every element sees the same float32 arithmetic.
    images = np.empty((n, channels, size, size), dtype=np.float32)
    for start in range(0, n, _SYNTH_CHUNK):
        rows = labels[start : start + _SYNTH_CHUNK]
        raw = 0.5 + 0.3 * prototypes[rows] + noise * rng.standard_normal(
            (len(rows), channels, size, size)
        ).astype(np.float32)
        raw = np.clip(raw, 0.0, 1.0).astype(np.float32)
        images[start : start + len(rows)] = (raw - mean[:, None, None]) / std[:, None, None]
    return SyntheticImageDataset(images, labels, num_classes, mean, std)


def make_cifar_like(
    n: int = 2048,
    num_classes: int = 10,
    size: int = 32,
    noise: float = 0.25,
    rng: np.random.Generator | None = None,
) -> SyntheticImageDataset:
    """CIFAR-10 stand-in: 32×32×3, 10 classes, CIFAR normalization."""
    return _make_images(
        n, num_classes, size, 3, noise, cutoff=4, mean=CIFAR_MEAN, std=CIFAR_STD, rng=rng
    )


def make_imagenet_like(
    n: int = 2048,
    num_classes: int = 100,
    size: int = 64,
    noise: float = 0.25,
    rng: np.random.Generator | None = None,
) -> SyntheticImageDataset:
    """Scaled ImageNet stand-in: more classes, larger images, finer structure."""
    return _make_images(
        n, num_classes, size, 3, noise, cutoff=6, mean=IMAGENET_MEAN, std=IMAGENET_STD, rng=rng
    )


def random_crop_flip(
    batch: np.ndarray, rng: np.random.Generator, pad: int = 4
) -> np.ndarray:
    """Standard CIFAR augmentation: pad+random-crop and horizontal flip."""
    n, c, h, w = batch.shape
    padded = np.pad(batch, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="reflect")
    out = np.empty_like(batch)
    ys = rng.integers(0, 2 * pad + 1, n)
    xs = rng.integers(0, 2 * pad + 1, n)
    flips = rng.random(n) < 0.5
    for i in range(n):
        crop = padded[i, :, ys[i] : ys[i] + h, xs[i] : xs[i] + w]
        out[i] = crop[:, :, ::-1] if flips[i] else crop
    return out
