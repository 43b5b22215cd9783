"""Deterministic synthetic 224x224 images for tests, demos and benchmarks."""

from __future__ import annotations

import numpy as np

from .config import IMAGE_SIZE


def gradient_image(direction: str = "h") -> np.ndarray:
    """Linear ramp over [0,1], horizontal ("h") or vertical ("v"), all channels."""
    plane = np.tile(np.linspace(0.0, 1.0, IMAGE_SIZE, dtype=np.float32), (IMAGE_SIZE, 1))
    plane = plane if direction == "h" else plane.T
    return np.broadcast_to(plane, (3, IMAGE_SIZE, IMAGE_SIZE)).copy()


def smooth_image(seed: int) -> np.ndarray:
    """A smooth random image: per channel, a linear gradient plus five random
    sinusoids with wavelengths well above the patch scale, rescaled to [0,1]."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:IMAGE_SIZE, 0:IMAGE_SIZE].astype(np.float64) / IMAGE_SIZE
    channels = []
    for _ in range(3):
        plane = rng.uniform(-0.5, 0.5) * xx + rng.uniform(-0.5, 0.5) * yy
        for _ in range(5):
            u, v = rng.uniform(-4.0, 4.0, size=2)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amplitude = rng.uniform(0.3, 1.0)
            plane = plane + amplitude * np.sin(2.0 * np.pi * (u * xx + v * yy) + phase)
        lo, hi = plane.min(), plane.max()
        channels.append((plane - lo) / (hi - lo) if hi > lo else np.full_like(plane, 0.5))
    return np.stack(channels).astype(np.float32)


def smooth_corpus(count: int, seed: int) -> list[np.ndarray]:
    """`count` smooth images with per-image seeds derived from `seed`."""
    seeds = np.random.SeedSequence(seed).generate_state(count)
    return [smooth_image(int(s)) for s in seeds]
