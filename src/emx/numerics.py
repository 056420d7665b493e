"""Flat float64 vector arithmetic, deterministic RNG, and gradient clipping.

Parameter vectors, gradients, and optimizer state slots are all plain 1-D
``numpy`` arrays of float64. Binary operations require operands of equal
length; there is no broadcasting. All randomness flows through Philox, a
counter-based 64-bit generator whose stream is reproducible bit-for-bit
from the seed.
"""

from __future__ import annotations

import numpy as np


class DivergenceError(ArithmeticError):
    """A non-finite value appeared in parameters or optimizer state.

    ``step`` is the 1-based index of the update that produced it, when known.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


def zeros(n: int) -> np.ndarray:
    return np.zeros(n, dtype=np.float64)


def check_same_length(a: np.ndarray, b: np.ndarray) -> None:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")


def l2_norm(a: np.ndarray) -> float:
    """Euclidean norm; 0.0 for the empty vector."""
    return float(np.sqrt(np.dot(a, a)))


def global_norm_clip(g: np.ndarray, max_norm: float) -> np.ndarray:
    """Rescale ``g`` so its global L2 norm is at most ``max_norm``.

    Vectors already within the bound are returned unchanged, which makes the
    operation idempotent bit-for-bit. Non-finite inputs signal divergence.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    if not np.all(np.isfinite(g)):
        raise DivergenceError("non-finite gradient in global_norm_clip")
    norm = l2_norm(g)
    if norm <= max_norm:
        return g
    scale = max_norm / norm
    clipped = g * scale
    # Rounding can leave the recomputed norm a hair above the bound; walk the
    # scale down by ulps so a second clip is exactly the identity.
    while l2_norm(clipped) > max_norm:
        scale = np.nextafter(scale, 0.0)
        clipped = g * scale
    return clipped


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; the same seed gives the same stream anywhere."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent stream for (seed, key), e.g. one per training step."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=key))
    )
