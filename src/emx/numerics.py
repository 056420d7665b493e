"""Float64 vector and row arithmetic, deterministic RNG, and gradient clipping.

Parameter vectors, gradients, and optimizer state slots are plain float64
``numpy`` arrays: a 1-D vector for one point, or a ``(K, dim)`` array with
one row per point when several points are stepped together. Every operation
on rows is elementwise, so a row gets the bits it would get alone; the one
broadcast is a per-row value (a learning rate) as a ``(K, 1)`` column, which
rounds like the same scalar. Reductions are taken per row with
:func:`row_norms`. All randomness flows through Philox, a counter-based
64-bit generator whose stream is reproducible bit-for-bit from the seed.
"""

from __future__ import annotations

import math

import numpy as np


class DivergenceError(ArithmeticError):
    """A non-finite value appeared in parameters or optimizer state.

    ``step`` is the 1-based index of the update that produced it, when known.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


def l2_norm(a: np.ndarray) -> float:
    """Euclidean norm; 0.0 for the empty vector.

    ``np.vdot`` gives ``np.dot``'s bits on a float64 vector but does not check
    the floating-point flags: a square sum that overflows is a quiet ``inf``,
    not a ``RuntimeWarning``.
    """
    return math.sqrt(np.vdot(a, a))


def row_norms(rows: np.ndarray) -> list:
    """:func:`l2_norm` of each row, as Python floats.

    One row at a time: a batched reduction (``einsum``, ``(d*d).sum(1)``)
    does not round like ``np.vdot`` on a row.
    """
    return [l2_norm(row) for row in rows]


def finite_rows(*arrays: np.ndarray) -> np.ndarray | None:
    """``None`` if every value of ``arrays`` is finite; else, per row (the
    last axis reduced; a scalar for 1-D arrays), whether every array is
    finite there."""
    if all(np.isfinite(a).all() for a in arrays):  # the common case, one pass each
        return None
    ok = np.isfinite(arrays[0]).all(axis=-1)
    for a in arrays[1:]:
        ok &= np.isfinite(a).all(axis=-1)
    return ok


def _norm_parts(g: np.ndarray) -> tuple[float, float]:
    """``(n, peak)`` with ``|g| = n * peak``: ``peak`` is 1.0 unless the dot
    product overflows, then ``max|g|`` and ``n`` is the norm of ``g / peak``."""
    norm = l2_norm(g)
    if norm != np.inf:
        return norm, 1.0
    peak = float(np.max(np.abs(g)))
    return l2_norm(g / peak), peak


def global_norm_clip(g: np.ndarray, max_norm: float) -> np.ndarray:
    """Rescale ``g`` so its global L2 norm is at most ``max_norm``.

    Vectors already within the bound are returned unchanged, which makes the
    operation idempotent bit-for-bit. Non-finite inputs signal divergence. A
    finite ``g`` whose squared norm overflows is measured as ``g / max|g|``.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    if not np.isfinite(g).all():
        raise DivergenceError("non-finite gradient in global_norm_clip")
    norm, peak = _norm_parts(g)
    if norm * peak <= max_norm:
        return g
    scale = max_norm / norm / peak
    clipped = g * scale
    # Rounding can leave the recomputed norm a hair above the bound; walk the
    # scale down by ulps so a second clip is exactly the identity.
    while np.multiply(*_norm_parts(clipped)) > max_norm:
        scale = np.nextafter(scale, 0.0)
        clipped = g * scale
    return clipped


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; the same seed gives the same stream anywhere."""
    return spawn_rng(seed)


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent stream for (seed, key), e.g. one per training step."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=key))
    )
