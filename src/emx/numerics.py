"""Float64 vector and row arithmetic, deterministic RNG, and gradient clipping.

Parameter vectors, gradients, and optimizer state slots are plain float64
``numpy`` arrays: a 1-D vector for one point, or a ``(K, dim)`` array with
one row per point when several points are stepped together. Every operation
on rows is elementwise, so a row gets the bits it would get alone; the one
broadcast is a per-row value (a learning rate) as a ``(K, 1)`` column, which
rounds like the same scalar. Reductions are taken per row with
:func:`row_norms`, one BLAS ``ddot`` per row (per ``DOT_CHUNK`` columns)
in one ``np.vecdot`` call for all the rows, or for a stack of row arrays;
a step's rows are checked with :func:`finite_rows`, one ``ddot`` per array.
Neither makes a numpy call per row. All randomness flows through Philox, a
counter-based 64-bit generator whose stream is reproducible bit-for-bit
from the seed.
"""

from __future__ import annotations

import math

import numpy as np

from .schedules import finite_number

# Elements in one ``ddot`` of a norm. OpenBLAS (``interface/dot.c``, 0.3.x)
# splits a ddot of more than 10000 elements over its threads, which add
# their terms in another order, so one ddot over a longer vector gives bits
# that depend on OPENBLAS_NUM_THREADS. A norm takes its ddots in chunks of
# this many elements and adds their sums in chunk order; a vector of one
# chunk is one ddot, as before.
DOT_CHUNK = 1 << 13


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
    not a ``RuntimeWarning``. A vector of more than ``DOT_CHUNK`` elements
    is one row of :func:`row_norms`, which sums its chunks.
    """
    if a.size <= DOT_CHUNK:
        return math.sqrt(np.vdot(a, a))
    return row_norms(a.reshape(1, -1))[0]


def row_norms(rows: np.ndarray) -> list:
    """:func:`l2_norm` of each row, as Python floats; a ``(S, K, dim)``
    stack of row arrays gives ``S`` lists of ``K``.

    One ``np.vecdot`` over the rows: its float64 loop calls, for each row,
    the BLAS ``ddot`` that ``np.vdot`` calls, and ``np.sqrt`` rounds like
    ``math.sqrt`` (both are correctly rounded), so each row gets the bits of
    :func:`l2_norm`. A reduction that is not a ``ddot`` (``einsum``,
    ``(d*d).sum(1)``) rounds differently. Rows wider than ``DOT_CHUNK``
    take one ``vecdot`` per chunk of columns, added in chunk order, so that
    no ``ddot`` is threaded. ``vecdot`` and the adds check the
    floating-point flags where ``vdot`` does not, so an overflowed square
    sum is kept a quiet ``inf`` here.
    """
    head = rows[..., :DOT_CHUNK]
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.vecdot(head, head)
        for lo in range(DOT_CHUNK, rows.shape[-1], DOT_CHUNK):
            chunk = rows[..., lo : lo + DOT_CHUNK]
            squares += np.vecdot(chunk, chunk)
        return np.sqrt(squares).tolist()


def finite_rows(*arrays: np.ndarray) -> np.ndarray | None:
    """``None`` if every value of ``arrays`` is finite; else, per row (the
    last axis reduced; a scalar for 1-D arrays), whether every array is
    finite there.

    The common case is one BLAS ``ddot`` per array: ``a · a`` is finite only
    if every value of ``a`` is, for inf and nan propagate and squares cannot
    cancel. A non-finite dot, which may also be the overflowed square sum
    of finite values, falls through to per-value masks.
    """
    if all(math.isfinite(np.vdot(a, a)) for a in arrays):
        return None
    ok = np.isfinite(arrays[0]).all(axis=-1)
    for a in arrays[1:]:
        ok &= np.isfinite(a).all(axis=-1)
    return None if ok.all() else ok


def _norm_parts(g: np.ndarray) -> tuple[float, float]:
    """``(n, peak)`` with ``|g| = n * peak``: ``peak`` is 1.0 unless the dot
    product overflows, then ``max|g|`` and ``n`` is the norm of ``g / peak``.
    A non-finite ``g`` is a :class:`DivergenceError`; the square sum is its
    check, and ``np.isfinite`` runs only to tell it from an overflow."""
    norm = l2_norm(g)
    if math.isfinite(norm):
        return norm, 1.0
    if not np.isfinite(g).all():
        raise DivergenceError("non-finite gradient in global_norm_clip")
    peak = float(np.max(np.abs(g)))
    return l2_norm(g / peak), peak


def global_norm_clip(g: np.ndarray, max_norm: float) -> np.ndarray:
    """Rescale ``g`` so its global L2 norm is at most ``max_norm``.

    Vectors already within the bound are returned unchanged, which makes the
    operation idempotent bit-for-bit. Non-finite inputs signal divergence. A
    finite ``g`` whose squared norm overflows is measured as ``g / max|g|``.
    ``max_norm`` must be a finite number above 0, else a ``ValueError``.
    """
    max_norm = finite_number("max_norm", max_norm)
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
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


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent stream for (seed, key), e.g. one per training step; the
    same (seed, key) gives the same stream anywhere."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=key))
    )
