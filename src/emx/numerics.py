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
from the seed: :func:`spawn_rng` makes one stream per ``(seed, key)``, and
:class:`StepStreams` gives the streams ``spawn_rng(seed, *prefix, t)`` of a
whole family of steps ``t`` from one re-keyed ``Philox``, with no
``SeedSequence`` per step.
"""

from __future__ import annotations

import math
from itertools import permutations

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


# SeedSequence's constants (numpy.random.bit_generator): ``hashmix`` (A),
# ``mix`` (L, R) and ``generate_state`` (B), on a pool of four 32-bit words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list:
    """``n`` as SeedSequence splits an int: its 32-bit words, low first."""
    if n < 0:
        raise ValueError(f"a stream key must be non-negative, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(value: int, hash_const: int, mult: int = _MULT_A) -> tuple[int, int]:
    """SeedSequence's ``hashmix`` (``generate_state``'s with ``_MULT_B``):
    the hashed value and the next constant."""
    value ^= hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _mix(pool: list, i: int, word: int, hash_const: int) -> int:
    """SeedSequence's ``mix`` of ``hashmix(word)`` into ``pool[i]``; the
    next constant."""
    value, hash_const = _hashmix(word, hash_const)
    mixed = (_MIX_L * pool[i] - _MIX_R * value) & _MASK32
    pool[i] = mixed ^ mixed >> 16
    return hash_const


def _mix_in(pool: list, hash_const: int, words: list) -> int:
    """Mix each of ``words`` into every word of ``pool``, as SeedSequence
    mixes the entropy beyond its pool; the next constant."""
    for word in words:
        for i in range(4):
            hash_const = _mix(pool, i, word, hash_const)
    return hash_const


class StepStreams:
    """The streams ``spawn_rng(seed, *prefix, t)`` of every ``t``, bit for
    bit, from one ``Philox`` that :meth:`rng` re-keys.

    ``SeedSequence(seed, spawn_key=(*prefix, t))`` hashes the seed (padded
    to four words) into its pool, then mixes each key word into every pool
    word, and ``Philox`` takes its key from the pool. The words of ``seed``
    and ``prefix`` are mixed here once, so a stream costs the mixing of
    ``t``'s words and one state set, not a ``SeedSequence`` and a ``Philox``.
    The generator :meth:`rng` returns is the same object for every ``t``:
    draw from it before the next call.
    """

    def __init__(self, seed: int, *prefix: int):
        words = _words(seed)
        entropy = words + [0] * (4 - len(words)) + [w for key in prefix for w in _words(key)]
        self._pool, hash_const = [], _INIT_A
        for word in entropy[:4]:
            value, hash_const = _hashmix(word, hash_const)
            self._pool.append(value)
        for src, dst in permutations(range(4), 2):  # every pool word into every other
            hash_const = _mix(self._pool, dst, self._pool[src], hash_const)
        self._hash = _mix_in(self._pool, hash_const, entropy[4:])
        self._rng = np.random.Generator(np.random.Philox(key=0))
        self._state = self._rng.bit_generator.state

    def key(self, t: int) -> tuple[int, int]:
        """The Philox key of stream ``t``: ``generate_state(2, np.uint64)``."""
        pool = self._pool.copy()
        _mix_in(pool, self._hash, _words(t))
        hash_const, out = _INIT_B, []
        for value in pool:
            value, hash_const = _hashmix(value, hash_const, _MULT_B)
            out.append(value)
        return out[0] | out[1] << 32, out[2] | out[3] << 32

    def rng(self, t: int) -> np.random.Generator:
        """The generator of ``spawn_rng(seed, *prefix, t)``, at its start."""
        self._state["state"]["key"] = self.key(t)
        self._rng.bit_generator.state = self._state
        return self._rng
