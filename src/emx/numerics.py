"""Float64 vector and row arithmetic, deterministic RNG, and gradient clipping.

Parameter vectors, gradients, and optimizer state slots are plain float64
``numpy`` arrays: a 1-D vector for one point, or a ``(K, dim)`` array with
one row per point when several points are stepped together. Every operation
on rows is elementwise, so a row gets the bits it would get alone; the one
broadcast is a per-row value (a learning rate) as a ``(K, 1)`` column, which
rounds like the same scalar. Reductions are taken per row with
:func:`row_norms`, one BLAS ``ddot`` per row (per ``DOT_CHUNK`` columns)
in one ``np.vecdot`` call for all the rows, or for a stack of row arrays.
A step's arrays are checked with :func:`finite_rows`, one pass per array
(a slot block is one array): one ``ddot`` up to ``DOT_CHUNK`` elements,
else one per row in a ``vecdot`` call per chunk of columns. So no ``ddot``
is threaded, and neither function makes a numpy call per slot or per row.
:func:`clip_rows` clips rows from norms taken once for a check as well,
and rescales only the rows above the bound. All randomness flows through
Philox, a counter-based 64-bit generator whose stream is reproducible
bit-for-bit from the seed: :func:`spawn_rng` makes a one-off stream per
``(seed, key)``, and :class:`StepStreams` gives the streams
``spawn_rng(seed, *prefix, t)`` of a whole family of steps ``t`` from one
re-keyed ``Philox``: numpy's ``SeedSequence`` mixes ``(seed, prefix)``
once, and each step mixes only the words of ``t``.
"""

from __future__ import annotations

import math
import operator

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
    sums its chunks in order, as a row of :func:`row_norms` does; an array
    of more axes is the vector of its values.
    """
    return math.sqrt(_square_sum(a if a.ndim == 1 else a.reshape(1, -1)))


# the decorator form costs half of a ``with np.errstate`` block per call
@np.errstate(over="ignore", invalid="ignore")
def _squares(rows: np.ndarray) -> np.ndarray:
    """Each row's square sum, the last axis reduced: one ``np.vecdot`` call
    per chunk of ``DOT_CHUNK`` columns for all the rows, added in chunk
    order. ``vecdot`` and the adds check the floating-point flags where
    ``vdot`` does not, so they run under an ``np.errstate`` that ignores
    overflow: an overflowed square sum is a quiet ``inf``."""
    head = rows[..., :DOT_CHUNK]
    squares = np.vecdot(head, head)
    for lo in range(DOT_CHUNK, rows.shape[-1], DOT_CHUNK):
        chunk = rows[..., lo : lo + DOT_CHUNK]
        squares += np.vecdot(chunk, chunk)
    return squares


def row_norms(rows: np.ndarray) -> list:
    """:func:`l2_norm` of each row, as Python floats; a ``(S, K, dim)``
    stack of row arrays gives ``S`` lists of ``K``.

    One ``np.vecdot`` over the rows: its float64 loop calls, for each row,
    the BLAS ``ddot`` that ``np.vdot`` calls, and ``np.sqrt`` rounds like
    ``math.sqrt`` (both are correctly rounded), so each row gets the bits of
    :func:`l2_norm`. A reduction that is not a ``ddot`` (``einsum``,
    ``(d*d).sum(1)``) rounds differently. Rows wider than ``DOT_CHUNK``
    take one ``vecdot`` per chunk of columns, added in chunk order, so that
    no ``ddot`` is threaded. One row is :func:`l2_norm` of that row, one
    ``vdot`` up to ``DOT_CHUNK`` columns.
    """
    if rows.shape[:-1] == (1,):
        return [math.sqrt(_square_sum(rows))]
    return np.sqrt(_squares(rows)).tolist()


def _square_sum(a: np.ndarray) -> float:
    """The square sum of every value of ``a``: one ``vdot`` for at most
    ``DOT_CHUNK`` elements, else the sums of :func:`_squares` over its rows,
    added in row order, so that no ``ddot`` is threaded and the calls do
    not grow with the leading axes."""
    if a.size <= DOT_CHUNK:
        return np.vdot(a, a)
    return sum(_squares(a).ravel().tolist())


def finite_rows(*arrays: np.ndarray) -> np.ndarray | None:
    """``None`` if every value of ``arrays`` is finite; else, per row of the
    first array (its last axis reduced; a scalar for a 1-D array), whether
    every array is finite there. An array with more axes than the first has
    its leading ones reduced too, so a ``(S, K, dim)`` block of slot rows
    gives the masks of its ``S`` slots combined.

    The common case is one pass per array: ``a · a`` is finite only if every
    value of ``a`` is, for inf and nan propagate and squares cannot cancel.
    The square sum is one ``ddot`` for an array of at most ``DOT_CHUNK``
    elements, else one ``ddot`` per row (per ``DOT_CHUNK`` columns), in one
    ``vecdot`` call per chunk for all the rows: no ``ddot`` is threaded, and
    there is never a call per slot or per row. A non-finite sum, which may
    also be the overflowed square sum of finite values, falls through to
    per-value masks.
    """
    for a in arrays:  # a loop: a generator in all() costs a third of a small check
        if not math.isfinite(_square_sum(a)):
            break
    else:
        return None
    lead = arrays[0].ndim - 1
    ok = np.isfinite(arrays[0]).all(axis=-1)
    for a in arrays[1:]:
        ok &= np.isfinite(a).all(axis=(*range(a.ndim - 1 - lead), -1))
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


def _bound(max_norm) -> float:
    """``max_norm`` as a float; one that is not a finite number above 0 is a
    ``ValueError``."""
    max_norm = finite_number("max_norm", max_norm)
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    return max_norm


def _rescaled(g: np.ndarray, max_norm: float, norm: float, peak: float) -> np.ndarray:
    """``g`` scaled to the norm ``max_norm``, given its norm ``norm * peak``
    (:func:`_norm_parts`)."""
    scale = max_norm / norm / peak
    clipped = g * scale
    # Rounding can leave the recomputed norm a hair above the bound; walk the
    # scale down by ulps so a second clip is exactly the identity.
    while math.prod(_norm_parts(clipped)) > max_norm:
        scale = np.nextafter(scale, 0.0)
        clipped = g * scale
    return clipped


def global_norm_clip(g: np.ndarray, max_norm: float) -> np.ndarray:
    """Rescale ``g`` so its global L2 norm is at most ``max_norm``.

    Vectors already within the bound are returned unchanged, which makes the
    operation idempotent bit-for-bit. Non-finite inputs signal divergence. A
    finite ``g`` whose squared norm overflows is measured as ``g / max|g|``.
    ``max_norm`` must be a finite number above 0, else a ``ValueError``.
    Rows of an array whose :func:`row_norms` are known take
    :func:`clip_rows`, which gives each row these bits.
    """
    max_norm = _bound(max_norm)
    norm, peak = _norm_parts(g)
    if norm * peak <= max_norm:
        return g
    return _rescaled(g, max_norm, norm, peak)


def clip_rows(rows: np.ndarray, max_norm: float, norms: list) -> None:
    """Clip each row of ``rows`` in place to ``global_norm_clip(row,
    max_norm)``, given ``norms``, the rows' :func:`row_norms` (taken once,
    for a check as well).

    Only the rows above the bound are touched. A finite norm is the one
    :func:`global_norm_clip` measures, so such a row gets its scale and ulp
    walk; a row whose square sum overflows (or holds a non-finite value,
    a :class:`DivergenceError`) takes :func:`global_norm_clip` itself.
    """
    max_norm = _bound(max_norm)
    for i, norm in enumerate(norms):
        if not norm <= max_norm:
            row = rows[i]
            row[...] = (_rescaled(row, max_norm, norm, 1.0) if math.isfinite(norm)
                        else global_norm_clip(row, max_norm))


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent stream for (seed, key), for a one-off stream such as a
    teacher, an init, or a held-out or eval batch (a family of training
    steps takes :class:`StepStreams`); the same (seed, key) gives the same
    stream anywhere."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=key))
    )


# SeedSequence's constants (numpy.random.bit_generator): ``hashmix`` (A),
# ``mix`` (L, R) and ``generate_state`` (B), on a pool of four 32-bit words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list:
    """``n`` (any integer, read with ``operator.index``) as SeedSequence
    splits it: its 32-bit words, low first."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"a stream key must be non-negative, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(value: int, hash_const: int, mult: int) -> tuple[int, int]:
    """SeedSequence's ``hashmix`` (``mult`` is ``_MULT_A``, or ``_MULT_B``
    in ``generate_state``): the hashed value and the next constant."""
    value ^= hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


class StepStreams:
    """The streams ``spawn_rng(seed, *prefix, t)`` of every ``t``, bit for
    bit, from one ``Philox`` that :meth:`rng` re-keys.

    ``SeedSequence(seed, spawn_key=(*prefix, t))`` mixes the words of
    ``seed`` and ``prefix`` into a pool of four words, then each word of
    ``t`` into every pool word, and ``Philox`` takes its key from the pool.
    numpy's ``SeedSequence(seed, spawn_key=prefix)`` gives the pool of the
    first part once; here a stream costs only the mixing of ``t``'s words
    and ``generate_state``, not a ``SeedSequence`` and a ``Philox``. The
    generator :meth:`rng` returns is the same object for every ``t``: draw
    from it before the next call.
    """

    def __init__(self, seed: int, *prefix: int):
        # Read first: a negative key keeps this module's error, and numpy
        # would take a ``None`` seed as fresh entropy from the OS.
        width = max(4, len(_words(seed))) + sum(len(_words(k)) for k in prefix)
        # ``tolist``: Python ints, which do not wrap in the mixing below.
        self._pool = np.random.SeedSequence(seed, spawn_key=prefix).pool.tolist()
        # numpy's mixing calls ``hashmix`` four times per entropy word.
        self._hash = _INIT_A * pow(_MULT_A, 4 * width, 1 << 32) & _MASK32
        self._rng = np.random.Generator(np.random.Philox(key=0))
        self._state = self._rng.bit_generator.state

    def key(self, t: int) -> tuple[int, int]:
        """The Philox key of stream ``t``: ``generate_state(2, np.uint64)``."""
        pool, hash_const = self._pool.copy(), self._hash
        for word in _words(t):
            for i in range(4):
                value, hash_const = _hashmix(word, hash_const, _MULT_A)
                mixed = (_MIX_L * pool[i] - _MIX_R * value) & _MASK32
                pool[i] = mixed ^ mixed >> 16
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
