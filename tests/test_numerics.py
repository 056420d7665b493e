import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emx.numerics import (
    DOT_CHUNK,
    DivergenceError,
    StepStreams,
    clip_rows,
    finite_rows,
    global_norm_clip,
    l2_norm,
    row_norms,
    spawn_rng,
)

# values whose squares overflow, underflow, propagate or keep a sign of zero
HOSTILE = st.sampled_from([np.inf, -np.inf, np.nan, -0.0, 1e160, 1e200, 1e-300])
ENTRIES = st.one_of(st.floats(-10.0, 10.0), HOSTILE)


class TestGlobalNormClip:
    def test_below_threshold_unchanged(self):
        g = np.array([3.0, 4.0])
        out = global_norm_clip(g, 10.0)
        assert out is g

    def test_rescaled_to_unit(self):
        out = global_norm_clip(np.array([3.0, 4.0]), 1.0)
        np.testing.assert_allclose(out, [0.6, 0.8], rtol=1e-14)
        assert l2_norm(out) <= 1.0 + 1e-12

    def test_zero_vector_fixed_point(self):
        out = global_norm_clip(np.zeros(2), 0.5)
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_nonfinite_is_divergence(self):
        for g in ([1.0, np.inf], [np.nan], [np.inf, -np.inf], [1e200, np.nan]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # raised before any inf / inf
                with pytest.raises(DivergenceError):
                    global_norm_clip(np.array(g), 1.0)

    def test_bad_max_norm(self):
        for max_norm in (0.0, -1.0, -0.0, np.nan, np.inf, -np.inf, True, False, "1", None, [1.0]):
            with pytest.raises(ValueError, match="max_norm"):
                global_norm_clip(np.ones(2), max_norm)

    @given(
        arrays(np.float64, 8, elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)),
        st.floats(min_value=1e-6, max_value=1e3),
    )
    @settings(max_examples=200)
    def test_idempotent_bitwise(self, g, max_norm):
        once = global_norm_clip(g, max_norm)
        twice = global_norm_clip(once, max_norm)
        assert once.tobytes() == twice.tobytes()
        assert l2_norm(once) <= max_norm + 1e-12


class TestClipOverflow:
    """A finite gradient whose squared norm overflows is clipped, not zeroed."""

    @pytest.mark.parametrize(
        "g,max_norm",
        [
            ([1e200, -2e200], 1.0),
            ([1.7e308, 1.7e308], 1.0),
            ([1.7e308, -1.7e308, 1.0], 1e308),
            ([1e160, 1e160], 1e155),
            ([1e300, 0.0, -1e300], 1e200),
        ],
    )
    def test_direction_kept_and_norm_bounded(self, g, max_norm):
        g = np.array(g)
        with np.errstate(over="ignore"):
            out = global_norm_clip(g, max_norm)
            assert global_norm_clip(out, max_norm) is out  # a second clip is the identity
        peak = np.max(np.abs(g))
        np.testing.assert_allclose(out / max_norm, g / peak / l2_norm(g / peak), rtol=1e-14)
        assert l2_norm(out / max_norm) <= 1.0 + 1e-15

    @pytest.mark.parametrize(
        "g,max_norm", [([1e200, -2e200], 1.0), ([1.7e308, -1.7e308, 1.0], 1e308)]
    )
    def test_no_overflow_warning(self, g, max_norm):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = global_norm_clip(np.array(g), max_norm)
            assert global_norm_clip(out, max_norm) is out

    def test_hand_value(self):
        with np.errstate(over="ignore"):
            out = global_norm_clip(np.array([1e200, -2e200]), 1.0)
        np.testing.assert_allclose(out, [1 / np.sqrt(5), -2 / np.sqrt(5)], rtol=1e-15)

    @given(
        arrays(np.float64, 4, elements=st.floats(min_value=-1e308, max_value=1e308)),
        st.floats(min_value=1e-6, max_value=1e300),
    )
    @settings(max_examples=200)
    def test_idempotent_at_any_magnitude(self, g, max_norm):
        with np.errstate(over="ignore"):
            once = global_norm_clip(g, max_norm)
            assert global_norm_clip(once, max_norm).tobytes() == once.tobytes()
        i = np.argmax(np.abs(g))  # the largest entry is never clipped to zero
        assert np.sign(once[i]) == np.sign(g[i])


class TestL2Norm:
    def test_three_four_five(self):
        assert l2_norm(np.array([3.0, 4.0])) == 5.0

    def test_empty_vector(self):
        assert l2_norm(np.array([])) == 0.0

    def test_ones(self):
        assert l2_norm(np.ones(4)) == 2.0


class TestRowNorms:
    """One ``vecdot`` over the rows gives each row the bits of ``l2_norm``."""

    @given(
        st.integers(1, 8),
        st.integers(0, 64),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_bits_of_l2_norm_on_each_row(self, k, dim, strided, data):
        shape = (k, 2 * dim) if strided else (k, dim)
        a = data.draw(arrays(np.float64, shape, elements=ENTRIES), label="rows")
        rows = a[:, ::2] if strided else a
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow stays a quiet inf
            norms = row_norms(rows)
            assert np.array(norms).tobytes() == np.array([l2_norm(r) for r in rows]).tobytes()
        assert all(type(n) is float for n in norms)

    @pytest.mark.parametrize("strided", [False, True])
    def test_rows_wider_than_a_threaded_ddot(self, strided):
        # OpenBLAS threads a ddot above 10000 elements
        a = spawn_rng(8).standard_normal((3, 2 * 10007 if strided else 10007)) * 1e150
        a[1, 4] = 1e200
        a[2, -2] = np.nan
        rows = a[:, ::2] if strided else a
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = row_norms(rows)
        assert np.array(norms).tobytes() == np.array([l2_norm(r) for r in rows]).tobytes()
        assert norms[1] == np.inf and np.isnan(norms[2])

    @pytest.mark.parametrize("n", [1, DOT_CHUNK - 1, DOT_CHUNK])
    def test_one_chunk_is_one_ddot(self, n):
        # below OpenBLAS's 10000-element threading cutoff, with the bits the norms always had
        assert DOT_CHUNK <= 10000
        x = spawn_rng(n).standard_normal(n)
        assert l2_norm(x) == math.sqrt(np.vdot(x, x)) == row_norms(x[np.newaxis])[0]

    @pytest.mark.parametrize("n", [DOT_CHUNK + 1, 2 * DOT_CHUNK, 3 * DOT_CHUNK + 5])
    def test_chunks_sum_in_order(self, n):
        rows = spawn_rng(n).standard_normal((2, n))
        rows[1, -1] = 1e200  # the last chunk overflows, quietly
        square = 0.0
        for lo in range(0, n, DOT_CHUNK):
            square += np.vdot(rows[0, lo : lo + DOT_CHUNK], rows[0, lo : lo + DOT_CHUNK])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = row_norms(rows)
            assert norms == [l2_norm(rows[0]), l2_norm(rows[1])] == [math.sqrt(square), np.inf]


    @given(
        st.integers(1, 3),
        st.integers(0, 4),
        st.one_of(st.integers(0, 40), st.sampled_from(
            [DOT_CHUNK - 1, DOT_CHUNK, DOT_CHUNK + 1, 2 * DOT_CHUNK + 3])),
        st.booleans(),
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.integers(0, 2**32 - 1), HOSTILE), max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_stack_has_the_bits_of_its_arrays(self, s, k, dim, strided, seed, hostile):
        a = spawn_rng(seed).standard_normal((s, k, 2 * dim if strided else dim))
        for at, value in hostile:
            if a.size:
                a.flat[at % a.size] = value
        stack = a[..., ::2] if strided else a
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = row_norms(stack)
            alone = [row_norms(rows) for rows in stack]
        assert [len(n) for n in norms] == [k] * s
        assert all(type(n) is float for rows in norms for n in rows)
        assert np.array(norms).tobytes() == np.array(alone).tobytes()


def _shapes(k):
    """The shapes of one call's arrays: all 1-D, or ``(k, 1)`` and ``(k, dim)`` rows."""
    rows = st.one_of(st.just((k, 1)), st.integers(0, 16).map(lambda dim: (k, dim)))
    return st.one_of(st.lists(st.integers(0, 16).map(lambda dim: (dim,)), min_size=1, max_size=4),
                     st.lists(rows, min_size=1, max_size=4))


class TestFiniteRows:
    """The ``ddot`` fast path against per-value masks."""

    @given(st.integers(1, 6).flatmap(_shapes), st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_exact_reference(self, shapes, data):
        arrays_ = [data.draw(arrays(np.float64, shape, elements=ENTRIES)) for shape in shapes]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ok = finite_rows(*arrays_)
        if all(np.isfinite(a).all() for a in arrays_):
            assert ok is None
        else:
            want = np.logical_and.reduce([np.isfinite(a).all(axis=-1) for a in arrays_])
            assert ok is not None and np.array_equal(ok, want) and np.shape(ok) == np.shape(want)

    def test_overflowed_square_sums_are_finite_rows(self):
        assert finite_rows(np.array([1e160, -1e200])) is None
        assert finite_rows(np.full((3, 4), 1e160), np.array([[1e200], [-1e300], [0.0]])) is None
        ok = finite_rows(np.full((3, 4), 1e160), np.array([[1e200], [np.nan], [0.0]]))
        assert ok.tolist() == [True, False, True]


class TestFiniteRowsOfABlock:
    """A ``(S, K, dim)`` slot block passed as one array gives the masks of
    its ``S`` slots passed one by one."""

    @given(
        st.integers(0, 4),
        st.integers(1, 3),
        st.sampled_from([0, 1, 5, 64, DOT_CHUNK - 1, DOT_CHUNK, DOT_CHUNK + 1]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.integers(0, 2**32 - 1), HOSTILE), max_size=4),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_a_block_gives_the_masks_of_its_slots(self, s, k, dim, one_d, seed, hostile):
        shape = (dim,) if one_d else (k, dim)
        values = spawn_rng(seed).standard_normal(int(np.prod(shape)) * (s + 1))
        for at, value in hostile:  # in the new theta or in any slot and row
            if values.size:
                values[at % values.size] = value
        new, block = values[: values.size // (s + 1)].reshape(shape), values[
            values.size // (s + 1) :].reshape(s, *shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflowed square sum is quiet
            ok = finite_rows(new, block)
            per_slot = finite_rows(new, *block)
        want = np.logical_and.reduce([np.isfinite(a).all(axis=-1) for a in (new, *block)])
        if np.all(want):
            assert ok is None and per_slot is None
        else:
            assert np.shape(ok) == np.shape(want) == np.shape(per_slot)
            assert np.array_equal(ok, want) and np.array_equal(per_slot, want)

    def test_overflowed_square_sums_of_a_wide_block_keep_every_row(self):
        block = np.full((3, 2, DOT_CHUNK + 1), 1e160)
        block[1, 0, -1] = -1e300
        assert finite_rows(np.zeros((2, DOT_CHUNK + 1)), block) is None
        block[2, 1, DOT_CHUNK] = np.nan  # the second chunk of the last slot's second row
        assert finite_rows(np.zeros((2, DOT_CHUNK + 1)), block).tolist() == [True, False]


def _walk_rows(dim, max_norm, n):
    """``n`` seeded rows whose first scale, ``max_norm / norm``, leaves the
    recomputed norm above ``max_norm``, so that the clip walks it down."""
    rng, found = spawn_rng(dim, n), []
    while len(found) < n:
        row = rng.standard_normal(dim) * 3.0
        if l2_norm(row * (max_norm / l2_norm(row))) > max_norm:
            found.append(row)
    return np.array(found)


class TestClipRows:
    """Norms taken once by ``row_norms`` clip each row to the bits of
    ``global_norm_clip`` on that row."""

    @staticmethod
    def clipped_alone(rows, max_norm):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.array([global_norm_clip(row, max_norm) for row in rows]).reshape(rows.shape)

    @staticmethod
    def clipped_together(rows, max_norm):
        out = rows.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # overflowed norms stay quiet
            clip_rows(out, max_norm, row_norms(out))
        return out

    @given(
        st.integers(1, 6),
        st.sampled_from([1, 2, 7, 64, DOT_CHUNK + 1]),
        st.lists(st.sampled_from(["normal", "zero", "tiny", "huge", "overflow"]),
                 min_size=6, max_size=6),
        st.one_of(st.none(), st.integers(0, 5)),
        st.floats(1e-3, 1e3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_each_row_gets_the_bits_of_global_norm_clip(self, k, dim, kinds, at_bound,
                                                         max_norm, seed):
        rng = spawn_rng(seed)
        scales = {"normal": 1.0, "zero": 0.0, "tiny": 1e-200, "huge": 1e100, "overflow": 1e200}
        rows = np.array([rng.standard_normal(dim) * scales[kind] for kind in kinds[:k]])
        if at_bound is not None and at_bound < k and 0.0 < l2_norm(rows[at_bound]) < math.inf:
            max_norm = l2_norm(rows[at_bound])  # that row is exactly at the bound
        out = self.clipped_together(rows, max_norm)
        assert out.tobytes() == self.clipped_alone(rows, max_norm).tobytes()

    @pytest.mark.parametrize("dim", [3, 64, 5313])
    def test_rows_that_need_the_ulp_walk(self, dim):
        rows = _walk_rows(dim, 0.5, 3)
        rows = np.concatenate([rows, np.zeros((1, dim)), rows[:1] * 1e200, rows[:1] * 1e-3])
        out = self.clipped_together(rows, 0.5)
        assert out.tobytes() == self.clipped_alone(rows, 0.5).tobytes()
        for row in out[:3]:
            assert global_norm_clip(row, 0.5) is row  # the walk left it at the bound
            assert l2_norm(row) <= 0.5

    def test_rows_within_the_bound_are_not_written(self):
        rows = np.array([[3.0, 4.0], [0.3, 0.4], [0.0, 0.0]])
        rows.flags.writeable = False  # a write to any row would raise
        clip_rows(rows, 5.0, row_norms(rows))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_row_is_divergence(self, bad):
        rows = np.ones((2, 3))
        rows[1, 2] = bad
        with pytest.raises(DivergenceError):
            clip_rows(rows, 1.0, row_norms(rows))

    @pytest.mark.parametrize("max_norm", [0.0, -1.0, np.nan, np.inf, True, "1", None])
    def test_a_bad_bound_is_refused(self, max_norm):
        with pytest.raises(ValueError, match="max_norm"):
            clip_rows(np.ones((2, 2)), max_norm, [2.0, 2.0])


class TestRng:
    def test_same_seed_same_stream(self):
        a = spawn_rng(1234).standard_normal(10_000)
        b = spawn_rng(1234).standard_normal(10_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = spawn_rng(1).standard_normal(100)
        b = spawn_rng(2).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_spawned_streams_are_deterministic_and_distinct(self):
        a1 = spawn_rng(7, 0, 3).standard_normal(64)
        a2 = spawn_rng(7, 0, 3).standard_normal(64)
        b = spawn_rng(7, 0, 4).standard_normal(64)
        c = spawn_rng(7, 1, 3).standard_normal(64)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)
        assert not np.array_equal(a1, c)


class TestStepStreams:
    STEPS = [*range(301), np.int64(7), 2**31, 2**32 - 1, 2**32, 2**40 + 7]

    # a prefix of ``()``, a long prefix word and a seed of seven words pin
    # how many hashes numpy's mixing of (seed, prefix) takes
    @pytest.mark.parametrize("prefix", [(), (0,), (1, 2), (2**40,), (np.int64(3),)])
    @pytest.mark.parametrize(
        "seed",
        [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 9, 2**200 + 1,
         np.int64(5), np.uint32(9), np.uint64(2**63 + 5)],
    )
    def test_key_is_the_seed_sequence_key(self, seed, prefix):
        streams = StepStreams(seed, *prefix)
        for t in self.STEPS:
            want = np.random.SeedSequence(seed, spawn_key=(*prefix, t)).generate_state(2, np.uint64)
            assert streams.key(t) == tuple(want.tolist()), t

    @pytest.mark.parametrize(
        "seed, prefix",
        [(2**64 + 3, (1, 2)), (np.int64(5), (0,)), (np.uint32(9), (np.int64(3),))],
    )
    def test_rekeyed_draws_are_spawn_rngs(self, seed, prefix):
        streams = StepStreams(seed, *prefix)
        for t in (0, 5, 2**32 + 1, np.int64(7), 5):
            rng = streams.rng(t)
            want = spawn_rng(seed, *prefix, t)
            assert rng.standard_normal(9).tobytes() == want.standard_normal(9).tobytes()
            assert rng.random(5).tobytes() == want.random(5).tobytes()
            assert rng.integers(0, 2**40, 5).tolist() == want.integers(0, 2**40, 5).tolist()
            assert rng.standard_normal(3).tobytes() == want.standard_normal(3).tobytes()

    def test_a_negative_step_is_refused(self):
        with pytest.raises(ValueError, match="non-negative, got -1"):
            StepStreams(3, 0).key(-1)

    @pytest.mark.parametrize("seed", [None, 1.5, [1, 2]])
    def test_a_seed_that_is_not_an_integer_is_refused(self, seed):
        with pytest.raises(TypeError):
            StepStreams(seed, 0)
