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
