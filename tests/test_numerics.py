import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emx.numerics import (
    DivergenceError,
    global_norm_clip,
    l2_norm,
    make_rng,
    spawn_rng,
)

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
        with pytest.raises(DivergenceError):
            global_norm_clip(np.array([1.0, np.inf]), 1.0)
        with pytest.raises(DivergenceError):
            global_norm_clip(np.array([np.nan]), 1.0)

    def test_bad_max_norm(self):
        with pytest.raises(ValueError):
            global_norm_clip(np.ones(2), 0.0)

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


class TestL2Norm:
    def test_three_four_five(self):
        assert l2_norm(np.array([3.0, 4.0])) == 5.0

    def test_empty_vector(self):
        assert l2_norm(np.array([])) == 0.0

    def test_ones(self):
        assert l2_norm(np.ones(4)) == 2.0


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(1234).standard_normal(10_000)
        b = make_rng(1234).standard_normal(10_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).standard_normal(100)
        b = make_rng(2).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_spawned_streams_are_deterministic_and_distinct(self):
        a1 = spawn_rng(7, 0, 3).standard_normal(64)
        a2 = spawn_rng(7, 0, 3).standard_normal(64)
        b = spawn_rng(7, 0, 4).standard_normal(64)
        c = spawn_rng(7, 1, 3).standard_normal(64)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)
        assert not np.array_equal(a1, c)
