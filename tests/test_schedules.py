import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emx.schedules import (
    ConstantSchedule,
    HalfLifeLinearWarmup,
    LinearWarmup,
    WarmupConstantLinearDecay,
    WarmupCosineDecay,
    decay,
    finite_number,
    integer,
    t_half,
    t_half_inverse,
    typed,
)

# below 0.5 the most recent gradient alone already carries half the mass and
# the half-life goes negative, outside the inverse's domain
betas = st.floats(min_value=0.5, max_value=0.999999)


class TestReaders:
    @pytest.mark.parametrize("value", [0, 7, np.int64(7), np.int32(0), 10**30])
    def test_integer_takes_python_and_numpy_ints(self, value):
        assert integer("k", value) == value and type(integer("k", value)) is int

    @pytest.mark.parametrize("value", [True, False, np.True_, 3.0, "3", None, [3], -1])
    def test_integer_refuses_the_rest(self, value):
        with pytest.raises(ValueError, match=r"^k must be >= 0 \(an integer\), got "):
            integer("k", value)

    def test_integer_bounds(self):
        assert integer("k", 1, 1) == 1 and integer("k", 5, 0, 5) == 5
        for value, low, high in [(0, 1, None), (6, 0, 5), (-1, 0, 5)]:
            with pytest.raises(ValueError, match="^k must be "):
                integer("k", value, low, high)
        with pytest.raises(ValueError, match=r"^k must be in \[0, 5\] \(an integer\), got 6$"):
            integer("k", 6, 0, 5)

    @pytest.mark.parametrize("value", [0, 0.0, 0.5, np.float64(0.999), np.float32(0.5)])
    def test_decay_takes_zero_up_to_one(self, value):
        assert decay("b", value) == float(value) and type(decay("b", value)) is float

    @pytest.mark.parametrize("value", [1.0, 1, -0.1, 1.5, float("nan"), float("inf"), True, False,
                                       "0.5", None])
    def test_decay_refuses_the_rest(self, value):
        with pytest.raises(ValueError, match="^b must be "):
            decay("b", value)


class TestTyped:
    """``typed`` reads a value like its default; nothing else reaches a caller."""

    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0), np.float32(3.0)])
    def test_int_default_takes_a_whole_number(self, value):
        assert typed("k", value, 0) == 3 and type(typed("k", value, 0)) is int

    def test_int_default_keeps_a_large_int_exact(self):
        assert typed("k", 2**60 + 1, 0) == 2**60 + 1

    @pytest.mark.parametrize("value", [3.5, math.nan, math.inf, True, np.True_, "3", None, [3],
                                       pytest.param(10**400, id="10**400"),
                                       pytest.param(-(10**400), id="-10**400")])
    def test_int_default_refuses_the_rest(self, value):
        with pytest.raises(ValueError, match="^k must be a whole number of steps, got "):
            typed("k", value, 0)

    @pytest.mark.parametrize("default", [0.0, None])
    @pytest.mark.parametrize("value", [math.nan, -math.inf, True, "0.5", [0.5],
                                       pytest.param(10**400, id="10**400"),
                                       pytest.param(-(10**400), id="-10**400"), np.float64("inf")])
    def test_float_default_refuses_non_numbers(self, default, value):
        with pytest.raises(ValueError, match="^k must be a finite number, got "):
            typed("k", value, default)

    def test_none_stays_only_where_it_is_the_default(self):
        assert typed("k", None, None) is None
        assert typed("k", 1, None) == 1.0 and type(typed("k", 1, None)) is float
        with pytest.raises(ValueError, match="^k must be a finite number"):
            typed("k", None, 0.0)

    @pytest.mark.parametrize("value,expected", [([0.5, 1], (0.5, 1.0)), ((0.5,), (0.5,)),
                                                (0.5, (0.5,)), (np.float32(0.5), (0.5,))])
    def test_tuple_default_takes_finite_numbers(self, value, expected):
        got = typed("k", value, (0.0,))
        assert got == expected and all(type(v) is float for v in got)

    @pytest.mark.parametrize("value", [pytest.param([0.5, 10**400], id="[0.5, 10**400]"),
                                       "0.5,0.9", None, [0.5, None], True])
    def test_tuple_default_refuses_the_rest(self, value):
        with pytest.raises(ValueError, match="^k must be a finite number"):
            typed("k", value, (0.0,))

    @pytest.mark.parametrize("value", [np.float32(1e38), np.float16(6e4), np.float32("nan"),
                                       np.float16("inf"), np.int64(2**62),
                                       pytest.param(10**400, id="10**400")])
    def test_numpy_and_huge_values_warn_nothing(self, value):
        # a range check by comparison would cast float max to float32 and warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for default in (0, 0.0, (0.0,)):
                try:
                    typed("k", value, default)
                except ValueError:
                    pass

    @pytest.mark.parametrize("reader", [finite_number, decay])
    def test_an_int_beyond_the_float_range_is_a_value_error(self, reader):
        with pytest.raises(ValueError, match="^b must be a finite number, got 1000"):
            reader("b", 10**400)


class TestTHalf:
    def test_reference_values(self):
        assert 5.57 <= t_half(0.9) <= 5.58
        assert 6930 <= t_half(0.9999) <= 6931

    def test_small_decay_increment_adds_77(self):
        assert 76.5 <= t_half(0.9991) - t_half(0.999) <= 77.5

    def test_inverse_at_zero(self):
        assert t_half_inverse(0.0) == 0.5

    def test_roundtrip(self):
        assert t_half_inverse(t_half(0.9)) == pytest.approx(0.9, abs=1e-12)
        assert t_half_inverse(6930.125226233421) == pytest.approx(0.9999, abs=1e-8)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                t_half(bad)
        with pytest.raises(ValueError):
            t_half_inverse(-1.0)

    @given(betas)
    def test_roundtrip_property(self, beta):
        assert t_half(t_half_inverse(t_half(beta))) == pytest.approx(
            t_half(beta), rel=1e-10
        )


class TestLinearWarmup:
    def test_midpoint(self):
        assert LinearWarmup(final=10.0, horizon=256000).at(128000) == 5.0

    def test_clamped(self):
        assert LinearWarmup(final=10.0, horizon=256000).at(400000) == 10.0

    def test_zero_horizon_is_constant(self):
        assert LinearWarmup(final=8.0, horizon=0).at(1) == 8.0

    @pytest.mark.parametrize("final,horizon,match", [(-1.0, 10, "final value must be >= 0"),
                                                     (1.0, -1, "horizon must be >= 0")])
    def test_validation(self, final, horizon, match):
        with pytest.raises(ValueError, match=match):
            LinearWarmup(final=final, horizon=horizon)

    @given(st.floats(min_value=0.0, max_value=100.0), st.integers(min_value=0, max_value=10000))
    @settings(max_examples=50)
    def test_nondecreasing(self, final, horizon):
        sched = LinearWarmup(final=final, horizon=horizon)
        values = [sched.at(t) for t in range(1, 50)]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestHalfLifeLinearWarmup:
    def test_endpoints_exact(self):
        sched = HalfLifeLinearWarmup(final=0.9999, start=0.9, horizon=100)
        assert abs(sched.at(0) - 0.9) <= 1e-12
        assert abs(sched.at(100) - 0.9999) <= 1e-12
        assert sched.at(250) == 0.9999

    def test_zero_horizon_is_constant(self):
        sched = HalfLifeLinearWarmup(final=0.9999, start=0.9, horizon=0)
        assert sched.at(1) == 0.9999

    def test_midpoint_matches_half_life_average(self):
        # independent oracle: average the endpoint half-lives, then invert
        sched = HalfLifeLinearWarmup(final=0.9999, start=0.9, horizon=100)
        expected = t_half_inverse((t_half(0.9) + t_half(0.9999)) / 2.0)
        assert sched.at(50) == pytest.approx(expected, rel=1e-12)

    def test_half_life_grows_linearly(self):
        horizon = 50000
        sched = HalfLifeLinearWarmup(final=0.9999, start=0.9, horizon=horizon)
        h0, h1 = t_half(0.9), t_half(0.9999)
        for k in range(201):
            t = k * horizon // 200
            expected = (1.0 - t / horizon) * h0 + (t / horizon) * h1
            got = t_half(sched.at(t)) if t < horizon else h1
            assert got == pytest.approx(expected, rel=1e-9)

    def test_dominates_linear_ramp_early(self):
        horizon = 10000
        sched = HalfLifeLinearWarmup(final=0.9999, start=0.9, horizon=horizon)
        for t in range(1, horizon // 10 + 1, 50):
            linear = 0.9 + (t / horizon) * (0.9999 - 0.9)
            assert sched.at(t) >= linear

    @given(
        st.floats(min_value=0.5, max_value=0.99),
        st.floats(min_value=0.991, max_value=0.99999),
        st.integers(min_value=1, max_value=5000),
    )
    @settings(max_examples=50)
    def test_nondecreasing(self, start, final, horizon):
        sched = HalfLifeLinearWarmup(final=final, start=start, horizon=horizon)
        ts = range(0, horizon + 10, max(1, horizon // 37))
        values = [sched.at(t) for t in ts]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            HalfLifeLinearWarmup(final=1.0, start=0.9, horizon=10)
        with pytest.raises(ValueError):
            HalfLifeLinearWarmup(final=0.99, start=0.0, horizon=10)


class TestWarmupCosineDecay:
    def test_warmup_endpoint(self):
        sched = WarmupCosineDecay(eta_max=1e-3, eta_min=1e-5, warmup=3000, total=10000)
        assert sched.at(3000) == 1e-3

    def test_decay_endpoint_is_floor(self):
        sched = WarmupCosineDecay(eta_max=1e-3, eta_min=1e-5, warmup=3000, total=10000)
        assert sched.at(10000) == 1e-5
        assert sched.at(20000) == 1e-5

    def test_continuous_at_junction(self):
        sched = WarmupCosineDecay(eta_max=1e-3, eta_min=1e-5, warmup=3000, total=10000)
        assert abs(sched.at(3001) - sched.at(3000)) < 1e-6
        # evaluate the cosine branch exactly at the junction point
        cosine_at_warmup = 1e-5 + 0.5 * (1e-3 - 1e-5) * (1 + math.cos(0.0))
        assert abs(cosine_at_warmup - sched.at(3000)) <= 1e-12

    def test_monotone_decay_phase(self):
        sched = WarmupCosineDecay(eta_max=1e-3, eta_min=1e-5, warmup=100, total=1000)
        values = [sched.at(t) for t in range(100, 1001)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            WarmupCosineDecay(eta_max=1.0, eta_min=0.0, warmup=100, total=50)


class TestWarmupConstantLinearDecay:
    def test_plateau(self):
        sched = WarmupConstantLinearDecay(
            eta_max=1e-4, eta_min=1e-5, warmup=3000, decay_start=1_000_000, decay_end=1_300_000
        )
        assert sched.at(500_000) == 1e-4

    def test_linear_decay_midpoint(self):
        sched = WarmupConstantLinearDecay(
            eta_max=1.0, eta_min=0.0, warmup=0, decay_start=100, decay_end=200
        )
        assert sched.at(150) == pytest.approx(0.5)
        assert sched.at(200) == 0.0
        assert sched.at(500) == 0.0

    def test_warmup_ramp(self):
        sched = WarmupConstantLinearDecay(
            eta_max=1.0, eta_min=0.0, warmup=10, decay_start=50, decay_end=60
        )
        assert sched.at(5) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError, match="warmup <= decay_start <= decay_end"):
            WarmupConstantLinearDecay(eta_max=1.0, eta_min=0.0, warmup=0, decay_start=60,
                                      decay_end=50)


class TestConstantSchedule:
    def test_constant(self):
        sched = ConstantSchedule(0.25)
        assert sched.at(1) == 0.25
        assert sched.at(10**9) == 0.25
