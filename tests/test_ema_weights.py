import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emx.ema_weights import (
    MAX_HORIZON,
    PROFILES,
    dema_weights,
    ema_weights,
    mixture_weights,
    nested_ema_weights,
)
from emx.optimizers import AdamW, AdEMAMix


def unroll_single(beta, horizon):
    """Brute-force oracle: run the EMA recurrence on a one-hot stream.

    Feeding an impulse at t=0, the EMA value k steps later is the weight the
    average gives a gradient of age k.
    """
    weights = np.zeros(horizon + 1)
    m = 0.0
    for k in range(horizon + 1):
        g = 1.0 if k == 0 else 0.0
        m = beta * m + (1.0 - beta) * g
        weights[k] = m
    return weights


def unroll_nested(beta_inner, beta_outer, horizon):
    """Oracle for nested EMAs: chain two recurrences on the impulse."""
    weights = np.zeros(horizon + 1)
    inner = 0.0
    outer = 0.0
    for k in range(horizon + 1):
        g = 1.0 if k == 0 else 0.0
        inner = beta_inner * inner + (1.0 - beta_inner) * g
        outer = beta_outer * outer + (1.0 - beta_outer) * inner
        weights[k] = outer
    return weights


class TestEmaWeights:
    def test_most_recent_weight(self):
        assert ema_weights(0.9, 10)[0] == pytest.approx(0.1, abs=1e-15)

    def test_no_memory(self):
        np.testing.assert_array_equal(ema_weights(0.0, 5), [1, 0, 0, 0, 0, 0])

    def test_half_mass_index_for_slow_decay(self):
        w = ema_weights(0.9999, 10000)
        cumulative = np.cumsum(w)
        crossing = int(np.searchsorted(cumulative, 0.5))
        assert abs(crossing - 6930) <= 1

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 0.999, 0.9999])
    @pytest.mark.parametrize("horizon", [0, 10, 1000])
    def test_matches_recurrence_oracle(self, beta, horizon):
        np.testing.assert_allclose(
            ema_weights(beta, horizon), unroll_single(beta, horizon), rtol=0, atol=1e-14
        )

    def test_geometric_sum_identity(self):
        for beta in (0.3, 0.9, 0.9999):
            for horizon in (10, 1000, 10000):
                total = ema_weights(beta, horizon).sum()
                assert total == pytest.approx(1.0 - beta ** (horizon + 1), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ema_weights(1.0, 10)
        with pytest.raises(ValueError):
            ema_weights(0.5, -1)


class TestMixtureWeights:
    def test_alpha_zero_is_single_ema(self):
        np.testing.assert_array_equal(
            mixture_weights(0.9, 0.9999, 0.0, 100), ema_weights(0.9, 100)
        )

    def test_equal_decays_unit_alpha_doubles(self):
        np.testing.assert_allclose(
            mixture_weights(0.9, 0.9, 1.0, 50), 2.0 * ema_weights(0.9, 50), rtol=1e-15
        )

    def test_covers_both_ends_of_the_past(self):
        # a single decay cannot put large weight on both the immediate past
        # and on very old gradients; the mixture does
        w = mixture_weights(0.9, 0.9999, 5.0, 10000)
        assert w[0] > ema_weights(0.9999, 10000)[0]
        assert w[6000] > 10.0 * ema_weights(0.9, 10000)[6000]

    @given(st.floats(min_value=0.0, max_value=20.0), st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=30)
    def test_monotone_in_alpha(self, a1, a2):
        lo, hi = sorted((a1, a2))
        w_lo = mixture_weights(0.9, 0.9999, lo, 200)
        w_hi = mixture_weights(0.9, 0.9999, hi, 200)
        assert np.all(w_hi >= w_lo)

    def test_normalized_scales_by_exact_total_mass(self):
        raw = mixture_weights(0.9, 0.9999, 5.0, 2000)
        norm = mixture_weights(0.9, 0.9999, 5.0, 2000, normalized=True)
        mass = (1 - 0.9**2001) + 5.0 * (1 - 0.9999**2001)
        np.testing.assert_allclose(norm * mass, raw, rtol=1e-12)


class TestNestedEmaWeights:
    def test_equal_decay_closed_form(self):
        beta = 0.9
        w = nested_ema_weights(beta, beta, 100)
        ages = np.arange(101)
        expected = (1 - beta) ** 2 * (ages + 1) * beta**ages
        np.testing.assert_allclose(w, expected, rtol=1e-12)
        assert w[0] == pytest.approx(0.01, abs=1e-15)
        assert w[0] < ema_weights(beta, 100)[0]

    def test_one_zero_decay_reduces_to_single(self):
        np.testing.assert_allclose(
            nested_ema_weights(0.0, 0.9, 50), ema_weights(0.9, 50), atol=1e-15
        )
        np.testing.assert_allclose(
            nested_ema_weights(0.9, 0.0, 50), ema_weights(0.9, 50), atol=1e-15
        )

    def test_peak_is_shifted_off_most_recent(self):
        w = nested_ema_weights(0.9, 0.9, 100)
        assert int(np.argmax(w)) > 0

    @pytest.mark.parametrize(
        "b_in,b_out,horizon",
        [(0.9, 0.9, 1000), (0.9, 0.99, 1000), (0.5, 0.9999, 1000), (0.9, 0.3, 500)],
    )
    def test_matches_chained_recurrence_oracle(self, b_in, b_out, horizon):
        np.testing.assert_allclose(
            nested_ema_weights(b_in, b_out, horizon),
            unroll_nested(b_in, b_out, horizon),
            rtol=0,
            atol=1e-14,
        )


class TestDemaWeights:
    def test_most_recent_weight_raised(self):
        beta = 0.9
        w = dema_weights(beta, 50, 100)
        assert w[0] == pytest.approx(2 * (1 - beta) - (1 - beta) ** 2, abs=1e-15)
        assert w[0] > (1 - beta)

    def test_zero_decay(self):
        w = dema_weights(0.0, 5, 10)
        np.testing.assert_array_equal(w, [1] + [0] * 10)

    def test_tail_below_single_ema(self):
        beta = 0.9
        w = dema_weights(beta, 100, 100)
        single = ema_weights(beta, 100)
        tail = slice(20, 101)
        assert np.all(w[tail] < single[tail])

    def test_can_go_negative(self):
        w = dema_weights(0.9, 10, 30)
        assert np.any(w < 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            dema_weights(0.9, 0, 10)


class TestProfiles:
    def test_a_shared_parameter_has_one_default(self):
        defaults = {}
        for profile in PROFILES.values():
            for name, param in inspect.signature(profile).parameters.items():
                assert param.default is not inspect.Parameter.empty, (profile, name)
                defaults.setdefault(name, set()).add(param.default)
        assert defaults["horizon"] == {10000} and defaults["beta"] == {0.9}
        assert all(len(values) == 1 for values in defaults.values()), defaults

    def test_dema_window_defaults_to_the_horizon(self):
        np.testing.assert_array_equal(dema_weights(0.8, horizon=40), dema_weights(0.8, 40, 40))

    @pytest.mark.parametrize("profile,kwargs,name", [
        (ema_weights, {"beta": 1.5}, "beta"),
        (mixture_weights, {"beta1": -0.1}, "beta1"),
        (mixture_weights, {"beta3": 1.5}, "beta3"),
        (mixture_weights, {"alpha": -1.0}, "alpha"),
        (mixture_weights, {"alpha": float("nan")}, "alpha"),
        (mixture_weights, {"alpha": float("inf")}, "alpha"),
        (mixture_weights, {"alpha": True}, "alpha"),
        (mixture_weights, {"alpha": "5"}, "alpha"),
        (nested_ema_weights, {"beta_inner": 1.5}, "beta_inner"),
        (nested_ema_weights, {"beta_outer": float("nan")}, "beta_outer"),
        (dema_weights, {"beta": 1.0}, "beta"),
        (dema_weights, {"window": 0}, "window"),
    ])
    def test_each_bad_parameter_is_named(self, profile, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            profile(**kwargs, horizon=10)

    @pytest.mark.parametrize("profile", list(PROFILES.values()))
    def test_horizon_bounds(self, profile):
        assert len(profile(horizon=0)) == 1
        for horizon in (-1, MAX_HORIZON + 1, 10**11):
            with pytest.raises(ValueError, match=f"^horizon must be in \\[0, {MAX_HORIZON}\\]"):
                profile(horizon=horizon)

    def test_slow_mixture_fits_under_the_limit(self):
        # beta3 = 0.99999 has a half-life near 69k steps; the limit must leave
        # room for nearly all of the slow EMA's mass
        w = mixture_weights(beta1=0.9, beta3=0.99999, alpha=1.0, horizon=MAX_HORIZON,
                            normalized=True)
        assert len(w) == MAX_HORIZON + 1
        assert w.sum() == pytest.approx(1.0) and 0.99999 ** MAX_HORIZON < 1e-4


class TestImpulseProbe:
    """The real optimizers, fed one-hot gradients at ``lr = 0``, hold the
    profiles in their buffers: coordinate ``k`` saw its only gradient
    ``T - 1 - k`` steps before the last one."""

    T = 300

    def _drive(self, opt):
        theta = np.zeros(self.T)
        for k in range(self.T):
            grad = np.zeros(self.T)
            grad[k] = 1.0
            theta = opt.step(theta, grad, 0.0)
        assert not theta.any()
        return opt

    @pytest.mark.parametrize("beta1,beta3,alpha", [(0.9, 0.9999, 5.0), (0.5, 0.99, 2.0)])
    def test_ademamix_numerator_is_the_mixture_profile(self, beta1, beta3, alpha):
        opt = self._drive(AdEMAMix(self.T, beta1=beta1, beta3=beta3, alpha=alpha))
        np.testing.assert_allclose(
            (opt.m1 + alpha * opt.m2)[::-1],
            mixture_weights(beta1, beta3, alpha, self.T - 1),
            rtol=0,
            atol=1e-15,
        )

    @pytest.mark.parametrize("beta1", [0.9, 0.5])
    def test_adamw_momentum_is_the_single_profile(self, beta1):
        opt = self._drive(AdamW(self.T, beta1=beta1))
        np.testing.assert_allclose(
            opt.m[::-1], ema_weights(beta1, self.T - 1), rtol=0, atol=1e-15
        )


class TestIntegerHorizons:
    @pytest.mark.parametrize("profile", list(PROFILES.values()))
    @pytest.mark.parametrize("horizon", [2.5, 3.0, True, False, "3", None])
    def test_non_integer_horizon_is_refused(self, profile, horizon):
        with pytest.raises(ValueError, match="^horizon must be"):
            profile(horizon=horizon)

    @pytest.mark.parametrize("window", [2.5, 3.0, True, "3"])
    def test_non_integer_window_is_refused(self, window):
        with pytest.raises(ValueError, match="^window must be"):
            dema_weights(0.9, window, 10)

    def test_fractional_and_bool_horizons_direct_calls(self):
        for call in (lambda: ema_weights(0.9, 2.5), lambda: ema_weights(0.9, True),
                     lambda: nested_ema_weights(0.9, 0.9, 2.5)):
            with pytest.raises(ValueError, match="horizon"):
                call()

    @pytest.mark.parametrize("profile", list(PROFILES.values()))
    def test_numpy_integers_accepted(self, profile):
        np.testing.assert_array_equal(profile(horizon=np.int64(7)), profile(horizon=7))
        np.testing.assert_array_equal(profile(horizon=np.int32(7)), profile(horizon=7))

    def test_numpy_integer_window_accepted(self):
        np.testing.assert_array_equal(dema_weights(0.9, np.int64(3), 10), dema_weights(0.9, 3, 10))
