import copy
import itertools
import struct
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emx import optimizers
from emx.checkpoint import MAGIC, VERSION, load_state, restore_optimizer, save_state
from emx.config import _format_scalar, parse_config
from emx.harness import Experiment
from emx.numerics import DivergenceError, finite_rows, spawn_rng
from emx.optimizers import (
    BLOCK,
    OPTIMIZERS,
    SPLIT_FLOOR,
    Ad3EMAMix,
    AdamFamily,
    AdamW,
    AdEMAMix,
    AggMo,
    AdMetaS,
    Lion,
    preseed_momentum,
    switch_optimizer,
)
from emx.testbeds import rosenbrock


def rosenbrock_trajectory(opt, steps, lr, x0=(-3.0, 5.0), **step_kwargs):
    theta = np.array(x0)
    trail = [theta.tobytes()]
    for _ in range(steps):
        _, grad = rosenbrock(theta)
        theta = opt.step(theta, grad, lr, **step_kwargs)
        trail.append(theta.tobytes())
    return theta, trail


class TestAdamW:
    def test_first_step_bias_correction_cancels(self):
        opt = AdamW(3, beta1=0.9, beta2=0.999)
        g = np.array([0.5, -2.0, 3.0])
        opt.step(np.zeros(3), g, 0.0)
        np.testing.assert_array_equal(opt.m / (1 - 0.9**1), g)

    def test_zero_gradient_fixed_point(self):
        opt = AdamW(2, weight_decay=0.0)
        theta = np.array([1.0, -2.0])
        new = opt.step(theta, np.zeros(2), 0.1)
        np.testing.assert_array_equal(new, theta)

    def test_single_step_hand_value(self):
        opt = AdamW(1, beta1=0.9, beta2=0.999, weight_decay=0.0, eps=1e-8)
        new = opt.step(np.array([1.0]), np.array([1.0]), 0.1)
        expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))
        assert new[0] == pytest.approx(expected, abs=1e-16)

    def test_length_mismatch(self):
        opt = AdamW(2)
        with pytest.raises(ValueError):
            opt.step(np.zeros(2), np.zeros(3), 0.1)

    def test_divergence_carries_step_index(self):
        opt = AdamW(2)
        theta = np.array([1.0, 1.0])
        with pytest.raises(DivergenceError) as err:
            for _ in range(5):
                theta = opt.step(theta, np.array([1e300, 1e300]), 1e280)
        assert err.value.step == opt.t


class TestAdEMAMixReductions:
    def test_alpha_zero_is_adamw_bitwise(self):
        adamw = AdamW(2, beta1=0.9, beta2=0.999, weight_decay=0.01)
        mix = AdEMAMix(2, beta1=0.9, beta2=0.999, beta3=0.9999, alpha=0.0, weight_decay=0.01)
        _, trail_a = rosenbrock_trajectory(adamw, 300, 1e-3)
        _, trail_b = rosenbrock_trajectory(mix, 300, 1e-3)
        assert trail_a == trail_b

    def test_beta1_zero_buffered_equals_bufferless(self):
        # AdamW's m is a real buffer; at beta1 = 0 it holds the gradient
        lean = AdEMAMix(2, beta1=0.0, beta3=0.999, alpha=0.0)
        full = AdamW(2, beta1=0.0)
        assert lean.m1 is None and full.m is not None
        _, trail_a = rosenbrock_trajectory(lean, 300, 1e-3)
        _, trail_b = rosenbrock_trajectory(full, 300, 1e-3)
        assert trail_a == trail_b

    @pytest.mark.parametrize(
        "beta1,slots", [(0.0, ["m2", "nu"]), (-0.0, ["m2", "nu"]), (0.5, ["m2", "nu", "m1"])]
    )
    def test_slots_follow_beta1(self, beta1, slots):
        assert list(AdEMAMix(2, beta1=beta1).state_slots()) == slots

    def test_slow_ema_not_bias_corrected(self):
        # after one step from zero, m2 is (1-beta3)*g, far below the corrected m1
        opt = AdEMAMix(1, beta1=0.9, beta3=0.9999, alpha=1.0)
        g = np.array([1.0])
        opt.step(np.zeros(1), g, 0.0)
        assert opt.m2[0] == pytest.approx(1e-4, rel=1e-10)
        assert opt.m1[0] / (1 - 0.9) == pytest.approx(1.0, rel=1e-12)


class TestConvexForm:
    def test_static_reparametrization_single_step(self):
        lr, alpha = 0.1, 9.0
        a = AdEMAMix(2, beta1=0.9, beta3=0.999, alpha=alpha)
        b = AdEMAMix(2, beta1=0.9, beta3=0.999, alpha=alpha)
        theta = np.array([0.3, -0.7])
        g = np.array([1.5, -0.2])
        out_mix = a.step(theta, g, lr)
        out_convex = b.step_convex(theta, g, lr * (alpha + 1), alpha / (alpha + 1))
        assert np.max(np.abs(out_mix - out_convex)) <= 1e-12

    def test_alpha_hat_zero_reduces_to_adamw(self):
        adamw = AdamW(2, beta1=0.9, beta2=0.999)
        convex = AdEMAMix(2, beta1=0.9, beta2=0.999, beta3=0.999, alpha=0.0)
        theta = np.array([1.0, 2.0])
        g = np.array([0.5, -0.5])
        out_a = adamw.step(theta, g, 0.05)
        out_b = convex.step_convex(theta, g, 0.05, 0.0)
        np.testing.assert_allclose(out_a, out_b, atol=1e-15)

    def test_static_equivalence_over_trajectory(self):
        lr, alpha = 1e-3, 9.0
        a = AdEMAMix(2, beta1=0.9, beta3=0.999, alpha=alpha)
        b = AdEMAMix(2, beta1=0.9, beta3=0.999, alpha=alpha)
        theta_a = np.array([-3.0, 5.0])
        theta_b = np.array([-3.0, 5.0])
        worst = 0.0
        for _ in range(1000):
            _, ga = rosenbrock(theta_a)
            _, gb = rosenbrock(theta_b)
            theta_a = a.step(theta_a, ga, lr)
            theta_b = b.step_convex(theta_b, gb, lr * (alpha + 1), alpha / (alpha + 1))
            worst = max(worst, float(np.max(np.abs(theta_a - theta_b))))
        assert worst <= 1e-12

    def test_alpha_hat_domain(self):
        opt = AdEMAMix(1, beta1=0.9)
        with pytest.raises(ValueError):
            opt.step_convex(np.zeros(1), np.ones(1), 0.1, 1.5)

    def test_a_state_with_no_slow_ema_is_refused_before_it_moves(self):
        opt = AdamW(3)
        before = {name: buf.tobytes() for name, buf in opt.state_slots().items()}
        with pytest.raises(TypeError, match="AdamW has no slow EMA"):
            opt.step_convex(np.zeros(3), np.ones(3), 0.1, 0.5)
        assert opt.t == 0
        assert {name: buf.tobytes() for name, buf in opt.state_slots().items()} == before


class TestLion:
    def test_update_is_sign_scaled(self):
        opt = Lion(3, alpha=0.9, beta=0.99, weight_decay=0.0)
        theta = np.zeros(3)
        lr = 0.01
        new = opt.step(theta, np.array([2.0, -3.0, 0.0]), lr)
        np.testing.assert_array_equal(np.abs(new[new != 0]), lr)

    def test_first_direction_from_gradient(self):
        opt = Lion(2, alpha=0.9, beta=0.99, weight_decay=0.0)
        new = opt.step(np.zeros(2), np.array([2.0, -3.0]), 0.01)
        # momentum starts at zero, so the sign comes from (1-alpha)*g
        np.testing.assert_array_equal(np.sign(-new), [1.0, -1.0])

    def test_momentum_updated_after_direction(self):
        opt = Lion(1, alpha=1.0, beta=0.5, weight_decay=0.0)
        # alpha=1: direction uses only the previous momentum, which is 0
        new = opt.step(np.array([1.0]), np.array([4.0]), 0.1)
        assert new[0] == 1.0
        assert opt.m[0] == 2.0


class TestAdMetaS:
    def test_paper_constants_at_point_nine(self):
        opt = AdMetaS(1, beta1=0.9)
        assert opt.mu == pytest.approx(4.888888888888889, abs=1e-12)
        assert opt.kappa == pytest.approx(2.1111111111111107, abs=1e-12)
        assert abs(opt.mu - 4.88) < 1e-2 and abs(opt.kappa - 2.11) < 1e-2

    def test_constants_derived_not_stored(self):
        opt = AdMetaS(1, beta1=0.9)
        opt.beta1 = 0.5
        assert opt.mu == pytest.approx(25.0 - 10.0 * (0.5 + 2.0))
        assert opt.kappa == pytest.approx(11.0)

    def test_zero_gradient_never_moves(self):
        opt = AdMetaS(2)
        theta = np.array([3.0, -1.0])
        for _ in range(10):
            theta = opt.step(theta, np.zeros(2), 0.1)
        np.testing.assert_array_equal(theta, [3.0, -1.0])

    def test_beta1_domain(self):
        with pytest.raises(ValueError):
            AdMetaS(1, beta1=1.0)
        with pytest.raises(ValueError):
            AdMetaS(1, beta1=0.0)


class TestAggMo:
    def test_single_zero_beta_is_gradient_descent(self):
        opt = AggMo(2, betas=[0.0])
        theta = np.array([1.0, 2.0])
        g = np.array([0.5, -1.0])
        new = opt.step(theta, g, 0.1)
        np.testing.assert_allclose(new, theta - 0.1 * g, rtol=1e-15)

    def test_duplicate_zero_betas_average_to_gradient(self):
        opt = AggMo(2, betas=[0.0, 0.0])
        theta = np.array([1.0, 2.0])
        g = np.array([0.5, -1.0])
        new = opt.step(theta, g, 0.1)
        np.testing.assert_allclose(new, theta - 0.1 * g, rtol=1e-15)

    def test_matches_scalar_recurrence_oracle(self):
        betas = (0.0, 0.9, 0.99)
        opt = AggMo(1, betas=betas)
        x = 1.0
        m = [0.0, 0.0, 0.0]
        lr = 0.01
        theta = np.array([1.0])
        for _ in range(10):
            g = 2.0 * x  # d/dx of x^2
            m = [b * mi + g for b, mi in zip(betas, m)]
            x = x - (lr / 3.0) * sum(m)
            theta = opt.step(theta, np.array([2.0 * theta[0]]), lr)
        assert theta[0] == pytest.approx(x, rel=1e-12)


class TestAd3EMAMix:
    def test_alpha_zero_is_adamw(self):
        adamw = AdamW(2, beta1=0.9, beta2=0.999)
        three = Ad3EMAMix(2, beta1=0.9, beta2=0.999, beta3=0.9999, beta4=0.999, alpha=0.0)
        _, trail_a = rosenbrock_trajectory(adamw, 100, 1e-3)
        theta = np.array([-3.0, 5.0])
        trail_b = [theta.tobytes()]
        for _ in range(100):
            _, g = rosenbrock(theta)
            theta = three.step(theta, g, 1e-3)
            trail_b.append(theta.tobytes())
        assert trail_a == trail_b

    def test_equal_slow_emas_match_half_alpha_mixture(self):
        # with beta4 == beta3 and identical starts, m3 == m2 forever, so
        # alpha*(m2+m3) equals (2*alpha)*m2
        three = Ad3EMAMix(2, beta1=0.9, beta3=0.999, beta4=0.999, alpha=2.0)
        mix = AdEMAMix(2, beta1=0.9, beta3=0.999, alpha=4.0)
        _, trail_a = rosenbrock_trajectory(three, 200, 1e-3)
        _, trail_b = rosenbrock_trajectory(mix, 200, 1e-3)
        a_final = np.frombuffer(trail_a[-1])
        b_final = np.frombuffer(trail_b[-1])
        np.testing.assert_allclose(a_final, b_final, rtol=1e-10)

    def test_matches_scalar_oracle_on_quadratic(self):
        b1, b2, b3, b4, alpha, lr, eps = 0.9, 0.999, 0.99, 0.999, 4.0, 0.01, 1e-8
        opt = Ad3EMAMix(1, beta1=b1, beta2=b2, beta3=b3, beta4=b4, alpha=alpha, eps=eps)
        x = 1.0
        m1 = m2 = m3 = nu = 0.0
        theta = np.array([1.0])
        for t in range(1, 51):
            g = 2.0 * x
            m1 = b1 * m1 + (1 - b1) * g
            m2 = b3 * m2 + (1 - b3) * g
            m3 = b4 * m3 + (1 - b4) * g
            nu = b2 * nu + (1 - b2) * g * g
            m1_hat = m1 / (1 - b1**t)
            nu_hat = nu / (1 - b2**t)
            x = x - lr * ((m1_hat + alpha * (m2 + m3)) / (np.sqrt(nu_hat) + eps))
            theta = opt.step(theta, np.array([2.0 * theta[0]]), lr)
        assert theta[0] == pytest.approx(x, rel=1e-12)


class TestWeightDecay:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: AdamW(3, weight_decay=0.5),
            lambda: AdEMAMix(3, weight_decay=0.5),
            lambda: Lion(3, weight_decay=0.5),
            lambda: Ad3EMAMix(3, weight_decay=0.5),
        ],
    )
    def test_decoupled_decay_contracts_exactly(self, factory):
        opt = factory()
        lr = 0.01
        theta = np.array([2.0, -3.0, 0.5])
        for _ in range(5):
            new = opt.step(theta, np.zeros(3), lr)
            np.testing.assert_allclose(new, (1 - lr * 0.5) * theta, rtol=1e-15)
            theta = new


class TestSecondMomentNonNegative:
    def test_nu_stays_nonnegative(self):
        rng = spawn_rng(11)
        for opt in (AdamW(4), AdEMAMix(4), Ad3EMAMix(4)):
            theta = rng.standard_normal(4)
            for _ in range(50):
                theta = opt.step(theta, rng.standard_normal(4), 1e-3)
                assert np.all(opt.nu >= 0.0)


class TestSwitching:
    def _train_adamw(self, steps, lr=1e-3):
        opt = AdamW(2, beta1=0.9, beta2=0.999)
        theta = np.array([-3.0, 5.0])
        for _ in range(steps):
            _, g = rosenbrock(theta)
            theta = opt.step(theta, g, lr)
        return opt, theta

    def test_buffers_carry_over_bitwise(self):
        opt, theta = self._train_adamw(50)
        mix = switch_optimizer(opt, AdEMAMix, beta3=0.9999, alpha=2.0)
        assert mix.m1.tobytes() == opt.m.tobytes()
        assert mix.nu.tobytes() == opt.nu.tobytes()
        assert np.all(mix.m2 == 0.0)
        assert mix.t == 50 and mix.sched_offset == 50

    def test_first_post_switch_step_is_nearly_adamw(self):
        # the slow EMA starts at zero; the first post-switch update can differ
        # from AdamW's only through the freshly written (1-beta3)*g term
        opt_a, theta = self._train_adamw(50)
        opt_b, _ = self._train_adamw(50)
        beta3, alpha = 0.9999, 2.0
        mix = switch_optimizer(opt_a, AdEMAMix, beta3=beta3, alpha=alpha)
        _, g = rosenbrock(theta)
        out_mix = mix.step(theta, g, 1e-3)
        out_adamw = opt_b.step(theta, g, 1e-3)
        nu_hat = opt_b.nu / (1 - 0.999**opt_b.t)
        m2_term = 1e-3 * alpha * (1 - beta3) * g / (np.sqrt(nu_hat) + 1e-8)
        np.testing.assert_allclose(out_mix, out_adamw - m2_term, atol=1e-15)

    def test_switch_with_zero_alpha_stays_adamw(self):
        opt_a, theta_a = self._train_adamw(30)
        mix = switch_optimizer(opt_a, AdEMAMix, beta3=0.9999, alpha=0.0)
        opt_b, theta_b = self._train_adamw(30)
        for _ in range(30):
            _, g = rosenbrock(theta_a)
            theta_a = mix.step(theta_a, g, 1e-3)
            _, g = rosenbrock(theta_b)
            theta_b = opt_b.step(theta_b, g, 1e-3)
        assert theta_a.tobytes() == theta_b.tobytes()

    def test_switch_back_with_zero_alpha_is_one_unbroken_run(self):
        mix = AdEMAMix(2, beta1=0.9, beta2=0.999, beta3=0.9999, alpha=0.0)
        theta_a = np.array([-3.0, 5.0])
        for _ in range(40):
            _, g = rosenbrock(theta_a)
            theta_a = mix.step(theta_a, g, 1e-3)
        back = switch_optimizer(mix, AdamW)
        for _ in range(40):
            _, g = rosenbrock(theta_a)
            theta_a = back.step(theta_a, g, 1e-3)
        opt, theta_b = self._train_adamw(80)
        assert theta_a.tobytes() == theta_b.tobytes()

    def test_post_switch_update_norm_drops_when_slow_term_dominated(self):
        # drive a state where alpha*|m2| >> |m1_hat|, then drop m2
        mix = AdEMAMix(2, beta1=0.9, beta2=0.999, beta3=0.999, alpha=9.0)
        theta = np.array([-3.0, 5.0])
        for _ in range(200):
            _, g = rosenbrock(theta)
            theta = mix.step(theta, g, 1e-3)
        _, g = rosenbrock(theta)
        pre_theta = theta.copy()
        pre_state = (mix.m1.copy(), mix.m2.copy(), mix.nu.copy(), mix.t)
        pre_norm = float(np.linalg.norm(mix.step(theta, g, 1e-3) - theta))
        mix.m1, mix.m2, mix.nu, mix.t = pre_state
        assert 9.0 * np.linalg.norm(mix.m2) > np.linalg.norm(mix.m1 / (1 - 0.9**mix.t))
        back = switch_optimizer(mix, AdamW)
        post_norm = float(np.linalg.norm(back.step(pre_theta, g, 1e-3) - pre_theta))
        assert post_norm < pre_norm

    @pytest.mark.parametrize("old,cls", [(Lion, AdEMAMix), (AdamW, Lion), (AggMo, AdamW),
                                         (AdMetaS, Ad3EMAMix), (Lion, AggMo)])
    def test_a_kind_outside_the_adam_family_is_refused(self, old, cls):
        opt = old(2)
        with pytest.raises(TypeError, match=f"cannot switch {old.variant} to {cls.variant}: "
                                            "both kinds must be of the Adam family"):
            switch_optimizer(opt, cls)


class TestPreseed:
    def test_zero_preseed_is_fresh_state(self):
        a = AdEMAMix(2, beta1=0.9, beta3=0.999)
        b = AdEMAMix(2, beta1=0.9, beta3=0.999)
        preseed_momentum(a, np.zeros(2))
        _, trail_a = rosenbrock_trajectory(a, 20, 1e-3)
        _, trail_b = rosenbrock_trajectory(b, 20, 1e-3)
        assert trail_a == trail_b

    def test_preseed_sets_both_emas(self):
        opt = AdEMAMix(2, beta1=0.9, beta3=0.999)
        preseed_momentum(opt, np.array([-3.0, 0.0]))
        np.testing.assert_array_equal(opt.m1, [-3.0, 0.0])
        np.testing.assert_array_equal(opt.m2, [-3.0, 0.0])
        np.testing.assert_array_equal(opt.nu, [0.0, 0.0])
        assert opt.t == 0

    def test_preseed_sets_adamw_first_moment(self):
        opt = AdamW(2, beta1=0.999)
        preseed_momentum(opt, np.array([-0.8, -3.0]))
        np.testing.assert_array_equal(opt.m, [-0.8, -3.0])

    def test_preseed_validation(self):
        opt = AdamW(2)
        with pytest.raises(ValueError):
            preseed_momentum(opt, np.zeros(3))
        opt.step(np.zeros(2), np.ones(2), 0.1)
        with pytest.raises(ValueError):
            preseed_momentum(opt, np.zeros(2))

    @pytest.mark.parametrize("values", [[np.nan, 0.0], [0.0, np.inf], ["a", "b"], [True, False],
                                        pytest.param([0.0, 10**5000], id="10**5000")])
    def test_preseed_refuses_non_finite_values(self, values):
        opt = AdamW(2)
        with pytest.raises(ValueError, match="^preseed must be finite numbers"):
            preseed_momentum(opt, values)
        assert not opt.m.any()

    @pytest.mark.parametrize("cls", [AdMetaS, AggMo])
    def test_preseed_needs_a_momentum_buffer(self, cls):
        opt = cls(2)
        with pytest.raises(TypeError, match=f"cannot preseed momentum for {cls.__name__}"):
            preseed_momentum(opt, [1.0, 0.0])
        assert not any(buf.any() for buf in opt.state_slots().values())

    @pytest.mark.parametrize("make,momentum", [
        (lambda: AdamW(2), ("m",)),
        (lambda: AdEMAMix(2), ("m2", "m1")),
        (lambda: AdEMAMix(2, beta1=0.0), ("m2",)),
        (lambda: Ad3EMAMix(2), ("m1", "m2", "m3")),
        (lambda: Lion(2), ("m",)),
    ], ids=["adamw", "ademamix", "ademamix_lean", "ad3emamix", "lion"])
    def test_preseed_sets_exactly_the_momentum_slots(self, make, momentum):
        opt = make()
        assert opt.momentum == momentum
        preseed_momentum(opt, [-3.0, 0.5])
        for name, buf in opt.state_slots().items():
            assert buf.tolist() == ([-3.0, 0.5] if name in momentum else [0.0, 0.0]), name

    def test_preseed_takes_integers(self):
        opt = AdamW(2)
        preseed_momentum(opt, [3, -1])
        assert opt.m.tolist() == [3.0, -1.0]


class TestKernelAndRegistry:
    def test_registry_maps_kind_to_class(self):
        assert list(OPTIMIZERS) == ["adamw", "ademamix", "lion", "admeta_s", "aggmo", "ad3emamix"]
        assert all(cls.variant == kind for kind, cls in OPTIMIZERS.items())

    def test_constructor_keywords_unchanged(self):
        mix = ["beta1", "beta2", "beta3", "alpha", "weight_decay", "eps", "t_alpha", "t_beta3",
               "beta_start"]
        assert list(AdamW.defaults) == ["beta1", "beta2", "weight_decay", "eps"]
        assert list(AdEMAMix.defaults) == mix
        assert list(Ad3EMAMix.defaults) == [*mix[:3], "beta4", *mix[3:]]
        assert list(Lion.defaults) == ["alpha", "beta", "weight_decay"]
        assert list(AdMetaS.defaults) == ["beta1", "beta2"]
        assert list(AggMo.defaults) == ["betas"]

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: AdamW(2, beta3=0.9),
            lambda: AdamW(2, alpha=1.0),
            lambda: AdamW(2, with_m1_buffer=True),
            lambda: AdamW(2, 0.9),
            lambda: AdEMAMix(2, beta4=0.9),
            lambda: AdEMAMix(2, slow=(0.9,)),
            lambda: AdEMAMix(2, beta1=0.0, with_m1_buffer=True),
            lambda: Ad3EMAMix(2, with_m1_buffer=True),
            lambda: Lion(2, beta1=0.9),
            lambda: AdMetaS(2, beta=0.9),
            lambda: AggMo(2, with_m1_buffer=True),
            lambda: Lion(2, 0.9),
        ],
    )
    def test_unknown_keywords_rejected(self, factory):
        with pytest.raises(TypeError):
            factory()

    def test_beta_start_checked_when_warming_up(self):
        with pytest.raises(ValueError, match="beta_start"):
            AdEMAMix(2, beta1=0.0, t_beta3=10)
        with pytest.raises(ValueError, match="beta_start"):
            AdEMAMix(2, beta3=0.5, t_beta3=10)
        with pytest.raises(ValueError, match="beta_start"):
            Ad3EMAMix(2, beta3=0.99, beta4=0.5, t_beta3=10)
        AdEMAMix(2, beta3=0.5)
        AdEMAMix(2, beta1=0.0, t_beta3=10, beta_start=0.5)

    def test_schedule_args(self):
        assert AdamW(2).schedule_args(5) == [] and Lion(2).schedule_args(5) == []
        mix = AdEMAMix(2, alpha=4.0, beta3=0.999, t_alpha=10, t_beta3=10)
        mix.sched_offset = 5
        alpha_t, beta3_t = mix.schedule_args(10)
        assert alpha_t == 2.0 and 0.9 < beta3_t < 0.999
        assert len(Ad3EMAMix(2).schedule_args(1)) == 3
        assert mix.schedule_args(10) == mix.schedule_args(10)


# --- the kernels before they updated their state in place ---------------------
# Each rebinds the slot attributes to fresh arrays, exactly as the optimizers
# did; the in-place kernels must match them to the bit.


def check_same_length(a, b):
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")


def check_finite_before_in_place(step_index, *arrays):
    for arr in arrays:
        if arr is not None and not np.all(np.isfinite(arr)):
            raise DivergenceError(
                f"non-finite value after update step {step_index}", step=step_index
            )


def moments_before_in_place(opt, theta, grad, beta3_t, beta4_t):
    check_same_length(theta, grad)
    opt.t += 1
    t = opt.t
    if opt.m1 is None:
        m1_hat = grad
    else:
        opt.m1 = opt.beta1 * opt.m1 + (1.0 - opt.beta1) * grad
        m1_hat = opt.m1 / (1.0 - opt.beta1**t)
    if opt.m2 is not None:
        b = opt.beta3 if beta3_t is None else beta3_t
        opt.m2 = b * opt.m2 + (1.0 - b) * grad
    if opt.m3 is not None:
        b = opt.beta4 if beta4_t is None else beta4_t
        opt.m3 = b * opt.m3 + (1.0 - b) * grad
    opt.nu = opt.beta2 * opt.nu + (1.0 - opt.beta2) * (grad * grad)
    return m1_hat, opt.nu / (1.0 - opt.beta2**t)


def slow_before_in_place(opt):
    return opt.m2 if opt.m3 is None else opt.m2 + opt.m3


def update_before_in_place(opt, theta, lr, num, nu_hat):
    new_theta = theta - lr * (num / (np.sqrt(nu_hat) + opt.eps) + opt.weight_decay * theta)
    check_finite_before_in_place(opt.t, new_theta, opt.m1, opt.m2, opt.m3, opt.nu)
    return new_theta


@np.errstate(over="ignore", invalid="ignore")
def adam_family_step_before_in_place(
    opt, theta, grad, lr, alpha_t=None, beta3_t=None, beta4_t=None
):
    if alpha_t is None:
        alpha_t = opt.alpha
    m1_hat, nu_hat = moments_before_in_place(opt, theta, grad, beta3_t, beta4_t)
    num = m1_hat if alpha_t == 0.0 else m1_hat + alpha_t * slow_before_in_place(opt)
    return update_before_in_place(opt, theta, lr, num, nu_hat)


@np.errstate(over="ignore", invalid="ignore")
def step_convex_before_in_place(opt, theta, grad, eta_hat, alpha_hat, beta3_t=None, beta4_t=None):
    m1_hat, nu_hat = moments_before_in_place(opt, theta, grad, beta3_t, beta4_t)
    num = (1.0 - alpha_hat) * m1_hat + alpha_hat * slow_before_in_place(opt)
    return update_before_in_place(opt, theta, eta_hat, num, nu_hat)


@np.errstate(over="ignore", invalid="ignore")
def lion_step_before_in_place(opt, theta, grad, lr):
    check_same_length(theta, grad)
    opt.t += 1
    direction = np.sign(opt.alpha * opt.m + (1.0 - opt.alpha) * grad)
    new_theta = theta - lr * (direction + opt.weight_decay * theta)
    opt.m = opt.beta * opt.m + (1.0 - opt.beta) * grad
    check_finite_before_in_place(opt.t, new_theta, opt.m)
    return new_theta


@np.errstate(over="ignore", invalid="ignore")
def admeta_s_step_before_in_place(opt, theta, grad, lr):
    check_same_length(theta, grad)
    opt.t += 1
    opt.m1 = opt.beta1 * opt.m1 + grad
    h = opt.kappa * grad + opt.mu * opt.m1
    opt.m2 = opt.beta2 * opt.m2 + (1.0 - opt.beta2) * h
    new_theta = theta - lr * opt.m2
    check_finite_before_in_place(opt.t, new_theta, opt.m1, opt.m2)
    return new_theta


@np.errstate(over="ignore", invalid="ignore")
def aggmo_step_before_in_place(opt, theta, grad, lr):
    check_same_length(theta, grad)
    opt.t += 1
    total = np.zeros(opt.dim)
    names = [f"m{i}" for i in range(len(opt.betas))]
    for name, b in zip(names, opt.betas):
        setattr(opt, name, b * getattr(opt, name) + grad)
        total += getattr(opt, name)
    new_theta = theta - (lr / len(opt.betas)) * total
    check_finite_before_in_place(opt.t, new_theta, *(getattr(opt, name) for name in names))
    return new_theta


def save_state_before_one_copy(opt, extra_slots=None):
    slots = dict(opt.state_slots())
    if extra_slots:
        for name, vec in extra_slots.items():
            if name in slots:
                raise ValueError(f"slot name collision: {name!r}")
            slots[name] = vec
    hyper = {"variant": opt.variant}
    hyper.update(opt.hyper())
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    out += struct.pack("<I", len(slots))
    for name, vec in slots.items():
        name_bytes = name.encode("utf-8")
        vec = np.ascontiguousarray(vec, dtype=np.float64)
        out += struct.pack("<I", len(name_bytes))
        out += name_bytes
        out += struct.pack("<Q", vec.size)
        out += vec.astype("<f8", copy=False).tobytes()
    hyper_bytes = "".join(f"{k}={_format_scalar(v)}\n" for k, v in hyper.items()).encode("utf-8")
    out += struct.pack("<I", len(hyper_bytes))
    out += hyper_bytes
    out += struct.pack("<Q", opt.t)
    return bytes(out)


# step kind -> (factory, in-place step, reference step); step(opt, theta, grad, lr, *args)
STEP_KINDS = {
    "adamw": (lambda d: AdamW(d, weight_decay=0.01), "step", adam_family_step_before_in_place),
    "ademamix": (
        lambda d: AdEMAMix(d, beta3=0.999, alpha=5.0, t_alpha=10, t_beta3=10),
        "step",
        adam_family_step_before_in_place,
    ),
    "ademamix_lean": (
        lambda d: AdEMAMix(d, beta1=0.0, beta3=0.99, alpha=3.0),
        "step",
        adam_family_step_before_in_place,
    ),
    "ademamix_convex": (
        lambda d: AdEMAMix(d, beta3=0.999, alpha=5.0), "step_convex", step_convex_before_in_place
    ),
    "ademamix_lean_convex": (
        lambda d: AdEMAMix(d, beta1=0.0, beta3=0.999, alpha=5.0),
        "step_convex",
        step_convex_before_in_place,
    ),
    "lion": (lambda d: Lion(d, weight_decay=0.1), "step", lion_step_before_in_place),
    "admeta_s": (lambda d: AdMetaS(d), "step", admeta_s_step_before_in_place),
    "aggmo": (lambda d: AggMo(d), "step", aggmo_step_before_in_place),
    "ad3emamix": (
        lambda d: Ad3EMAMix(d, beta3=0.99, beta4=0.999, weight_decay=0.02),
        "step",
        adam_family_step_before_in_place,
    ),
}


def _step_args(kind, opt, alpha_t):
    """The warmed-up values a step takes after ``lr``: ``alpha_t`` may be 0."""
    if kind.endswith("convex"):
        alpha = opt.alpha if alpha_t is None else alpha_t
        return [alpha / (alpha + 1.0)]
    args = opt.schedule_args(opt.t + 1)
    if args and alpha_t is not None:
        args[0] = alpha_t
    return args


HOSTILE = st.sampled_from([0.0, -0.0, 1e160, -1e160, np.inf, -np.inf, np.nan, 1e-300])
ENTRIES = st.one_of(st.floats(-10.0, 10.0), HOSTILE)


def _slot_bytes(opt):
    return {name: buf.tobytes() for name, buf in opt.state_slots().items()}


def _run(step, opt, theta, grad, lr, args):
    try:
        return step(opt, theta, grad, lr, *args), None
    except DivergenceError as exc:
        return None, exc.step


class TestInPlaceKernels:
    """The in-place kernels against the kernels they replaced, to the bit."""

    @given(
        st.sampled_from(sorted(STEP_KINDS)),
        st.integers(1, 64),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_bytes(self, kind, dim, data):
        factory, method, reference = STEP_KINDS[kind]
        opt, ref = factory(dim), factory(dim)
        if data.draw(st.booleans(), label="start from a drawn state"):
            for name, buf in opt.state_slots().items():  # as a restore or a preseed leaves it
                buf[...] = data.draw(arrays(np.float64, dim, elements=ENTRIES), label=name)
                ref.state_slots()[name][...] = buf
        theta = data.draw(arrays(np.float64, dim, elements=ENTRIES), label="theta")
        ref_theta = theta.copy()
        alpha_t = data.draw(st.sampled_from([None, 0.0, 2.5]), label="alpha_t")
        for _ in range(data.draw(st.integers(1, 4), label="steps")):
            grad = data.draw(arrays(np.float64, dim, elements=ENTRIES), label="grad")
            lr = data.draw(st.sampled_from([1e-3, 0.5, 1e150]), label="lr")
            args = _step_args(kind, opt, alpha_t)
            theta_in, grad_in = theta.tobytes(), grad.tobytes()
            new, diverged = _run(getattr(type(opt), method), opt, theta, grad, lr, args)
            ref_new, ref_diverged = _run(reference, ref, ref_theta, grad.copy(), lr, args)
            assert theta.tobytes() == theta_in and grad.tobytes() == grad_in
            assert diverged == ref_diverged and opt.t == ref.t
            assert _slot_bytes(opt) == _slot_bytes(ref)
            if diverged is not None:
                break
            assert new.tobytes() == ref_new.tobytes()
            theta, ref_theta = new, ref_new

    @pytest.mark.parametrize("kind", sorted(STEP_KINDS))
    def test_signed_zeros_match_reference(self, kind):
        # every combination of a slot value, a theta and a gradient sign of zero
        slot, theta, grad = np.array(list(itertools.product([-0.0, 0.0, -1.0, 1.0], repeat=3))).T
        factory, method, reference = STEP_KINDS[kind]
        opt, ref = factory(len(theta)), factory(len(theta))
        for name, buf in opt.state_slots().items():  # nu >= 0, but it may be -0.0
            value = np.where(slot < 0, 1.0, slot) if name == "nu" else slot
            buf[...] = ref.state_slots()[name][...] = value
        for _ in range(2):
            args = _step_args(kind, opt, None)
            new = getattr(opt, method)(theta, grad, 1e-3, *args)
            ref_new = reference(ref, theta, grad, 1e-3, *args)
            assert new.tobytes() == ref_new.tobytes()
            assert _slot_bytes(opt) == _slot_bytes(ref)
            theta, grad = new, -grad

    @pytest.mark.parametrize("kind", ["ademamix_convex", "ademamix_lean_convex"])
    def test_convex_form_adds_a_slow_term_of_weight_zero(self, kind):
        # at alpha_hat == 0, + 0.0*m2 still turns a -0.0 numerator into +0.0; a
        # buffered state's m1_hat is -0.0 only from an m1 of -0.0, as a restore may leave it
        factory, _, reference = STEP_KINDS[kind]
        opt, ref = factory(3), factory(3)
        if opt.m1 is not None:
            opt.m1[...] = ref.m1[...] = -0.0
        theta, grad = np.array([-0.0, 1.0, -0.0]), np.array([-0.0, 0.5, -1e-300])
        for _ in range(2):
            new = opt.step_convex(theta, grad, 1e-3, 0.0)
            ref_new = reference(ref, theta, grad, 1e-3, 0.0)
            assert new.tobytes() == ref_new.tobytes()
            assert _slot_bytes(opt) == _slot_bytes(ref)
            theta, grad = new, -grad

    @pytest.mark.parametrize("kind", sorted(STEP_KINDS))
    def test_result_is_a_fresh_array(self, kind):
        factory, method, _ = STEP_KINDS[kind]
        opt = factory(8)
        rng = spawn_rng(21)
        theta = rng.standard_normal(8)
        previous = []
        for _ in range(3):
            grad = rng.standard_normal(8)
            theta_in, grad_in = theta.tobytes(), grad.tobytes()
            new = getattr(opt, method)(theta, grad, 1e-2, *_step_args(kind, opt, None))
            assert theta.tobytes() == theta_in and grad.tobytes() == grad_in
            for other in (theta, grad, *opt.state_slots().values(), *previous):
                assert not np.shares_memory(new, other)
            previous.append(new)
            theta = new

    @pytest.mark.parametrize("kind", sorted(STEP_KINDS))
    def test_slots_are_updated_in_place(self, kind):
        factory, method, _ = STEP_KINDS[kind]
        opt = factory(4)
        before = opt.state_slots()
        getattr(opt, method)(np.ones(4), np.ones(4), 1e-2, *_step_args(kind, opt, None))
        assert all(opt.state_slots()[name] is buf for name, buf in before.items())
        assert "_scratch" not in opt.hyper() and "_scratch" not in opt.state_slots()

    def test_length_mismatch_leaves_state_untouched(self):
        opt = AdEMAMix(3)
        with pytest.raises(ValueError, match="length mismatch"):
            opt.step(np.zeros(2), np.ones(2), 0.1)
        assert opt.t == 0 and all(not buf.any() for buf in opt.state_slots().values())


class TestRows:
    """A ``(K, dim)`` state against each row stepped alone as a 1-D state."""

    @given(
        st.sampled_from(sorted(STEP_KINDS)),
        st.integers(1, 4),
        st.integers(1, 8),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_each_row_has_the_bits_of_its_1d_run(self, kind, k, dim, data):
        factory, method, _ = STEP_KINDS[kind]
        rows = factory(dim)
        rows.select_rows([0] * k)
        theta = data.draw(arrays(np.float64, (k, dim), elements=ENTRIES), label="theta")
        alone = [(factory(dim), row.copy()) for row in theta]
        alpha_t = data.draw(st.sampled_from([None, 0.0, 2.5]), label="alpha_t")
        for _ in range(data.draw(st.integers(1, 4), label="steps")):
            grad = data.draw(arrays(np.float64, (len(theta), dim), elements=ENTRIES), label="grad")
            lrs = data.draw(
                st.lists(st.sampled_from([1e-3, 0.5, 1e150]), min_size=len(theta),
                         max_size=len(theta)),
                label="lrs",
            )
            args = _step_args(kind, rows, alpha_t)
            new = getattr(rows, method)(theta, grad, np.array(lrs)[:, np.newaxis], *args)
            ok = finite_rows(new, *rows.state_slots().values())
            ok = np.ones(len(theta), dtype=bool) if ok is None else ok
            assert ok.shape == (len(theta),)
            for i, (opt, one) in enumerate(alone):
                one_new, diverged = _run(getattr(type(opt), method), opt, one, grad[i], lrs[i], args)
                assert (diverged is None) == ok[i]
                if diverged is None:
                    assert one_new.tobytes() == new[i].tobytes()
                    assert {n: b[i].tobytes() for n, b in rows.state_slots().items()} == (
                        _slot_bytes(opt)
                    )
                    alone[i] = (opt, one_new)
            rows.select_rows(ok)
            theta = new[ok]
            alone = [pair for pair, good in zip(alone, ok) if good]
            assert rows.shape == theta.shape and rows.t == opt.t
            if not alone:
                break

    @pytest.mark.parametrize("kind", sorted(STEP_KINDS))
    def test_one_row_saves_the_bytes_of_a_1d_state(self, kind):
        factory, method, _ = STEP_KINDS[kind]
        flat, rows = factory(5), factory(5)
        rows.select_rows([0])
        theta = spawn_rng(3).standard_normal(5)
        flat_theta, rows_theta = theta, theta[np.newaxis]
        for _ in range(3):
            args = _step_args(kind, flat, None)
            flat_theta = getattr(flat, method)(flat_theta, np.sin(flat_theta), 1e-2, *args)
            rows_theta = getattr(rows, method)(rows_theta, np.sin(rows_theta), 1e-2, *args)
        assert save_state(rows, extra_slots={"theta": rows_theta}) == save_state(
            flat, extra_slots={"theta": flat_theta}
        )

    @pytest.mark.parametrize("kind", sorted(STEP_KINDS))
    def test_more_rows_do_not_save(self, kind):
        # the rows would be written end to end and restore as one state of dim k * 3
        factory, _, _ = STEP_KINDS[kind]
        opt = factory(3)
        opt.select_rows([0, 0])
        with pytest.raises(ValueError, match="the state has 2 rows"):
            save_state(opt, extra_slots={"theta": np.zeros((2, 3))})
        opt.select_rows(np.zeros(2, dtype=bool))
        with pytest.raises(ValueError, match="the state has 0 rows"):
            save_state(opt)

    @pytest.mark.parametrize("theta_shape", [(3, 4), (2, 3), (4,)])
    def test_shape_mismatch_leaves_state_untouched(self, theta_shape):
        opt = AdEMAMix(4)
        opt.select_rows([0, 0])
        with pytest.raises(ValueError, match="length mismatch"):
            opt.step(np.zeros(theta_shape), np.ones(theta_shape), 0.1)
        assert opt.t == 0 and all(not buf.any() for buf in opt.state_slots().values())

    def test_switch_keeps_every_row(self):
        opt = AdamW(3, weight_decay=0.01)
        opt.select_rows([0, 0])
        theta = np.array([[1.0, -2.0, 0.5], [0.25, 3.0, -1.0]])
        theta = opt.step(theta, np.cos(theta), np.array([[1e-2], [1e-3]]))
        new = switch_optimizer(opt, AdEMAMix, beta3=0.99, alpha=2.0)
        assert new.shape == (2, 3) and new.m2.shape == (2, 3) and new.t == opt.t
        assert new.m1.tobytes() == opt.m1.tobytes() and new.nu.tobytes() == opt.nu.tobytes()
        new.step(theta, np.cos(theta), np.array([[1e-2], [1e-3]]))


class TestSaveStateBytes:
    @pytest.mark.parametrize("kind", sorted(STEP_KINDS))
    def test_bytes_equal_the_old_serializer(self, kind):
        factory, method, _ = STEP_KINDS[kind]
        opt = factory(7)
        rng = spawn_rng(22)
        theta = rng.standard_normal(7)
        step = getattr(opt, method)
        for _ in range(3):
            theta = step(theta, rng.standard_normal(7), 1e-2, *_step_args(kind, opt, None))
        extras = {
            "theta": theta,
            "strided": np.arange(14.0)[::2],
            "ints": np.arange(3),
            "listed": [1.5, -0.0],
            "big_endian": np.arange(2.0).astype(">f8"),
        }
        reference = _TextHyper(opt)
        assert save_state(opt, extra_slots=extras) == save_state_before_one_copy(reference, extras)
        assert save_state(opt) == save_state_before_one_copy(reference)


class _TextHyper:
    """A state whose ``hyper()`` gives a tuple as the comma text AggMo's own
    ``hyper()`` wrote while ``save_state_before_one_copy`` was the serializer."""

    def __init__(self, opt):
        self._opt = opt

    def __getattr__(self, name):
        return getattr(self._opt, name)

    def hyper(self):
        return {k: ",".join(map(repr, v)) if type(v) is tuple else v
                for k, v in self._opt.hyper().items()}


@pytest.fixture
def three_ranges(monkeypatch):
    """Three column ranges whatever the machine, with the interpreter switching
    threads as often as it can; yields the threads the steps start."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(optimizers.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(optimizers.threading, "Thread", Recorded)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield started
    finally:
        sys.setswitchinterval(interval)


class TestColumnSplit:
    """A state of ``SPLIT_FLOOR`` elements or more steps in column ranges on
    threads, each range in pieces, and must give the whole-array bytes."""

    # odd and not a multiple of 3 or BLOCK: every 1-D range holds two pieces, one short
    DIM = 2**18 + 5
    LRS = [1e-3, 1e-2, 0.5]

    def _grads(self, shape, steps):
        rng = spawn_rng(31)
        grads = [rng.standard_normal(shape) for _ in range(steps)]
        # hostile values in the last step and columns only: the last range's last piece
        grads[-1][..., -4:] = [np.inf, np.nan, -0.0, 1e160]
        return grads

    @pytest.mark.parametrize("kind", sorted(STEP_KINDS))
    def test_1d_matches_reference_bytes(self, kind, three_ranges):
        assert self.DIM >= SPLIT_FLOOR and self.DIM % BLOCK and self.DIM > 3 * BLOCK
        factory, method, reference = STEP_KINDS[kind]
        opt, ref = factory(self.DIM), factory(self.DIM)
        theta = ref_theta = spawn_rng(30).standard_normal(self.DIM)
        grads = self._grads(self.DIM, 4)
        for grad in grads:
            args = _step_args(kind, opt, None)
            new, diverged = _run(getattr(type(opt), method), opt, theta, grad, 1e-2, args)
            ref_new, ref_diverged = _run(reference, ref, ref_theta, grad, 1e-2, args)
            assert diverged == ref_diverged and opt.t == ref.t
            assert _slot_bytes(opt) == _slot_bytes(ref)
            if diverged is None:
                assert new.tobytes() == ref_new.tobytes()
                theta, ref_theta = new, ref_new
        assert diverged == len(grads)
        assert len(three_ranges) == 2 * len(grads)

    @pytest.mark.parametrize("kind", sorted(STEP_KINDS))
    def test_rows_match_reference_bytes(self, kind, three_ranges):
        factory, method, reference = STEP_KINDS[kind]
        rows = factory(self.DIM)
        rows.select_rows([0] * 3)
        theta = spawn_rng(30).standard_normal((3, self.DIM))
        alone = [(factory(self.DIM), row.copy()) for row in theta]
        grads = self._grads((3, self.DIM), 3)
        grads[-1][[0, 2], -4:] = 1.0  # only the middle row turns non-finite
        for grad in grads:
            args = _step_args(kind, rows, None)
            new = getattr(rows, method)(theta, grad, np.array(self.LRS)[:, np.newaxis], *args)
            finite = []
            for i, (ref, ref_theta) in enumerate(alone):
                ref_new, diverged = _run(reference, ref, ref_theta, grad[i], self.LRS[i], args)
                assert {n: b[i].tobytes() for n, b in rows.state_slots().items()} == (
                    _slot_bytes(ref)
                )
                if diverged is None:
                    assert new[i].tobytes() == ref_new.tobytes()
                    alone[i] = (ref, ref_new)
                finite.append(diverged is None)
            ok = finite_rows(new, *rows.state_slots().values())
            assert finite == ([True] * 3 if ok is None else ok.tolist())
            theta = new
        assert finite == [True, False, True]

    def test_overflow_in_a_worker_is_quiet(self, three_ranges):
        # numpy's errstate is per thread: each range must enter its own
        opt = AdEMAMix(self.DIM)
        opt.select_rows([0, 0])
        grad = np.ones((2, self.DIM))
        grad[:, -1] = 1e200  # grad * grad overflows in the last range alone
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            opt.step(np.zeros((2, self.DIM)), grad, np.full((2, 1), 1e-3))
        assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert np.isinf(opt.nu[:, -1]).all() and np.isfinite(opt.nu[:, :-1]).all()

    def test_wrong_lr_column_raises_once_every_range_is_joined(self, three_ranges):
        opt = AdamW(self.DIM)
        opt.select_rows([0] * 3)
        outcome = []

        def call():
            try:
                outcome.append(opt.step(np.zeros((3, self.DIM)), np.ones((3, self.DIM)),
                                        np.ones((4, 1))))
            except ValueError as exc:
                outcome.append(exc)

        caller = threading.Thread(target=call)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert len(outcome) == 1 and isinstance(outcome[0], ValueError)
        assert len(three_ranges) == 3 and not any(t.is_alive() for t in three_ranges)

    def test_error_in_a_worker_alone_is_raised(self, three_ranges, monkeypatch):
        kernel = AdamFamily._kernel

        def failing(state, *args):
            if threading.current_thread() is not threading.main_thread():
                raise ZeroDivisionError("in a worker")
            kernel(state, *args)

        monkeypatch.setattr(AdamFamily, "_kernel", failing)
        opt = AdEMAMix(self.DIM)
        with pytest.raises(ZeroDivisionError, match="in a worker"):
            opt.step(np.zeros(self.DIM), np.ones(self.DIM), 1e-3)
        assert len(three_ranges) == 2 and not any(t.is_alive() for t in three_ranges)

    @pytest.mark.parametrize("kind", sorted(STEP_KINDS))
    def test_no_thread_outlives_the_step(self, kind, three_ranges):
        factory, method, _ = STEP_KINDS[kind]
        opt = factory(self.DIM)
        theta = getattr(opt, method)(np.zeros(self.DIM), np.ones(self.DIM), 1e-3,
                                     *_step_args(kind, opt, None))
        assert len(three_ranges) == 2 and not any(t.is_alive() for t in three_ranges)
        assert np.isfinite(theta).all()

    @pytest.mark.parametrize("kind", sorted(STEP_KINDS))
    def test_ranges_make_no_blas_call(self, kind, three_ranges, monkeypatch):
        # OpenBLAS threads a long ddot, and its workers would contend with the ranges
        calls = []
        for name in ("vdot", "vecdot", "dot"):
            def counted(*args, _blas=getattr(np, name), **kwargs):
                calls.append(args)
                return _blas(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        factory, method, _ = STEP_KINDS[kind]
        opt = factory(self.DIM)
        theta = np.zeros(self.DIM)
        for big in (1.0, 1e160):  # then a value whose square overflows, in the last range
            grad = np.ones(self.DIM)
            grad[-1] = big
            theta, _ = _run(getattr(type(opt), method), opt, theta, grad, 1e-3,
                            _step_args(kind, opt, None))
        assert calls == [] and len(three_ranges) == 4

    @pytest.mark.parametrize("kind", ["adamw", "ademamix"])
    def test_split_without_sched_getaffinity(self, kind, three_ranges, monkeypatch):
        # Python on macOS and Windows has no os.sched_getaffinity: the CPU count serves
        monkeypatch.delattr(optimizers.os, "sched_getaffinity")
        monkeypatch.setattr(optimizers.os, "cpu_count", lambda: 3)
        factory, method, reference = STEP_KINDS[kind]
        opt, ref = factory(self.DIM), factory(self.DIM)
        theta = spawn_rng(30).standard_normal(self.DIM)
        grad = spawn_rng(31).standard_normal(self.DIM)
        args = _step_args(kind, opt, None)
        new = getattr(opt, method)(theta, grad, 1e-2, *args)
        assert new.tobytes() == reference(ref, theta, grad, 1e-2, *args).tobytes()
        assert _slot_bytes(opt) == _slot_bytes(ref)
        assert len(three_ranges) == 2

    def test_eleven_aggmo_slots_match_reference_bytes(self, three_ranges):
        # slots m0 ... m10: allocated in name order (m10 before m2), stepped in beta order
        betas = [i / 11 for i in range(11)]
        opt, ref = AggMo(SPLIT_FLOOR, betas=betas), AggMo(SPLIT_FLOOR, betas=betas)
        theta = ref_theta = spawn_rng(30).standard_normal(SPLIT_FLOOR)
        for grad in self._grads(SPLIT_FLOOR, 3)[:-1]:
            theta = opt.step(theta, grad, 1e-2)
            ref_theta = aggmo_step_before_in_place(ref, ref_theta, grad, 1e-2)
            assert theta.tobytes() == ref_theta.tobytes()
            assert _slot_bytes(opt) == _slot_bytes(ref)
        assert list(opt.state_slots()) == [f"m{i}" for i in range(11)]
        assert len(three_ranges) == 4

    def test_below_the_floor_runs_inline(self, three_ranges):
        opt = AdEMAMix(SPLIT_FLOOR - 1)
        opt.step(np.zeros(SPLIT_FLOOR - 1), np.ones(SPLIT_FLOOR - 1), 1e-3)
        opt = AdEMAMix(SPLIT_FLOOR // 4)
        opt.select_rows([0] * 3)  # 3/4 of the floor in elements
        opt.step(np.zeros(opt.shape), np.ones(opt.shape), np.full((3, 1), 1e-3))
        assert three_ranges == []


def _traced_peak(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestAllocation:
    """After the first step, a step allocates one dim-sized array: the new theta."""

    DIM = 100_000

    @pytest.mark.parametrize("dim", [SPLIT_FLOOR // 2, DIM, 2**18 + 3])
    @pytest.mark.parametrize("kind", sorted(STEP_KINDS))
    def test_step_peak_is_one_vector(self, kind, dim):
        # tracemalloc traces every thread: a split step's spans are views
        factory, method, _ = STEP_KINDS[kind]
        opt = factory(dim)
        rng = spawn_rng(23)
        theta, grad = rng.standard_normal(dim), rng.standard_normal(dim)
        step = getattr(opt, method)
        theta = step(theta, grad, 1e-3, *_step_args(kind, opt, None))
        args = _step_args(kind, opt, None)
        peak, _ = _traced_peak(lambda: step(theta, grad, 1e-3, *args))
        assert peak <= 1.25 * 8 * dim

    @pytest.mark.parametrize("kind", ["ademamix", "aggmo"])
    def test_checkpoint_peak_is_one_blob(self, kind):
        factory, method, _ = STEP_KINDS[kind]
        opt = factory(self.DIM)
        theta = getattr(opt, method)(np.zeros(self.DIM), np.ones(self.DIM), 1e-3)
        peak, blob = _traced_peak(lambda: save_state(opt, extra_slots={"theta": theta}))
        assert peak <= 1.05 * len(blob)
        peak, ck = _traced_peak(lambda: load_state(blob))
        assert peak <= 0.01 * len(blob)
        blob_bytes = np.frombuffer(blob, np.uint8)
        for vec in ck.slots.values():  # read-only views: restore_optimizer makes the copy
            assert not vec.flags.writeable and np.shares_memory(vec, blob_bytes)


# every kind's hyperparameters as declared: keywords, a default instance's
# hyper() (value and type) and, per key, constructor keywords that put it out of range
DECLARED = {
    "adamw": {"beta1": 0.9, "beta2": 0.999, "weight_decay": 0.0, "eps": 1e-8},
    "ademamix": {
        "beta1": 0.9, "beta2": 0.999, "beta3": 0.9999, "alpha": 5.0, "weight_decay": 0.0,
        "eps": 1e-8, "t_alpha": 0, "t_beta3": 0, "beta_start": 0.9, "sched_offset": 0,
    },
    "lion": {"alpha": 0.9, "beta": 0.99, "weight_decay": 0.0},
    "admeta_s": {"beta1": 0.9, "beta2": 0.3},
    "aggmo": {"betas": (0.0, 0.9, 0.99)},
    "ad3emamix": {
        "beta1": 0.9, "beta2": 0.999, "beta3": 0.9999, "beta4": 0.9999, "alpha": 4.0,
        "weight_decay": 0.0, "eps": 1e-8, "t_alpha": 0, "t_beta3": 0, "beta_start": 0.9,
        "sched_offset": 0,
    },
}
OUT_OF_RANGE = {
    "beta1": {"beta1": 1.0},
    "beta2": {"beta2": 1.0},
    "beta3": {"beta3": 1.0},
    "beta4": {"beta4": 1.0},
    "beta": {"beta": 1.0},
    "alpha": {"alpha": -1.0},
    "weight_decay": {"weight_decay": "abc"},
    "eps": {"eps": "abc"},
    "t_alpha": {"t_alpha": 2.5},
    "t_beta3": {"t_beta3": 2.5},
    "beta_start": {"beta_start": 1.0, "t_beta3": 10},
    "betas": {"betas": (0.5, 1.0)},
}


class TestDeclaredHyperparameters:
    @pytest.mark.parametrize("kind", list(DECLARED))
    def test_keywords_and_default_hyper(self, kind):
        cls = OPTIMIZERS[kind]
        declared = DECLARED[kind]
        assert list(cls.defaults) == [k for k in declared if k != "sched_offset"]
        hyper = cls(3).hyper()
        assert hyper == declared
        assert {k: type(v) for k, v in hyper.items()} == {k: type(v) for k, v in declared.items()}

    @pytest.mark.parametrize(
        "kind,key", [(kind, key) for kind, cls in OPTIMIZERS.items() for key in cls.defaults]
    )
    def test_out_of_range_value_raises(self, kind, key):
        with pytest.raises(ValueError):
            OPTIMIZERS[kind](3, **OUT_OF_RANGE[key])


# every kind, and the AdEMAMix state its kind name does not tell apart
FRESH_STATES = {
    **OPTIMIZERS,
    "ademamix_lean": lambda dim: AdEMAMix(dim, beta1=0.0),
}


class TestDeclaredState:
    @pytest.mark.parametrize("name", list(FRESH_STATES))
    def test_buffers_are_the_declared_slots(self, name):
        # the arrays a state holds: the block, a view of each of its rows and,
        # from its first step, the scratch
        opt = FRESH_STATES[name](3)
        slots = [getattr(opt, n) for n in opt.slot_names]
        held = [a for a in vars(opt).values() if isinstance(a, np.ndarray)]
        assert sorted(map(id, held)) == sorted(map(id, [opt.slots] + slots))
        assert opt.slots.shape == (len(slots), 3) and _rows_of_slots(opt)
        assert len(slots) == len(opt.state_slots())
        assert all(buf.shape == (3,) and not buf.any() for buf in slots)
        opt.step(np.ones(3), np.ones(3), 1e-3)
        scratch = [opt._scratch]
        held = [a for a in vars(opt).values() if isinstance(a, np.ndarray)]
        assert sorted(map(id, held)) == sorted(map(id, [opt.slots] + slots + scratch))
        for a, b in itertools.combinations(slots + scratch, 2):
            assert not np.shares_memory(a, b)


def _rows_of_slots(opt):
    """Whether each slot name is the row of ``opt.slots`` at its place in ``slot_names``."""
    return len(opt.slots) == len(opt.slot_names) and all(
        getattr(opt, name).__array_interface__ == row.__array_interface__
        for name, row in zip(opt.slot_names, opt.slots)
    )


class TestSlotBlock:
    """The slots are the rows of one ``(S, *shape)`` array, ``slots``."""

    @pytest.mark.parametrize("name", list(FRESH_STATES))
    def test_every_layout_is_a_row_per_slot(self, name):
        opt = FRESH_STATES[name](5)
        assert _rows_of_slots(opt) and opt.slots.shape == (len(opt.slot_names), 5)
        for index in ([0] * 4, np.array([True, False, True, True])):
            opt.select_rows(index)
            assert _rows_of_slots(opt)
            assert opt.slots.shape == (len(opt.slot_names), *opt.shape)
            assert opt.slots.flags.c_contiguous
            assert all(buf.flags.c_contiguous for buf in opt.state_slots().values())
        assert opt.shape == (3, 5)

    def test_each_piece_of_a_split_step_is_a_row_per_slot(self, monkeypatch):
        opt = Ad3EMAMix(SPLIT_FLOOR // 2)
        opt.select_rows([0] * 3)
        seen, mixture = [], AdamFamily._kernel

        def recorded(view, new, *args):
            seen.append(_rows_of_slots(view) and view.shape == new.shape == view._scratch.shape
                        and np.shares_memory(view.slots, opt.slots))
            mixture(view, new, *args)

        monkeypatch.setattr(AdamFamily, "_kernel", recorded)
        theta = np.ones(opt.shape)
        opt.step(theta, theta, np.full((3, 1), 1e-3))
        assert len(seen) > 1 and all(seen) and _rows_of_slots(opt)

    def test_select_rows_copies_each_row_into_every_slot(self):
        opt = Ad3EMAMix(2)
        opt.slots[...] = np.arange(8.0).reshape(4, 2)
        opt.select_rows([0] * 3)
        opt.select_rows(np.array([True, False, True]))
        assert [opt.m1.tolist(), opt.nu.tolist()] == [[[0.0, 1.0]] * 2, [[6.0, 7.0]] * 2]

    @pytest.mark.parametrize("kind", sorted(STEP_KINDS))
    def test_a_deep_copy_binds_its_slots_to_its_own_block(self, kind):
        factory, method, _ = STEP_KINDS[kind]
        opt = factory(4)
        opt.select_rows([0] * 3)
        theta, args = np.ones((3, 4)), _step_args(kind, opt, None)
        new = getattr(opt, method)(theta, theta, np.full((3, 1), 1e-2), *args)
        assert not opt.__getstate__().keys() & set(opt.slot_names)  # the block is copied once
        dup = copy.deepcopy(opt)
        assert _rows_of_slots(dup) and not np.shares_memory(dup.slots, opt.slots)
        assert not np.shares_memory(dup._scratch, opt._scratch)
        assert dup.slots.tobytes() == opt.slots.tobytes()
        getattr(dup, dup.slot_names[-1])[1, 2] = np.inf
        assert finite_rows(new, *dup.slots).tolist() == [True, False, True]
        assert finite_rows(new, *opt.slots) is None

    @pytest.mark.parametrize("kind", list(FRESH_STATES))
    def test_getstate_holds_no_array_but_the_block_and_the_scratch(self, kind):
        # every other array is a view of the block, which a copy binds anew
        opt = FRESH_STATES[kind](3)
        opt.step(np.ones(3), np.ones(3), 1e-3)
        state = opt.__getstate__()
        assert {k for k, v in state.items() if isinstance(v, np.ndarray)} == {"_block", "_scratch"}

    def test_an_experiment_copied_past_step_one_checks_its_own_slots(self):
        cfg = parse_config(
            "testbed.kind = rosenbrock\noptimizer.kind = ademamix\nlr.kind = constant\n"
            "lr.value = 0.001\nrun.steps = 10\n"
        )
        exp = Experiment(cfg)
        exp.run(until=2)
        dup = copy.deepcopy(exp)
        assert _rows_of_slots(dup.opt) and not np.shares_memory(dup.opt.slots, exp.opt.slots)
        dup.opt.nu[0, 1] = np.nan
        assert finite_rows(dup.theta, *dup.opt.slots).tolist() == [False]
        dup._step()
        assert dup.record.diverged_step == 3 and exp._live
        exp._step()
        assert exp.opt.t == 3 and not exp.record.diverged


FLOAT_KEYS = [
    (kind, key) for kind, cls in OPTIMIZERS.items() for key, default in cls.defaults.items()
    if type(default) is not int and type(default) is not tuple
]
INT_KEYS = [
    (kind, key) for kind, cls in OPTIMIZERS.items() for key, default in cls.defaults.items()
    if type(default) is int
]


class TestTypedConstructor:
    """The base constructor types each keyword like its default."""

    def test_every_kind_declares_defaults(self):
        for cls in OPTIMIZERS.values():
            assert cls.defaults

    @pytest.mark.parametrize("kind,key", FLOAT_KEYS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf, True, "abc", [0.5],
                                       np.float64("nan"), np.True_])
    def test_float_key_refuses_non_numbers(self, kind, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be a finite number"):
            OPTIMIZERS[kind](2, **{key: value})

    @pytest.mark.parametrize("kind,key", FLOAT_KEYS)
    def test_float_key_takes_python_and_numpy_numbers(self, kind, key):
        cls = OPTIMIZERS[kind]
        ok = {"beta1": 0.5, "beta2": 0.5, "beta3": 0.95, "beta4": 0.95, "beta": 0.5,
              "alpha": 0.5, "weight_decay": 0.5, "eps": 0.5, "beta_start": 0.5}[key]
        for value in (ok, np.float64(ok), np.float32(ok)):
            opt = cls(2, **{key: value})
            assert type(getattr(opt, key)) is float and getattr(opt, key) == float(value)

    def test_an_int_for_a_float_key_is_a_float(self):
        assert type(AdamW(2, weight_decay=1).weight_decay) is float
        assert type(Lion(2, alpha=np.int64(1)).alpha) is float

    @pytest.mark.parametrize("kind,key", INT_KEYS)
    @pytest.mark.parametrize("value", [True, 2.5, "abc", float("inf"), float("nan"), [3]])
    def test_int_key_refuses_non_step_counts(self, kind, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be a whole number of steps"):
            OPTIMIZERS[kind](2, **{key: value})

    @pytest.mark.parametrize("value", [10**400, -(10**400), 10**5000],
                             ids=["10**400", "-10**400", "10**5000"])
    @pytest.mark.parametrize("kind,key", FLOAT_KEYS + INT_KEYS + [("aggmo", "betas")])
    def test_an_int_beyond_the_float_range_is_refused(self, kind, key, value):
        what = "a whole number of steps" if (kind, key) in INT_KEYS else "a finite number"
        with pytest.raises(ValueError, match=f"^{key} must be {what}, got "):
            OPTIMIZERS[kind](2, **{key: [value] if key == "betas" else value})

    @pytest.mark.parametrize("kind,key", INT_KEYS)
    def test_int_key_takes_whole_numbers(self, kind, key):
        for value in (3, 3.0, np.int64(3), np.float64(3.0)):
            opt = OPTIMIZERS[kind](2, **{key: value})
            assert type(getattr(opt, key)) is int and getattr(opt, key) == 3

    @pytest.mark.parametrize("value", [[0.5, 0.9], (0.5, 0.9), [np.float64(0.5), 0.9]])
    def test_tuple_key_takes_a_list_or_a_tuple(self, value):
        opt = AggMo(2, betas=value)
        assert opt.betas == (0.5, 0.9) and all(type(b) is float for b in opt.betas)
        assert opt.hyper() == {"betas": (0.5, 0.9)}
        assert AggMo(2, betas=opt.hyper()["betas"]).betas == opt.betas

    @pytest.mark.parametrize("value", [0.5, np.float64(0.5), [0.5], (0.5,)])
    def test_tuple_key_takes_one_number(self, value):
        opt = AggMo(2, betas=value)
        assert opt.betas == (0.5,) and opt.slot_names == ("m0",)
        assert opt.hyper() == {"betas": (0.5,)}
        assert restore_optimizer(load_state(save_state(opt))).betas == (0.5,)

    @pytest.mark.parametrize("value", [True, [0.5, float("nan")], [0.5, True], "0.5,inf",
                                       "abc", "0.5;0.9", "", "0.5,0.9", "0.5"])
    def test_tuple_key_refuses_the_rest(self, value):
        with pytest.raises(ValueError, match="^betas must be"):
            AggMo(2, betas=value)

    def test_tuple_key_needs_one_value(self):
        with pytest.raises(ValueError, match="need at least one momentum coefficient"):
            AggMo(2, betas=())

    @pytest.mark.parametrize("kind", list(FRESH_STATES))
    def test_every_kind_has_one_scratch(self, kind):
        # made by a state's first step, and again by the first step in a new shape
        opt = FRESH_STATES[kind](2)
        assert opt._scratch is None
        opt.step(np.ones(2), np.ones(2), 1e-3)
        scratch = opt._scratch
        assert scratch.shape == (2,) and "_scratch" not in opt.state_slots()
        opt.step(np.ones(2), np.ones(2), 1e-3)
        assert opt._scratch is scratch
        opt.select_rows([0] * 3)
        assert opt._scratch is None
        opt.step(np.ones((3, 2)), np.ones((3, 2)), np.full((3, 1), 1e-3))
        assert opt._scratch.shape == opt.shape == (3, 2)

    @pytest.mark.parametrize("cls", [AdEMAMix, Ad3EMAMix])
    def test_zero_decays_build_without_a_warmup(self, cls):
        opt = cls(2, beta1=0.0, beta3=0.0)
        assert opt.beta_start == 0.0
        assert opt.schedule_args(1)[1] == 0.0

    def test_negative_slow_warmup_is_refused(self):
        with pytest.raises(ValueError, match="horizon must be >= 0"):
            AdEMAMix(2, t_beta3=-1)
