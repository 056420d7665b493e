import numpy as np
import pytest

from emx.numerics import DivergenceError, make_rng
from emx.optimizers import (
    OPTIMIZERS,
    Ad3EMAMix,
    AdamW,
    AdEMAMix,
    AggMo,
    AdMetaS,
    Lion,
    preseed_momentum,
    switch_to_adamw,
    switch_to_ademamix,
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
        lean = AdEMAMix(2, beta1=0.0, beta3=0.999, alpha=5.0)
        full = AdEMAMix(2, beta1=0.0, beta3=0.999, alpha=5.0, with_m1_buffer=True)
        assert lean.m1 is None and full.m1 is not None
        _, trail_a = rosenbrock_trajectory(lean, 300, 1e-3)
        _, trail_b = rosenbrock_trajectory(full, 300, 1e-3)
        assert trail_a == trail_b

    def test_buffer_cannot_be_dropped_with_momentum(self):
        with pytest.raises(ValueError):
            AdEMAMix(2, beta1=0.9, with_m1_buffer=False)

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
        rng = make_rng(11)
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
        mix = switch_to_ademamix(opt, beta3=0.9999, alpha=2.0)
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
        mix = switch_to_ademamix(opt_a, beta3=beta3, alpha=alpha)
        _, g = rosenbrock(theta)
        out_mix = mix.step(theta, g, 1e-3)
        out_adamw = opt_b.step(theta, g, 1e-3)
        nu_hat = opt_b.nu / (1 - 0.999**opt_b.t)
        m2_term = 1e-3 * alpha * (1 - beta3) * g / (np.sqrt(nu_hat) + 1e-8)
        np.testing.assert_allclose(out_mix, out_adamw - m2_term, atol=1e-15)

    def test_switch_with_zero_alpha_stays_adamw(self):
        opt_a, theta_a = self._train_adamw(30)
        mix = switch_to_ademamix(opt_a, beta3=0.9999, alpha=0.0)
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
        back = switch_to_adamw(mix)
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
        back = switch_to_adamw(mix)
        post_norm = float(np.linalg.norm(back.step(pre_theta, g, 1e-3) - pre_theta))
        assert post_norm < pre_norm


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


class TestKernelAndRegistry:
    def test_registry_maps_kind_to_class(self):
        assert list(OPTIMIZERS) == ["adamw", "ademamix", "lion", "admeta_s", "aggmo", "ad3emamix"]
        assert all(cls.variant == kind for kind, cls in OPTIMIZERS.items())

    def test_constructor_keywords_unchanged(self):
        mix = ["beta1", "beta2", "beta3", "alpha", "weight_decay", "eps", "t_alpha", "t_beta3",
               "beta_start"]
        assert AdamW.keywords() == ["beta1", "beta2", "weight_decay", "eps"]
        assert AdEMAMix.keywords() == mix
        assert Ad3EMAMix.keywords() == [*mix[:3], "beta4", *mix[3:]]
        assert Lion.keywords() == ["alpha", "beta", "weight_decay"]
        assert AdMetaS.keywords() == ["beta1", "beta2"]
        assert AggMo.keywords() == ["betas"]
        AdEMAMix(2, beta1=0.0, with_m1_buffer=True)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: AdamW(2, beta3=0.9),
            lambda: AdamW(2, alpha=1.0),
            lambda: AdamW(2, with_m1_buffer=True),
            lambda: AdamW(2, 0.9),
            lambda: AdEMAMix(2, beta4=0.9),
            lambda: AdEMAMix(2, slow=(0.9,)),
            lambda: Ad3EMAMix(2, with_m1_buffer=True),
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
