import copy
import hashlib
import pickle
import re

import numpy as np
import pytest

from emx.numerics import StepStreams, spawn_rng
from emx.testbeds import (
    TESTBEDS,
    AnalyticTestbed,
    SyntheticDataset,
    TinyMlp,
    finite_difference_grad,
    gradient_check,
    rosenbrock,
    sharp_valley,
)

GRAD_TOL = 1e-6


class TestRosenbrock:
    def test_global_minimum(self):
        loss, grad = rosenbrock(np.array([1.0, 1.0]))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_origin(self):
        loss, grad = rosenbrock(np.array([0.0, 0.0]))
        assert loss == 1.0
        np.testing.assert_array_equal(grad, [-2.0, 0.0])

    def test_start_point_matches_finite_differences(self):
        bed = AnalyticTestbed(rosenbrock, (1.0, 1.0))
        assert gradient_check(bed, np.array([-3.0, 5.0])) <= GRAD_TOL

    def test_nonnegative_and_zero_only_at_optimum(self):
        rng = spawn_rng(5)
        for _ in range(50):
            theta = rng.uniform(-4, 4, size=2)
            loss, _ = rosenbrock(theta)
            assert loss >= 0.0
        assert rosenbrock(np.array([1.0, 1.0]))[0] == 0.0


class TestSharpValley:
    def test_minimum(self):
        loss, grad = sharp_valley(np.array([1.0, 4.0]))
        assert loss == 0.0
        np.testing.assert_allclose(grad, [0.0, 0.0], atol=1e-15)

    def test_flat_direction_gradient(self):
        for x in (-2.0, 0.0, 0.3, 5.0):
            _, grad = sharp_valley(np.array([x, 1.5]))
            assert grad[1] == pytest.approx(-2.5, abs=1e-15)

    def test_start_point_matches_finite_differences(self):
        bed = AnalyticTestbed(sharp_valley, (1.0, 4.0))
        assert gradient_check(bed, np.array([0.3, 1.5])) <= GRAD_TOL

    def test_nonnegative(self):
        rng = spawn_rng(6)
        for _ in range(50):
            theta = rng.uniform(-3, 5, size=2)
            loss, _ = sharp_valley(theta)
            assert loss >= 0.0


class TestGradientChecks:
    @pytest.mark.parametrize("kind", ["rosenbrock", "valley"])
    def test_twenty_seeded_points(self, kind):
        bed = TESTBEDS[kind](0)[0]
        rng = spawn_rng(2024)
        for _ in range(20):
            theta = rng.uniform(-3, 3, size=2)
            assert gradient_check(bed, theta) <= GRAD_TOL

    def test_finite_differences_on_quadratic(self):
        grad = finite_difference_grad(lambda x: float(np.sum(x**2)), np.array([1.0, -2.0]))
        np.testing.assert_allclose(grad, [2.0, -4.0], rtol=1e-9)


class TestTinyMlp:
    def test_zero_everything_gives_zero_loss(self):
        mlp = TinyMlp((4, 8, 1))
        theta = np.zeros(mlp.dim)
        batch = (np.zeros((3, 4)), np.zeros((3, 1)))
        assert mlp.loss(theta, batch) == 0.0

    def test_param_count(self):
        mlp = TinyMlp((16, 64, 64, 1))
        assert mlp.dim == 16 * 64 + 64 + 64 * 64 + 64 + 64 * 1 + 1

    def test_gradient_matches_finite_differences(self):
        mlp = TinyMlp((4, 8, 1))
        rng = spawn_rng(7)
        theta = mlp.init_params(rng)
        batch = (rng.standard_normal((5, 4)), rng.standard_normal((5, 1)))
        assert gradient_check(mlp, theta, batch) <= GRAD_TOL

    def test_twenty_seeded_gradient_checks(self):
        mlp = TinyMlp((3, 6, 1))
        rng = spawn_rng(99)
        batch = (rng.standard_normal((4, 3)), rng.standard_normal((4, 1)))
        for _ in range(20):
            theta = rng.standard_normal(mlp.dim) * 0.5
            assert gradient_check(mlp, theta, batch) <= GRAD_TOL

    def test_duplicated_batch_leaves_loss_and_grad_unchanged(self):
        mlp = TinyMlp((4, 8, 1))
        rng = spawn_rng(8)
        theta = mlp.init_params(rng)
        x = rng.standard_normal((5, 4))
        y = rng.standard_normal((5, 1))
        loss1, grad1 = mlp.loss_and_grad(theta, (x, y))
        loss2, grad2 = mlp.loss_and_grad(
            theta, (np.concatenate([x, x]), np.concatenate([y, y]))
        )
        assert loss1 == pytest.approx(loss2, rel=1e-14)
        np.testing.assert_allclose(grad1, grad2, rtol=1e-12)

    def test_needs_input_and_output_widths(self):
        with pytest.raises(ValueError, match="need at least input and output dims"):
            TinyMlp((4,))

    @pytest.mark.parametrize("width", [0, -1, 2.5, True, "8", None])
    def test_a_width_that_is_not_an_int_from_one_is_refused(self, width):
        want = f"layer_dims must be >= 1 (an integer), got {width!r}"
        with pytest.raises(ValueError, match=re.escape(want)):
            TinyMlp((4, width, 1))

    @pytest.mark.parametrize("method", ["forward", "loss", "loss_and_grad"])
    @pytest.mark.parametrize(
        "shape, width, problem",
        [
            ((49,), 5, r"inputs of shape \(2, 5\), not \(batch, 4\)"),
            ((3, 49), 5, r"inputs of shape \(2, 5\), not \(batch, 4\)"),
            ((54,), 4, r"theta of shape \(54,\), not \(49,\) or \(K, 49\)"),
            ((48,), 4, r"theta of shape \(48,\), not \(49,\) or \(K, 49\)"),
            ((3, 54), 4, r"theta of shape \(3, 54\), not \(49,\) or \(K, 49\)"),
            ((2, 2, 49), 4, r"theta of shape \(2, 2, 49\), not \(49,\) or \(K, 49\)"),
        ],
        ids=["wide_batch", "wide_batch_rows", "long", "short", "long_rows", "three_axes"],
    )
    def test_wrong_shapes_are_named(self, method, shape, width, problem):
        mlp = TinyMlp((4, 8, 1))
        inputs = np.zeros((2, width))
        args = (inputs,) if method == "forward" else ((inputs, np.zeros((2, 1))),)
        with pytest.raises(ValueError, match=problem):
            getattr(mlp, method)(np.zeros(shape), *args)

    @pytest.mark.parametrize(
        "theta_shape, inputs_shape, targets_shape, problem",
        [
            ((3, 49), (2, 5, 4), (5, 1), r"inputs of shape \(2, 5, 4\), not \(batch, 4\) or "
                                         r"\(3, batch, 4\)"),
            ((3, 49), (4, 5, 4), (3, 5, 1), r"inputs of shape \(4, 5, 4\)"),
            ((3, 49), (3, 5, 4), (2, 5, 1), r"targets of shape \(2, 5, 1\), not \(batch, 1\) "
                                            r"or \(3, batch, 1\)"),
            ((3, 49), (5, 4), (3, 5, 2), r"targets of shape \(3, 5, 2\)"),
            ((49,), (1, 5, 4), (5, 1), r"inputs of shape \(1, 5, 4\), not \(batch, 4\)$"),
            ((49,), (5, 4), (1, 5, 1), r"targets of shape \(1, 5, 1\), not \(batch, 1\)$"),
            ((49,), (5, 4), (1, 1), r"targets of shape \(1, 1\), not the inputs' batch of 5$"),
            ((49,), (5, 4), (3, 1), r"targets of shape \(3, 1\), not the inputs' batch of 5$"),
            ((3, 49), (5, 4), (3, 1, 1), r"targets of shape \(3, 1, 1\), not the inputs' "
                                         r"batch of 5$"),
            ((3, 49), (3, 5, 4), (1, 1), r"targets of shape \(1, 1\), not the inputs' batch of 5$"),
            ((3, 49), (3, 5, 4), (3, 2, 1), r"targets of shape \(3, 2, 1\), not the inputs' "
                                            r"batch of 5$"),
        ],
        ids=["rows_short", "rows_long", "targets_rows_short", "targets_wide", "point_inputs",
             "point_targets", "point_targets_of_one", "point_targets_short",
             "rows_targets_of_one", "per_row_inputs_shared_targets", "per_row_targets_short"],
    )
    def test_per_row_batches_must_match_the_rows(
            self, theta_shape, inputs_shape, targets_shape, problem):
        mlp = TinyMlp((4, 8, 1))
        theta, batch = np.zeros(theta_shape), (np.zeros(inputs_shape), np.zeros(targets_shape))
        calls = [lambda: mlp.loss(theta, batch), lambda: mlp.loss_and_grad(theta, batch)]
        if problem.startswith("inputs"):  # forward takes no targets
            calls.append(lambda: mlp.forward(theta, batch[0]))
        for call in calls:
            with pytest.raises(ValueError, match=problem):
                call()

    def test_forward_deterministic(self):
        mlp = TinyMlp((4, 8, 1))
        rng = spawn_rng(9)
        theta = mlp.init_params(rng)
        x = rng.standard_normal((3, 4))
        assert np.array_equal(mlp.forward(theta, x), mlp.forward(theta, x))

    def test_loss_and_grad_shares_the_forward_pass(self):
        mlp = TinyMlp((4, 8, 8, 2))
        rng = spawn_rng(10)
        theta = mlp.init_params(rng)
        batch = (rng.standard_normal((5, 4)), rng.standard_normal((5, 2)))
        assert mlp.loss_and_grad(theta, batch)[0] == mlp.loss(theta, batch)


@pytest.mark.parametrize("kind", sorted(TESTBEDS))
def test_rows_have_the_bits_of_each_row_alone(kind):
    testbed, dataset, theta0 = TESTBEDS[kind](4)
    batch = dataset.batch(1) if dataset else None
    rows = np.stack([theta0, theta0 * 0.5 - 0.25, np.full(theta0.shape, 1e200), -theta0])
    losses, grad = testbed.loss_and_grad(rows, batch)
    alone = [testbed.loss_and_grad(row, batch) for row in rows]
    assert np.array(losses).tobytes() == np.array([loss for loss, _ in alone]).tobytes()
    assert grad.shape == rows.shape
    assert grad.tobytes() == np.array([g for _, g in alone]).tobytes()
    assert not np.isfinite(grad[2]).all()
    row_losses = np.array(testbed.loss(rows, batch))
    assert row_losses.tobytes() == np.array([testbed.loss(r, batch) for r in rows]).tobytes()


@np.errstate(over="ignore", invalid="ignore")
def per_row_pass_before_stacking(mlp, theta, batch):
    """One point's ``(loss, gradient, output)`` by the 2-D pass ``TinyMlp`` ran
    once per row before its rows ran as one stacked pass."""
    inputs, targets = batch
    layers = [(theta[w].reshape(d_in, d_out), theta[b]) for d_in, d_out, w, b in mlp._shapes]
    activations = [inputs]
    for i, (w, b) in enumerate(layers):
        z = activations[-1] @ w + b
        activations.append(z if i == len(layers) - 1 else np.tanh(z))
    diff = activations[-1] - targets
    grad = np.zeros_like(theta)
    d_a = 2.0 * diff / diff.size
    for i in range(len(layers) - 1, -1, -1):
        a_out = activations[i + 1]
        d_z = d_a if i == len(layers) - 1 else d_a * (1.0 - a_out * a_out)
        _, _, w_slice, b_slice = mlp._shapes[i]
        grad[w_slice] = (activations[i].T @ d_z).ravel()
        grad[b_slice] = d_z.sum(axis=0)
        if i:
            d_a = d_z @ layers[i][0].T
    return float(np.mean(diff**2)), grad, activations[-1]


@pytest.mark.parametrize(
    "layer_dims",
    [(16, 64, 64, 1), (16, 128, 64, 1), (4, 8, 1), (32, 64, 64, 64, 1), (3, 1), (16, 64, 64, 2)],
)
def test_stacked_pass_has_the_bits_of_the_per_row_pass(layer_dims):
    mlp = TinyMlp(layer_dims)
    rng = spawn_rng(sum(layer_dims))
    for size in (1, 7, 32, 256):
        batch = (rng.standard_normal((size, layer_dims[0])),
                 rng.standard_normal((size, layer_dims[-1])))
        for k in (1, 2, 3, 5, 8):
            rows = np.stack([mlp.init_params(rng) for _ in range(k)])
            rows[k // 2] = 1e200  # overflows to inf and nan; alone when k == 1
            alone = [per_row_pass_before_stacking(mlp, row, batch) for row in rows]
            losses, grad = mlp.loss_and_grad(rows, batch)
            assert np.array(losses).tobytes() == np.array([a[0] for a in alone]).tobytes()
            assert grad.tobytes() == np.array([a[1] for a in alone]).tobytes()
            assert np.array(mlp.loss(rows, batch)).tobytes() == np.array(losses).tobytes()
            outputs = np.array([a[2] for a in alone])
            assert mlp.forward(rows, batch[0]).tobytes() == outputs.tobytes()
            row, (loss, row_grad, out) = rows[-1], alone[-1]
            one_loss, one_grad = mlp.loss_and_grad(row, batch)
            assert type(one_loss) is float and one_grad.shape == (mlp.dim,)
            assert np.float64(one_loss).tobytes() == np.float64(loss).tobytes()
            assert one_grad.tobytes() == row_grad.tobytes()
            assert type(mlp.loss(row, batch)) is float
            assert np.float64(mlp.loss(row, batch)).tobytes() == np.float64(loss).tobytes()
            assert mlp.forward(row, batch[0]).tobytes() == out.tobytes()
        for k in (2, 3, 6, 8):  # one batch per row, (K, B, width)
            rows = np.stack([mlp.init_params(rng) for _ in range(k)])
            rows[k // 2] = 1e200
            inputs = rng.standard_normal((k, size, layer_dims[0]))
            targets = rng.standard_normal((k, size, layer_dims[-1]))
            for shared_targets in (False, True):
                batch = (inputs, targets[0] if shared_targets else targets)
                per_row = zip(rows, inputs, np.broadcast_to(batch[1], targets.shape))
                alone = [per_row_pass_before_stacking(mlp, row, (x, y)) for row, x, y in per_row]
                losses, grad = mlp.loss_and_grad(rows, batch)
                assert np.array(losses).tobytes() == np.array([a[0] for a in alone]).tobytes()
                assert grad.tobytes() == np.array([a[1] for a in alone]).tobytes()
                assert np.array(mlp.loss(rows, batch)).tobytes() == np.array(losses).tobytes()
            outputs = np.array([a[2] for a in alone])
            assert mlp.forward(rows, inputs).tobytes() == outputs.tobytes()


def _batch_digest(batch):
    x, y = batch
    return hashlib.sha256(x.tobytes() + y.tobytes()).hexdigest()


class TestSyntheticDataset:
    def test_stream_is_pure_function_of_seed_and_step(self):
        a = SyntheticDataset(input_dim=4, batch_size=8, seed=5)
        b = SyntheticDataset(input_dim=4, batch_size=8, seed=5)
        for t in (1, 2, 17, 500):
            assert _batch_digest(a.batch(t)) == _batch_digest(b.batch(t))
        assert _batch_digest(a.batch(1)) != _batch_digest(a.batch(2))
        c = SyntheticDataset(input_dim=4, batch_size=8, seed=6)
        assert _batch_digest(a.batch(1)) != _batch_digest(c.batch(1))

    def test_heldout_batch_never_appears_in_stream(self):
        ds = SyntheticDataset(input_dim=4, batch_size=8, seed=5)
        heldout = _batch_digest(ds.heldout_batch())
        seen = {_batch_digest(ds.batch(t)) for t in range(1, 301)}
        assert heldout not in seen

    def test_teacher_gives_learnable_signal(self):
        ds = SyntheticDataset(input_dim=4, batch_size=64, seed=12, noise=0.05)
        x, y = ds.batch(1)
        # targets carry structure beyond the noise floor
        assert float(np.var(y)) > 0.05**2 * 2

    def test_eval_batch_fixed(self):
        ds = SyntheticDataset(input_dim=4, batch_size=8, seed=5)
        assert _batch_digest(ds.eval_batch()) == _batch_digest(ds.eval_batch())

    @pytest.mark.parametrize("key, value, want", [
        ("input_dim", 2.7, "input_dim must be >= 1 (an integer), got 2.7"),
        ("input_dim", 0, "input_dim must be >= 1 (an integer), got 0"),
        ("eval_size", 0, "eval_size must be >= 1 (an integer), got 0"),
        ("eval_size", 8.0, "eval_size must be >= 1 (an integer), got 8.0"),
        ("seed", 1.5, "seed must be >= 0 (an integer), got 1.5"),
        ("seed", -1, "seed must be >= 0 (an integer), got -1"),
        ("noise", float("nan"), "noise must be a finite number, got nan"),
        ("noise", "0.1", "noise must be a finite number, got '0.1'"),
    ])
    def test_an_argument_out_of_its_domain_is_refused(self, key, value, want):
        with pytest.raises(ValueError, match=re.escape(want)):
            SyntheticDataset(**{"input_dim": 4, "batch_size": 8, "seed": 5, key: value})


def batch_from_one_stream(ds, t):
    """Step ``t``'s batch as made before blocks: inputs, then noise, from
    ``spawn_rng(seed, 0, t)``, and a one-batch teacher pass."""
    rng = spawn_rng(ds.seed, 0, t)
    inputs = rng.standard_normal((ds.batch_size, ds.input_dim))
    teacher = TinyMlp((ds.input_dim, 64, 64, 1))
    clean = teacher.forward(teacher.init_params(spawn_rng(ds.seed, 2)), inputs)
    return inputs, clean + ds.noise * rng.standard_normal(clean.shape)


class TestBlocks:
    @pytest.mark.parametrize("input_dim", [1, 16, 100])
    @pytest.mark.parametrize("batch_size", [1, 3, 32, 33, 128, 129])
    def test_a_batch_is_its_one_stream_batch_in_any_order(self, batch_size, input_dim):
        n = max(1, 128 // batch_size)
        steps = sorted({1, 2, n, n + 1, n + 2, 2 * n, 2 * n + 1, 3 * n})  # across block edges
        want = {t: _batch_digest(batch_from_one_stream(
            SyntheticDataset(input_dim, batch_size, seed=7), t)) for t in steps}
        shuffled = list(np.random.default_rng(batch_size * input_dim).permutation(steps))
        for order in (steps, steps[::-1], shuffled):
            ds = SyntheticDataset(input_dim, batch_size, seed=7)
            assert [_batch_digest(ds.batch(t)) for t in order] == [want[t] for t in order]

    def test_heldout_and_eval_batches_are_one_stream_batches(self):
        ds = SyntheticDataset(input_dim=5, batch_size=6, seed=3, eval_size=40)
        for batch, key, size in ((ds.heldout_batch(), 1, 6), (ds.eval_batch(), 4, 40)):
            rng = spawn_rng(3, key, 0)
            inputs = rng.standard_normal((size, 5))
            teacher = TinyMlp((5, 64, 64, 1))
            clean = teacher.forward(teacher.init_params(spawn_rng(3, 2)), inputs)
            assert _batch_digest(batch) == _batch_digest(
                (inputs, clean + 0.05 * rng.standard_normal(clean.shape)))

    def test_a_served_batch_is_read_only(self):
        x, y = SyntheticDataset(input_dim=4, batch_size=8, seed=5).batch(3)
        for array in (x, y):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0

    @pytest.mark.parametrize("t", [True, False, 0, -1, 2.0, 1.5, "1", None, np.int64(-1),
                                   np.float64(3.0), np.bool_(True)])
    def test_a_step_that_is_not_an_int_from_one_is_refused(self, t):
        ds = SyntheticDataset(input_dim=4, batch_size=8, seed=5)
        with pytest.raises(ValueError, match=re.escape(f"batch step t must be an int >= 1, got {t!r}")):
            ds.batch(t)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_a_batch_size_below_one_is_refused(self, batch_size):
        want = f"batch_size must be >= 1 (an integer), got {batch_size}"
        with pytest.raises(ValueError, match=re.escape(want)):
            SyntheticDataset(input_dim=4, batch_size=batch_size, seed=5)

    @pytest.mark.parametrize("batch_size", [1, 3, 32, 33, 129])
    def test_a_block_cut_at_the_last_step_keeps_every_batch(self, batch_size, monkeypatch):
        n = max(1, 128 // batch_size)
        full = SyntheticDataset(4, batch_size, seed=7)
        want = {t: _batch_digest(full.batch(t)) for t in range(1, 2 * n + 2)}
        made, rng = [], StepStreams.rng
        monkeypatch.setattr(StepStreams, "rng", lambda streams, t: made.append(t) or rng(streams, t))
        for last in sorted({1, 2, n - 1, n, n + 1, 2 * n - 1, 2 * n + 1} - {0}):
            ds, made[:] = SyntheticDataset(4, batch_size, seed=7), []
            assert [_batch_digest(ds.batch(t, last)) for t in range(1, last + 1)] == [
                want[t] for t in range(1, last + 1)]
            assert made == list(range(1, last + 1))  # no batch past the last step

    def test_a_step_past_the_last_is_still_served(self):
        ds = SyntheticDataset(4, 8, seed=7)  # blocks of 16 steps
        assert _batch_digest(ds.batch(3, 2)) == _batch_digest(SyntheticDataset(4, 8, seed=7).batch(3))
        assert _batch_digest(ds.batch(2, 2)) == _batch_digest(SyntheticDataset(4, 8, seed=7).batch(2))

    @pytest.mark.parametrize("last", [0, -1, 2.0, True, "3"])
    def test_a_last_step_that_is_not_an_int_from_one_is_refused(self, last):
        ds = SyntheticDataset(4, 8, seed=5)
        with pytest.raises(ValueError, match=re.escape("last must be >= 1 (an integer)")):
            ds.batch(1, last)
        ds.batch(1, 10)
        with pytest.raises(ValueError, match=re.escape("last must be >= 1 (an integer)")):
            ds.batch(2, last)  # also when the step is served from the block

    def test_copies_carry_the_block_read_only(self, monkeypatch):
        ds = SyntheticDataset(input_dim=5, batch_size=6, seed=3)
        made, synthesize = [], SyntheticDataset._synthesize
        monkeypatch.setattr(SyntheticDataset, "_synthesize",
                            lambda self, *args: made.append(args) or synthesize(self, *args))
        ds.batch(3)
        for dup in (copy.deepcopy(ds), pickle.loads(pickle.dumps(ds))):
            assert _batch_digest(dup.batch(2)) == _batch_digest(ds.batch(2))
            for array in dup.batch(2):
                with pytest.raises(ValueError, match="read-only"):
                    array[0, 0] = 1.0
        assert len(made) == 1  # the block of step 3, made before the copies

    def test_numpy_int_steps_are_steps(self):
        ds = SyntheticDataset(input_dim=4, batch_size=8, seed=5)
        want = _batch_digest(batch_from_one_stream(ds, 20))
        for t in (np.int64(20), np.uint32(20), np.int8(20), 20):
            assert _batch_digest(ds.batch(t)) == want
