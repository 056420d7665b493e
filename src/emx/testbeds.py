"""Differentiable test objectives with analytic gradients.

Two 2-D landscapes (a banana valley and a sharp asymmetric valley), a tiny
tanh MLP with hand-written backprop for regression on synthetic data, and a
finite-difference gradient checker. Everything is deterministic given
(theta, batch), and every analytic gradient is validated against central
differences in the test suite. Every testbed's ``loss`` and ``loss_and_grad``
also take a ``(K, dim)`` array, one point per row, and evaluate every row in
one call, each with the bits it would get alone: the landscapes in Python
floats per row, the MLP as one stacked pass whose ``matmul`` runs one
``gemm`` per row and whose sums stay within a row, on one batch shared by
every row or on one batch per row. The same stacked pass makes the
synthetic data: :class:`SyntheticDataset` runs its teacher once over a
block of steps' batches, and each batch keeps the bits of its own pass.

:data:`TESTBEDS` maps each ``testbed.kind`` to a factory ``(seed, **params) ->
(testbed, dataset or None, theta0)``; its keywords are the ``testbed.*`` keys.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import StepStreams, spawn_rng
from .schedules import finite_number, integer

# spawn-key namespaces for dataset streams (first key component)
_KEY_TRAIN = 0
_KEY_HELDOUT = 1
_KEY_TEACHER = 2
_KEY_INIT = 3
_KEY_EVAL = 4


def _square(v: float) -> float:
    """``v ** 2`` by C ``pow``, which rounds like ``np.float64 ** 2`` (an
    array's ``** 2`` does not on every value); inf where Python's ``**``
    raises on overflow, as numpy's would give."""
    try:
        return v**2
    except OverflowError:
        return math.inf


def _landscape(point_fn, theta) -> tuple:
    """``(value, gradient)`` of one point, or of each row of a ``(K, 2)``
    array (then the values are a list), from ``point_fn(x, y) -> (value, dx,
    dy)``. Each point is evaluated in Python floats, whose ``+ - *`` round
    like numpy's, so a row gets the bits it would get alone."""
    points = np.atleast_2d(np.asarray(theta, dtype=np.float64)).tolist()
    values = [point_fn(*point) for point in points]
    grad = np.array([v[1:] for v in values])
    if np.ndim(theta) == 1:
        return values[0][0], grad[0]
    return [v[0] for v in values], grad


def _rosenbrock_point(x1, x2):
    gap = x2 - x1 * x1
    loss = _square(1.0 - x1) + 100.0 * gap * gap
    return loss, -2.0 * (1.0 - x1) - 400.0 * x1 * gap, 200.0 * gap


def rosenbrock(theta) -> tuple:
    """Banana-valley function f(x1, x2) = (1-x1)^2 + 100*(x2-x1^2)^2.

    Global minimum at (1, 1). Returns (value, analytic gradient) of one point,
    or of each row of a ``(K, 2)`` array: then the values are a list and the
    gradients rows. Overflow on absurd iterates propagates as inf
    (divergence detection reads this) instead of raising.
    """
    return _landscape(_rosenbrock_point, theta)


def _valley_point(x, y):
    poly = 1.3 * x * x + 2.0 * x + 1.0
    square = _square(x - 1.0)
    loss = 8.0 * square * poly + 0.5 * _square(y - 4.0)
    return loss, 8.0 * (2.0 * (x - 1.0) * poly + square * (2.6 * x + 2.0)), y - 4.0


def sharp_valley(theta) -> tuple:
    """f(x, y) = 8*(x-1)^2*(1.3x^2+2x+1) + 0.5*(y-4)^2, of one point or of rows.

    Sharp curvature along x, flat along y; minimum at (1, 4).
    """
    return _landscape(_valley_point, theta)


class AnalyticTestbed:
    """2-D objective wrapping a (value, gradient) function of one point or of rows."""

    def __init__(self, fn, optimum):
        self._fn = fn
        self.dim = 2
        self.optimum = np.asarray(optimum, dtype=np.float64)

    def loss(self, theta, batch=None):
        return self._fn(theta)[0]

    def loss_and_grad(self, theta, batch=None):
        return self._fn(theta)


class TinyMlp:
    """Fully-connected tanh network with parameters in one flat vector.

    ``layer_dims`` gives (input, hidden..., output) widths, each an int >=
    1 (else a ``ValueError`` naming ``layer_dims``). Hidden layers use
    tanh (smooth, so finite-difference checks hold at tight tolerance); the
    output layer is linear. Loss is the mean squared error over all batch
    elements and output coordinates.

    ``forward``, ``loss`` and ``loss_and_grad`` take one point or a ``(K,
    dim)`` array of rows. With rows, the inputs (and the targets) are either
    ``(B, width)``, one batch shared by every row, or ``(K, B, width)``, one
    batch per row; a point takes only ``(B, width)``.
    """

    optimum = None  # no known minimizer

    def __init__(self, layer_dims=(16, 64, 64, 1)):
        if len(layer_dims) < 2:
            raise ValueError("need at least input and output dims")
        self.layer_dims = tuple(integer("layer_dims", d, 1) for d in layer_dims)
        self._shapes = []
        offset = 0
        for d_in, d_out in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            w_slice = slice(offset, offset + d_in * d_out)
            offset += d_in * d_out
            b_slice = slice(offset, offset + d_out)
            offset += d_out
            self._shapes.append((d_in, d_out, w_slice, b_slice))
        self.dim = offset

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        """Gaussian weights scaled by 1/sqrt(fan_in), zero biases."""
        theta = np.zeros(self.dim)
        for d_in, d_out, w_slice, b_slice in self._shapes:
            theta[w_slice] = rng.standard_normal(d_in * d_out) / np.sqrt(d_in)
        return theta

    def _layers(self, theta, *batch) -> list:
        """Each layer's ``(K, d_in, d_out)`` weights and ``(K, 1, d_out)``
        biases, views of the rows of ``theta`` (one point is one row), once
        ``theta`` and the ``batch`` arrays (inputs, then targets) are checked:
        an array is ``(B, width)``, shared by every row, or, for a ``(K,
        dim)`` theta, ``(K, B, width)``, one batch per row, with the inputs'
        batch size ``B``."""
        rows = np.atleast_2d(theta)
        if rows.shape[1:] != (self.dim,):
            raise ValueError(
                f"theta of shape {np.shape(theta)}, not ({self.dim},) or (K, {self.dim})"
            )
        k = len(rows)
        for name, array, width in zip(("inputs", "targets"), batch,
                                      (self.layer_dims[0], self.layer_dims[-1])):
            shape = array.shape
            per_row = len(shape) == 3 and np.ndim(theta) == 2 and shape[0] == k
            if len(shape) != 2 + per_row or shape[-1] != width:
                rows_shape = f" or ({k}, batch, {width})" if np.ndim(theta) == 2 else ""
                raise ValueError(f"{name} of shape {shape}, not (batch, {width}){rows_shape}")
            if shape[-2] != (size := batch[0].shape[-2]):
                raise ValueError(f"{name} of shape {shape}, not the inputs' batch of {size}")
        return [
            (rows[:, w].reshape(k, d_in, d_out), rows[:, np.newaxis, b])
            for d_in, d_out, w, b in self._shapes
        ]

    @np.errstate(over="ignore", invalid="ignore")
    def forward(self, theta: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """The ``(B, d_out)`` output of one point, or ``(K, B, d_out)`` of rows."""
        out = _activations(self._layers(theta, inputs), inputs)[-1]
        return out if np.ndim(theta) == 2 else out[0]

    @np.errstate(over="ignore", invalid="ignore")
    def loss(self, theta, batch):
        """The loss of one point, or the list of each row's loss."""
        inputs, targets = batch
        diff = _activations(self._layers(theta, inputs, targets), inputs)[-1] - targets
        losses = ((diff**2).sum(axis=(1, 2)) / diff[0].size).tolist()
        return losses if np.ndim(theta) == 2 else losses[0]

    @np.errstate(over="ignore", invalid="ignore")
    def loss_and_grad(self, theta, batch):
        """``(loss, gradient)`` of one point, or of each row of a ``(K, dim)``
        array (then the losses are a list and the gradients rows). All rows
        run as one stacked pass: numpy's stacked ``matmul`` runs one ``gemm``
        per row, and every sum and mean runs within a row, so each row gets
        the bits of its own 2-D pass, on the shared batch or on its own."""
        inputs, targets = batch
        layers = self._layers(theta, inputs, targets)
        activations = _activations(layers, inputs)
        diff = activations[-1] - targets
        size = diff[0].size  # per row: the mean's count and the gradient's divisor
        losses = ((diff**2).sum(axis=(1, 2)) / size).tolist()

        grad = np.empty((len(diff), self.dim))
        d_a = 2.0 * diff / size
        for i in range(len(layers) - 1, -1, -1):
            w, _ = layers[i]
            a_out = activations[i + 1]
            d_z = d_a if i == len(layers) - 1 else d_a * (1.0 - a_out * a_out)
            d_in, d_out, w_slice, b_slice = self._shapes[i]
            grad[:, w_slice] = (activations[i].mT @ d_z).reshape(len(grad), d_in * d_out)
            grad[:, b_slice] = d_z.sum(axis=1)
            if i:  # the input layer's d_a would be the gradient of the inputs
                d_a = d_z @ w.mT
        return (losses, grad) if np.ndim(theta) == 2 else (losses[0], grad[0])


def _activations(layers, inputs) -> list:
    """Every layer's output of a :meth:`TinyMlp._layers` list, ``inputs``
    first, ``(K, B, d_out)`` after it."""
    activations = [inputs]
    for i, (w, b) in enumerate(layers):
        z = activations[-1] @ w + b
        activations.append(z if i == len(layers) - 1 else np.tanh(z))
    return activations


class SyntheticDataset:
    """Seeded regression stream: normal inputs, noisy teacher-MLP targets.

    The batch for step ``t`` is a pure function of ``(seed, t)`` through a
    counter-based generator, so any step's batch can be regenerated in O(1)
    and resumed runs see exactly the same stream. A designated held-out batch
    lives in a separate key namespace and therefore never appears in the
    training stream unless injected explicitly.

    Training batches are made a block of steps at a time: :meth:`batch`
    makes the aligned block of ``max(1, 128 // batch_size)`` steps that
    holds ``t`` (so no ``(n, batch, 64)`` teacher temporary reaches glibc's
    128 KiB mmap threshold), cut after the run's last step when the caller
    gives it, with one stacked teacher pass, and serves the block's other
    steps from it. Each step still draws from its own stream, and the
    stacked ``matmul`` runs one ``gemm`` per step, so no batch depends on
    the block it came from. The dataset keeps only the current block (about
    17 KB at batch 32), read-only; a copy or pickle carries it, still
    read-only. The held-out and eval batches are blocks of one.

    ``input_dim``, ``batch_size`` and ``eval_size`` are ints >= 1, ``seed``
    an int >= 0 and ``noise`` a finite number; anything else is a
    ``ValueError`` naming the argument.
    """

    def __init__(self, input_dim=16, batch_size=32, seed=0, noise=0.05, eval_size=256):
        self.input_dim = integer("input_dim", input_dim, 1)
        self.batch_size = integer("batch_size", batch_size, 1)
        self.seed = integer("seed", seed)
        self.noise = finite_number("noise", noise)
        self.eval_size = integer("eval_size", eval_size, 1)
        teacher = TinyMlp((self.input_dim, 64, 64, 1))
        teacher_theta = teacher.init_params(spawn_rng(self.seed, _KEY_TEACHER))
        self._teacher_layers = teacher._layers(teacher_theta)  # fixed weight views
        self._streams = StepStreams(self.seed, _KEY_TRAIN)
        self._block_len = max(1, 128 // self.batch_size)
        self._block_start, self._block = None, None

    def __setstate__(self, state) -> None:
        # numpy's copy and pickle make writeable arrays: keep the block read-only
        self.__dict__.update(state)
        for array in self._block or ():
            array.flags.writeable = False

    def _synthesize(self, rngs, n: int, size: int) -> tuple:
        """Read-only ``(inputs, targets)`` of shape ``(n, size, input_dim)``
        and ``(n, size, 1)``: per generator of ``rngs`` (an iterable of
        ``n``, taken lazily so that each is drawn before the next is made),
        the inputs and then the noise; then one teacher pass over all ``n``
        batches."""
        inputs = np.empty((n, size, self.input_dim))
        noise = np.empty((n, size, 1))
        for rng, x, z in zip(rngs, inputs, noise):
            rng.standard_normal(out=x)
            rng.standard_normal(out=z)
        clean = _activations(self._teacher_layers, inputs)[-1]  # teacher.forward's bits
        targets = clean + self.noise * noise
        inputs.flags.writeable = targets.flags.writeable = False
        return inputs, targets

    def batch(self, t: int, last: int | None = None):
        """Training batch for step t >= 1 (an int), served from its block;
        ``last``, the run's last step (an int >= 1), cuts a block made here
        after it (after ``t`` if ``t`` is later), so that no batch past the
        run is made."""
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or t < 1:
            raise ValueError(f"batch step t must be an int >= 1, got {t!r}")
        t = int(t)
        if last is not None and not (type(last) is int and last >= 1):  # a run's int passes at once
            last = integer("last", last, 1)
        start = t - (t - 1) % self._block_len
        if start != self._block_start or t - start >= len(self._block[0]):
            stop = start + self._block_len
            if last is not None:
                stop = min(stop, max(t, last) + 1)
            self._block_start, self._block = start, self._synthesize(
                map(self._streams.rng, range(start, stop)), stop - start, self.batch_size)
        return self._block[0][t - start], self._block[1][t - start]

    def _fixed_batch(self, namespace: int, size: int) -> tuple:
        inputs, targets = self._synthesize([spawn_rng(self.seed, namespace, 0)], 1, size)
        return inputs[0], targets[0]

    def heldout_batch(self):
        """The designated held-out batch, disjoint from the training stream."""
        return self._fixed_batch(_KEY_HELDOUT, self.batch_size)

    def eval_batch(self):
        """A larger fixed batch for low-variance loss evaluation."""
        return self._fixed_batch(_KEY_EVAL, self.eval_size)


def _rosenbrock(seed, x0=(-3.0, 5.0)):
    return AnalyticTestbed(rosenbrock, (1.0, 1.0)), None, np.asarray(x0, dtype=np.float64)


def _valley(seed, x0=(0.3, 1.5)):
    return AnalyticTestbed(sharp_valley, (1.0, 4.0)), None, np.asarray(x0, dtype=np.float64)


def _mlp(seed, input_dim=16, hidden=(64, 64), batch_size=32, noise=0.05, eval_size=256):
    net = TinyMlp([input_dim, *([hidden] if isinstance(hidden, int) else hidden), 1])
    data = SyntheticDataset(input_dim, batch_size, seed, noise, eval_size)
    return net, data, net.init_params(spawn_rng(seed, _KEY_INIT))


TESTBEDS = {"rosenbrock": _rosenbrock, "valley": _valley, "mlp": _mlp}


def finite_difference_grad(loss_fn, theta, rel_step=1e-5) -> np.ndarray:
    """Central differences with per-coordinate step ``rel_step*max(1, |x_i|)``."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        h = rel_step * max(1.0, abs(theta[i]))
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        grad[i] = (loss_fn(up) - loss_fn(down)) / (2.0 * h)
    return grad


def gradient_check(testbed, theta, batch=None, rel_step=1e-5) -> float:
    """Relative disagreement between analytic and finite-difference gradients.

    Returns ||g_analytic - g_fd|| / max(1, ||g_analytic||, ||g_fd||).
    """
    analytic = testbed.loss_and_grad(theta, batch)[1]
    fd = finite_difference_grad(lambda x: testbed.loss(x, batch), theta, rel_step)
    num = float(np.linalg.norm(analytic - fd))
    den = max(1.0, float(np.linalg.norm(analytic)), float(np.linalg.norm(fd)))
    return num / den
