"""Optimizers over float64 parameter vectors, one point or rows of points.

One Adam-family kernel, :class:`AdamFamily`, holds the fast EMA ``m1``, the
second moment ``nu`` and zero, one or two slow EMAs sharing one ``alpha``:
the numerator is ``m1_hat + alpha * (m2 [+ m3])``, where only the fast EMA
is bias-corrected, so the slow ones fill up from zero. ``alpha == 0`` skips
the slow term, which makes every step exactly an AdamW step, bit for bit.
:class:`AdamW` (no slow EMA), :class:`AdEMAMix` (``m2``, the paper's
optimizer) and :class:`Ad3EMAMix` (``m2`` and ``m3``) are thin subclasses.
With ``beta1 == 0`` the fast EMA is the raw gradient, so lean AdEMAMix
holds no ``m1``. Baselines with their own update rules: :class:`Lion` (sign
updates), :class:`AdMetaS` (nested EMAs) and :class:`AggMo` (K plain
momentum buffers, ``m0`` ... ``m{K-1}``).

Each class declares its hyperparameters once, in ``defaults`` (keyword ->
default, in ``hyper()`` order; ``hyper()`` gives each value typed like its
default, AggMo's ``betas`` a tuple, and :mod:`emx.checkpoint` alone turns
them into text and back), its state once, in ``slot_names`` (the
slots :func:`preseed_momentum` sets in ``momentum``), and its update once,
in ``_kernel`` (the Adam family's serves ``step`` and ``step_convex``, whose
``1 - alpha_hat`` weighs the fast term). The base
constructor types each value like its default with
:func:`emx.schedules.typed`, the one reader of constructor keywords, lr
fields and checkpoint text, and allocates the slots as the rows of one zero
block, ``slots`` (``_scratch`` apart); the subclass checks its ranges.
:meth:`Optimizer.step` runs ``_kernel``.

``step`` returns a fresh array for the new ``theta`` and never writes into
``theta`` or ``grad``; the state slots are updated in place, through ``out=``
ufuncs over a scratch buffer the first step makes, so a later step allocates
one array the shape of ``theta``. Every operation keeps the operands and the
order of the plain expression it replaces, so the results are the same to
the bit.

Every operation is also elementwise: no value depends on another column. So
a large state (``SPLIT_FLOOR`` elements or more) is stepped in column
spans, one contiguous range per CPU of the process's affinity mask, each
range in pieces of at most ``BLOCK`` elements that stay in cache, and every
column gets the bits the whole-array step gives it. The first range runs in
the calling thread, the others in threads started and joined within the
step; the spans are views, so the one allocation stays the new ``theta``.

A state is 1-D, ``(dim,)``, as built, or ``(K, dim)`` after
:meth:`Optimizer.select_rows`: one row per point, all stepped by one call
with the learning rate a ``(K, 1)`` column (the other step arguments are
shared). Every operation is elementwise, so each row gets the bits it would
get stepped alone. A non-finite 1-D state raises :class:`DivergenceError`;
a rows step returns and leaves its non-finite rows for the caller to find
(``finite_rows(new, opt.slots)``, :func:`emx.numerics.finite_rows`, which
takes the slot block as one array) and drop.

Step functions take the learning rate (and the warmed-up ``alpha``/slow
decays) from the caller. :meth:`Optimizer.schedule_args` gives those values
from schedules built once, on a clock derived from the step counter in the
state, so mid-run switches and checkpoint resume stay exact.

:data:`OPTIMIZERS` maps each kind name to its class; the config keys, the
harness, checkpoint restore and the CLI derive from it. :data:`SWITCHES`
lists the mid-run switches a config may ask for.
"""

from __future__ import annotations

import copy
import os
import threading
from functools import cached_property

import numpy as np

from .numerics import DivergenceError
from .schedules import HalfLifeLinearWarmup, LinearWarmup, _shown, decay, finite_number, typed

# A state of fewer elements steps inline on ``self``: one thread, one piece,
# no copy. Measured on 2 CPUs (2 MiB of L2 each), where starting and joining
# a thread costs about 90 us and the two ranges then trade the interpreter
# lock between numpy calls: split over both CPUs, a step took 0.75-1.55x its
# inline time at 57K-64K elements; at 96K-100K, 0.63-0.87x for the Adam
# family and 0.83-1.26x for Lion, AdMetaS and AggMo; 0.57-0.88x at 128K.
SPLIT_FLOOR = 3 << 15
# Elements in one piece of a range, so that a piece's operands stay in L2.
# At dim 1e6 on 2 CPUs, pieces of 2^15, 2^16, 2^17 and whole ranges took
# 8.4, 7.0, 6.8 and 7.1 ms per AdamW step, 11.6, 8.0, 9.5 and 9.1 ms per
# AdEMAMix step (13.8 and 16.1 ms inline).
BLOCK = 1 << 16


def _ema(buf: np.ndarray, beta: float, grad: np.ndarray, tmp: np.ndarray) -> None:
    """``buf <- beta*buf + (1-beta)*grad`` in place, ``tmp`` as scratch (it may be ``grad``)."""
    np.multiply(beta, buf, out=buf)
    buf += np.multiply(1.0 - beta, grad, out=tmp)


class Optimizer:
    """What every registered kind shares.

    ``defaults`` maps each hyperparameter keyword to its default, in
    ``hyper()`` order; ``hyper()`` adds ``hyper_state``. ``slot_names`` name
    the rows of ``slots``, the checkpointed state, zeros here (each a view
    of its row); ``momentum`` the ones :func:`preseed_momentum` sets.
    ``_scratch``, an array apart the shape of the state that the first step
    in that shape makes, is what a step works in; it is not state. ``shape``
    is ``(dim,)`` or ``(K, dim)``.

    :meth:`step` runs the kind's ``_kernel(new, theta, grad, lr)``.
    """

    variant = ""
    defaults: dict = {}
    slot_names: tuple = ()
    momentum: tuple = ()
    hyper_state: tuple = ()
    sched_offset = 0
    _schedules: tuple = ()
    slots = property(lambda self: self._block, doc="The slots as the rows of one array.")

    def __init__(self, dim, **kwargs):
        """Set ``dim``, the step counter and every ``defaults`` key (each read
        by :func:`~emx.schedules.typed`), then allocate the slots; an unknown
        keyword is a ``TypeError``, a value of the wrong type a ``ValueError``."""
        unknown = kwargs.keys() - self.defaults.keys()
        if unknown:
            raise TypeError(f"{type(self).__name__}() got unexpected keywords {sorted(unknown)}")
        self.dim = int(dim)
        self.t = 0
        for name, default in self.defaults.items():
            setattr(self, name, typed(name, kwargs.get(name, default), default))
        self._bind(np.zeros((len(self.slot_names), self.dim)))

    def hyper(self) -> dict:
        return {name: getattr(self, name) for name in (*self.defaults, *self.hyper_state)}

    def state_slots(self) -> dict:
        return {name: getattr(self, name) for name in self.slot_names}

    def schedule_args(self, t: int) -> list:
        """Warmed-up values for ``step`` after ``lr`` at global step ``t``, if any.

        ``sched_offset`` restarts the warmup clock at a mid-run switch.
        """
        return [sched.at(t - self.sched_offset) for sched in self._schedules]

    def _bind(self, block: np.ndarray, scratch: np.ndarray | None = None) -> None:
        """Hold ``block``, the ``(S, *shape)`` state (slot ``i`` is row ``i``),
        and ``scratch``, or none until the next step makes one."""
        self._block, self.shape, self._scratch = block, block.shape[1:], scratch
        for name, row in zip(self.slot_names, block):
            setattr(self, name, row)

    def __getstate__(self) -> dict:
        # every other array is a view of the block (a slot, or AdamW's m1 for
        # its m): a copy copies the block once and binds its own views
        return {k: v for k, v in vars(self).items()
                if k in ("_block", "_scratch") or not isinstance(v, np.ndarray)}

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._bind(self._block, self._scratch)

    def select_rows(self, index) -> None:
        """Index the rows of the state: ``[0] * k`` makes ``k`` copies of a
        1-D state, a boolean mask keeps the rows of a rows state it marks."""
        rows = self._block if len(self.shape) == 2 else self._block[..., np.newaxis, :]
        # take writes one C-order copy, so each slot stays contiguous; it reads a mask as ints
        self._bind(np.take(rows, np.arange(rows.shape[-2])[index], axis=-2))

    def step(self, theta: np.ndarray, grad: np.ndarray, lr) -> np.ndarray:
        """One update at learning rate ``lr``: a number, or a ``(K, 1)``
        column for a rows state."""
        return self._step(theta, grad, lr)

    def _step(self, theta, grad, *args) -> np.ndarray:
        """Check the shapes, count the step and run ``_kernel(new, theta, grad,
        *args)``, which writes the new ``theta`` to ``new`` and updates
        the slots; return ``new``, the step's one allocation.

        A non-finite 1-D state raises :class:`DivergenceError` once every
        column is updated; rows are left to the caller.
        """
        if not np.shape(theta) == np.shape(grad) == self.shape:
            raise ValueError(
                f"length mismatch: theta {np.shape(theta)}, grad {np.shape(grad)}, "
                f"state {self.shape}"
            )
        self.t += 1
        if self._scratch is None:  # an unstepped state (restored, reindexed) holds its slots alone
            self._scratch = np.empty(self.shape)
        new = np.empty(self.shape)
        if new.size < SPLIT_FLOOR:
            with np.errstate(over="ignore", invalid="ignore"):
                self._kernel(new, theta, grad, *args)
            finite = self._finite(new)
        else:
            finite = self._ranges(new, theta, grad, args)
        if not finite:
            raise DivergenceError(f"non-finite value after update step {self.t}", step=self.t)
        return new

    def _ranges(self, new, theta, grad, args) -> bool:
        """Step one column range per CPU of the affinity mask (per CPU of the
        machine where Python has no ``os.sched_getaffinity``, as on macOS and
        Windows): the first here, each other in a thread joined before this
        returns. An exception in any range is raised once all are joined;
        else, whether every piece stayed finite."""
        cols = self.shape[-1]
        affinity = getattr(os, "sched_getaffinity", None)
        n = min(len(affinity(0)) if affinity else os.cpu_count() or 1, cols)
        edges = [cols * i // n for i in range(n + 1)]
        results = [None] * n

        def run(i):
            try:
                results[i] = self._pieces(edges[i], edges[i + 1], new, theta, grad, args)
            except Exception as exc:
                results[i] = exc

        threads = [threading.Thread(target=run, args=(i,)) for i in range(1, n)]
        for thread in threads:
            thread.start()
        try:
            run(0)
        finally:
            for thread in threads:
                thread.join()
        for result in results:
            if isinstance(result, Exception):
                raise result
        return all(results)

    def _pieces(self, lo, hi, new, theta, grad, args) -> bool:
        """Step the columns ``lo:hi`` in pieces of at most ``BLOCK`` elements,
        each through a view of this state; whether each piece stayed finite,
        checked while it is in cache."""
        width = max(1, BLOCK // (new.size // self.shape[-1]))
        view, finite = copy.copy(self), True
        # errstate is per thread: a new thread starts at numpy's default, "warn"
        with np.errstate(over="ignore", invalid="ignore"):
            for a in range(lo, hi, width):
                cols = (..., slice(a, min(a + width, hi)))
                view._bind(self._block[cols], self._scratch[cols])
                view._kernel(new[cols], theta[cols], grad[cols], *args)
                finite = finite and view._finite(new[cols])
        return finite

    def _finite(self, new) -> bool:
        """Whether ``new`` and every slot are finite; a rows state is left to
        the caller, so it always is. No BLAS call: this runs in the step's
        ranges, and OpenBLAS threads a long ``ddot`` on the CPUs they use."""
        if new.ndim == 2:
            return True
        return all(np.isfinite(a).all() for a in (new, *self.slots))


class AdamFamily(Optimizer):
    """Adam with decoupled weight decay plus zero, one or two slow EMAs.

    m1  <- b1*m1 + (1-b1)*g          m1_hat = m1 / (1 - b1^t)
    m2  <- b3*m2 + (1-b3)*g          (and m3 with b4; no bias correction)
    nu  <- b2*nu + (1-b2)*g^2        nu_hat = nu / (1 - b2^t)
    theta <- theta - lr*((m1_hat + alpha*(m2 [+ m3])) / (sqrt(nu_hat) + eps) + wd*theta)

    A subclass fixes ``defaults``; a ``beta3`` (and ``beta4``) among them
    adds a slow EMA. ``alpha`` and the slow decays warm up over
    ``t_alpha``/``t_beta3`` steps, the decays from ``beta_start`` (default
    ``beta1``).
    """

    alpha = 0.0
    m1 = m2 = m3 = None  # the EMAs a kind does not hold

    def __init__(self, dim, **kwargs):
        super().__init__(dim, **kwargs)
        for name in ("beta1", "beta2", "beta3", "beta4"):
            if name in self.defaults:
                decay(name, getattr(self, name))
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        slow = [getattr(self, name) for name in ("beta3", "beta4") if name in self.defaults]
        if slow:
            if self.beta_start is None:
                self.beta_start = self.beta1
            if self.t_beta3 > 0 and not 0.0 < self.beta_start <= min(slow):
                raise ValueError(f"beta_start must be in (0, {min(slow)}], got {self.beta_start}")
            self.hyper_state = ("sched_offset",)
            self._schedules = [LinearWarmup(final=self.alpha, horizon=self.t_alpha)] + [
                HalfLifeLinearWarmup(final=b, start=self.beta_start, horizon=self.t_beta3)
                for b in slow
            ]

    def _kernel(self, new, theta, grad, lr, alpha_t, beta3_t, beta4_t, fast=None) -> None:
        """Advance every EMA, then write ``theta - lr*(num/(sqrt(nu_hat) + eps)
        + wd*theta)`` to ``new``, where ``num = m1_hat + alpha_t*(m2 [+ m3])``
        (``fast*m1_hat + ...`` for the convex form, which passes ``fast``).

        ``m1_hat`` is ``grad`` itself on the lean path. The slow term is
        skipped when ``alpha_t == 0`` outside the convex form, so that
        ``step`` is then AdamW to the bit. ``wd*theta`` is added even when
        ``wd == 0``: ``x + 0.0*theta`` turns ``-0.0`` into ``+0.0``, as the
        plain expression does.
        """
        tmp = self._scratch
        if self.m2 is not None:
            _ema(self.m2, self.beta3 if beta3_t is None else beta3_t, grad, tmp)
        if self.m3 is not None:
            _ema(self.m3, self.beta4 if beta4_t is None else beta4_t, grad, tmp)
        _ema(self.nu, self.beta2, np.multiply(grad, grad, out=tmp), tmp)
        num = grad
        if self.m1 is not None:
            _ema(self.m1, self.beta1, grad, tmp)
            num = np.divide(self.m1, 1.0 - self.beta1**self.t, out=tmp)
        if fast is not None:
            num = np.multiply(fast, num, out=tmp)
        if fast is not None or alpha_t != 0.0:
            # m2 + m3 directly: sum() would start from 0 and turn -0.0 into +0.0
            slow = self.m2 if self.m3 is None else np.add(self.m2, self.m3, out=new)
            num = np.add(num, np.multiply(alpha_t, slow, out=new), out=tmp)
        denom = np.divide(self.nu, 1.0 - self.beta2**self.t, out=new)
        np.sqrt(denom, out=denom)
        denom += self.eps
        upd = np.divide(num, denom, out=tmp)
        upd += np.multiply(self.weight_decay, theta, out=new)
        np.subtract(theta, np.multiply(lr, upd, out=upd), out=new)

    def step(self, theta, grad, lr, alpha_t=None, beta3_t=None, beta4_t=None) -> np.ndarray:
        """One update; ``alpha_t`` and the slow decays default to the final values."""
        alpha_t = self.alpha if alpha_t is None else alpha_t
        return self._step(theta, grad, lr, alpha_t, beta3_t, beta4_t)

    def step_convex(self, theta, grad, eta_hat, alpha_hat, beta3_t=None, beta4_t=None):
        """Convex-combination form: numerator ``(1-a)*m1_hat + a*(slow EMAs)``.

        With static hyperparameters, ``eta_hat = lr*(alpha+1)`` and
        ``alpha_hat = alpha/(alpha+1)`` reproduces :meth:`step` up to
        rounding. Once schedules move ``lr`` and ``alpha`` per step the two
        forms are no longer reparametrizations of each other. A kind with no
        slow EMA (AdamW) is a ``TypeError``, raised before the state moves.
        """
        if self.m2 is None:
            raise TypeError(f"{type(self).__name__} has no slow EMA to take a convex step with")
        if not 0.0 <= alpha_hat <= 1.0:
            raise ValueError(f"alpha_hat must be in [0, 1], got {alpha_hat}")
        return self._step(theta, grad, eta_hat, alpha_hat, beta3_t, beta4_t, 1.0 - alpha_hat)


class AdamW(AdamFamily):
    """Adam with decoupled weight decay: the kernel without a slow EMA.

    Its fast EMA is checkpointed, and reachable, as ``m``.
    """

    variant = "adamw"
    slot_names = ("m", "nu")
    momentum = ("m",)
    defaults = {"beta1": 0.9, "beta2": 0.999, "weight_decay": 0.0, "eps": 1e-8}

    m = property(lambda self: self.m1, lambda self, value: setattr(self, "m1", value))


class AdEMAMix(AdamFamily):
    """Two-EMA mixture optimizer: the kernel with one slow EMA ``m2``.

    With ``beta1 == 0`` the fast EMA is the raw gradient, so the lean state
    holds no ``m1``: its slots are ``m2`` and ``nu``.
    """

    variant = "ademamix"
    defaults = {
        "beta1": 0.9,
        "beta2": 0.999,
        "beta3": 0.9999,
        "alpha": 5.0,
        "weight_decay": 0.0,
        "eps": 1e-8,
        "t_alpha": 0,
        "t_beta3": 0,
        "beta_start": None,
    }

    slot_names = cached_property(lambda self: ("m2", "nu", "m1") if self.beta1 else ("m2", "nu"))
    momentum = cached_property(lambda self: ("m2", "m1") if self.beta1 else ("m2",))


class Ad3EMAMix(AdamFamily):
    """Three-EMA variant: numerator ``m1_hat + alpha*(m2 + m3)`` where ``m3``
    is a second slow EMA with decay ``beta4`` (warmed up like ``beta3``)."""

    variant = "ad3emamix"
    slot_names = ("m1", "m2", "m3", "nu")
    momentum = ("m1", "m2", "m3")
    defaults = {
        "beta1": 0.9,
        "beta2": 0.999,
        "beta3": 0.9999,
        "beta4": 0.9999,
        "alpha": 4.0,
        "weight_decay": 0.0,
        "eps": 1e-8,
        "t_alpha": 0,
        "t_beta3": 0,
        "beta_start": None,
    }


class Lion(Optimizer):
    """Sign-based optimizer with a single momentum buffer.

    The update direction is ``sign(alpha*m + (1-alpha)*g)`` computed from the
    *previous* momentum; the EMA is refreshed only afterwards. Before weight
    decay every update coordinate is exactly -lr, 0, or +lr.
    """

    variant = "lion"
    slot_names = ("m",)
    momentum = ("m",)
    defaults = {"alpha": 0.9, "beta": 0.99, "weight_decay": 0.0}

    def __init__(self, dim, **kwargs):
        super().__init__(dim, **kwargs)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        decay("beta", self.beta)

    def _kernel(self, new, theta, grad, lr) -> None:
        tmp = np.multiply(self.alpha, self.m, out=self._scratch)
        tmp += np.multiply(1.0 - self.alpha, grad, out=new)
        direction = np.sign(tmp, out=new)  # not in place: that is ~5x slower on numpy 2.4
        direction += np.multiply(self.weight_decay, theta, out=tmp)
        np.subtract(theta, np.multiply(lr, direction, out=direction), out=new)
        _ema(self.m, self.beta, grad, tmp)


class AdMetaS(Optimizer):
    """Nested-EMA baseline.

    m1 <- b1*m1 + g;  h = kappa*g + mu*m1;  m2 <- b2*m2 + (1-b2)*h;
    theta <- theta - lr*m2, with mu and kappa tied to b1:
    mu = 25 - 10*(b1 + 1/b1), kappa = 10/b1 - 9. They are recomputed on
    access, never stored.
    """

    variant = "admeta_s"
    slot_names = ("m1", "m2")
    defaults = {"beta1": 0.9, "beta2": 0.3}

    def __init__(self, dim, **kwargs):
        super().__init__(dim, **kwargs)
        if not 0.0 < self.beta1 < 1.0:
            raise ValueError(f"beta1 must be in (0, 1), got {self.beta1}")
        decay("beta2", self.beta2)

    @property
    def mu(self) -> float:
        return 25.0 - 10.0 * (self.beta1 + 1.0 / self.beta1)

    @property
    def kappa(self) -> float:
        return 10.0 / self.beta1 - 9.0

    def _kernel(self, new, theta, grad, lr) -> None:
        np.multiply(self.beta1, self.m1, out=self.m1)
        self.m1 += grad
        h = np.multiply(self.kappa, grad, out=self._scratch)
        h += np.multiply(self.mu, self.m1, out=new)
        _ema(self.m2, self.beta2, h, h)
        np.subtract(theta, np.multiply(lr, self.m2, out=h), out=new)


class AggMo(Optimizer):
    """Aggregated momentum: K buffers ``m_i <- b_i*m_i + g`` (note: raw g,
    no (1-b) factor), update is the average ``theta - (lr/K)*sum(m_i)``.

    Its slots are ``m0`` ... ``m{K-1}``, one per beta. ``betas`` takes a
    list, a tuple or one number, and ``hyper()`` gives it as the tuple; text
    is a ``ValueError`` naming ``betas``.
    """

    variant = "aggmo"
    defaults = {"betas": (0.0, 0.9, 0.99)}

    def __init__(self, dim, **kwargs):
        super().__init__(dim, **kwargs)
        if len(self.betas) < 1:
            raise ValueError("need at least one momentum coefficient")
        for b in self.betas:
            decay("betas", b)

    slot_names = cached_property(lambda self: tuple(f"m{i}" for i in range(len(self.betas))))

    def _kernel(self, total, theta, grad, lr) -> None:
        total.fill(0.0)  # from +0.0, as a fresh sum: the first add turns -0.0 into +0.0
        for b, m in zip(self.betas, self.slots):
            np.multiply(b, m, out=m)
            if m.size > 1:
                m += grad
            else:  # numpy's in-place add on one element (alone among sizes) keeps
                m[...] = m + grad  # grad's NaN where b*m + grad keeps 0*inf's
            total += m
        np.multiply(lr / len(self.betas), total, out=total)
        np.subtract(theta, total, out=total)


OPTIMIZERS = {cls.variant: cls for cls in (AdamW, AdEMAMix, Lion, AdMetaS, AggMo, Ad3EMAMix)}
# the mid-run switches a config may ask for: source kind -> target kind
SWITCHES = {AdamW: AdEMAMix, AdEMAMix: AdamW}


def switch_optimizer(opt: AdamFamily, cls: type, **params) -> AdamFamily:
    """Convert an Adam-family state mid-run into a ``cls`` state.

    The hyperparameters both kinds declare, the fast EMA and the second
    moment are copied bit-for-bit into the new state's own buffers;
    ``params`` set the rest. New slow EMAs start at zero, so the first update
    after a switch to AdEMAMix is still an AdamW update. The global step keeps
    counting; only the warmup clock restarts at the switch. Both kinds must
    be of the Adam family.
    """
    if not (isinstance(opt, AdamFamily) and issubclass(cls, AdamFamily)):
        raise TypeError(f"cannot switch {opt.variant} to {cls.variant}: "
                        "both kinds must be of the Adam family")
    new = cls(opt.dim, **{k: getattr(opt, k) for k in cls.defaults if k in opt.defaults}, **params)
    if len(opt.shape) == 2:  # a rows state: every row switches
        new.select_rows([0] * opt.shape[0])
    if new.m1 is not None and opt.m1 is not None:
        new.m1[...] = opt.m1
    new.nu[...] = opt.nu
    new.t = new.sched_offset = opt.t
    return new


def preseed_momentum(opt, m_init) -> None:
    """Set every first-moment buffer to ``m_init`` (fresh states only).

    Gives the first iterate an initial "speed" while the second-moment
    estimate stays at zero. The step counter must still be 0. The values,
    finite numbers, are copied into the state's own buffers.
    """
    try:
        values = [finite_number("preseed", v) for v in m_init]
    except (TypeError, ValueError):  # not iterable, or an item that is not a finite number
        raise ValueError(f"preseed must be finite numbers, got {_shown(m_init)}") from None
    if len(values) != opt.dim:
        raise ValueError(f"preseed length {len(values)} does not match dim {opt.dim}")
    if opt.t != 0:
        raise ValueError("momentum can only be preseeded before the first step")
    if not opt.momentum:
        raise TypeError(f"cannot preseed momentum for {type(opt).__name__}")
    for name in opt.momentum:
        getattr(opt, name)[...] = values
