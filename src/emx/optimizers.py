"""Optimizers over flat float64 parameter vectors.

One Adam-family kernel, :class:`AdamFamily`, holds the fast EMA ``m1``, the
second moment ``nu`` and zero, one or two slow EMAs sharing one ``alpha``:
the numerator is ``m1_hat + alpha * (m2 [+ m3])``, where only the fast EMA
is bias-corrected, so the slow ones fill up from zero. ``alpha == 0`` skips
the slow term, which makes every step exactly an AdamW step, bit for bit.
:class:`AdamW` (no slow EMA), :class:`AdEMAMix` (``m2``, the paper's
optimizer) and :class:`Ad3EMAMix` (``m2`` and ``m3``) are thin subclasses.
Baselines with their own update rules: :class:`Lion` (sign updates),
:class:`AdMetaS` (nested EMAs) and :class:`AggMo` (K plain momentum buffers).

Step functions take the learning rate (and the warmed-up ``alpha``/slow
decays) from the caller. :meth:`Optimizer.schedule_args` gives those values
from schedules built once, on a clock derived from the step counter in the
state, so mid-run switches and checkpoint resume stay exact.

:data:`OPTIMIZERS` maps each kind name to its class; the config keys, the
harness, checkpoint restore and the CLI derive from it. :data:`SWITCHES`
lists the mid-run switches a config may ask for.
"""

from __future__ import annotations

import inspect

import numpy as np

from .numerics import DivergenceError, check_same_length, zeros
from .schedules import ConstantSchedule, HalfLifeLinearWarmup, LinearWarmup


def _check_finite(step_index: int, *arrays: np.ndarray) -> None:
    for arr in arrays:
        if arr is not None and not np.all(np.isfinite(arr)):
            raise DivergenceError(
                f"non-finite value after update step {step_index}", step=step_index
            )


class Optimizer:
    """What every registered kind shares.

    ``hyper()`` is the constructor's :meth:`keywords` plus ``hyper_state``;
    ``slot_names`` are the checkpointed buffers in order (``None`` ones are
    skipped) and ``momentum`` the buffers :func:`preseed_momentum` sets.
    """

    variant = ""
    slot_names: tuple = ()
    momentum: tuple = ()
    hyper_state: tuple = ()
    sched_offset = 0
    _schedules: tuple = ()

    @classmethod
    def keywords(cls) -> list:
        """The constructor's hyperparameter keywords, in ``hyper()`` order."""
        names = getattr(cls, "defaults", None) or inspect.signature(cls).parameters
        return [name for name in names if name not in ("dim", "with_m1_buffer")]

    def hyper(self) -> dict:
        return {name: getattr(self, name) for name in (*self.keywords(), *self.hyper_state)}

    def state_slots(self) -> dict:
        return {n: buf for n in self.slot_names if (buf := getattr(self, n)) is not None}

    def schedule_args(self, t: int) -> list:
        """Warmed-up values for ``step`` after ``lr`` at global step ``t``, if any.

        ``sched_offset`` restarts the warmup clock at a mid-run switch.
        """
        t -= self.sched_offset
        return [sched.at(t) for sched in self._schedules]


class AdamFamily(Optimizer):
    """Adam with decoupled weight decay plus zero, one or two slow EMAs.

    m1  <- b1*m1 + (1-b1)*g          m1_hat = m1 / (1 - b1^t)
    m2  <- b3*m2 + (1-b3)*g          (and m3 with b4; no bias correction)
    nu  <- b2*nu + (1-b2)*g^2        nu_hat = nu / (1 - b2^t)
    theta <- theta - lr*((m1_hat + alpha*(m2 [+ m3])) / (sqrt(nu_hat) + eps) + wd*theta)

    A subclass fixes ``defaults``, its keywords in ``hyper()`` order; a
    ``beta3`` (and ``beta4``) among them adds a slow EMA. ``alpha`` and the
    slow decays warm up over ``t_alpha``/``t_beta3`` steps, the decays from
    ``beta_start`` (default ``beta1``). With ``beta1 == 0`` the fast EMA is
    the raw gradient, so ``with_m1_buffer=None`` keeps no ``m1`` buffer.
    """

    defaults: dict = {}
    momentum = ("m1", "m2", "m3")
    alpha = 0.0

    def __init__(self, dim, **kwargs):
        unknown = kwargs.keys() - self.defaults.keys()
        if unknown:
            raise TypeError(f"{type(self).__name__}() got unexpected keywords {sorted(unknown)}")
        kw = {**self.defaults, **kwargs}
        slow_names = [name for name in ("beta3", "beta4") if name in kw]
        for name in ("beta1", "beta2", *slow_names):
            if not 0.0 <= kw[name] < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {kw[name]}")
        if kw.get("alpha", 0.0) < 0:
            raise ValueError(f"alpha must be >= 0, got {kw['alpha']}")
        with_m1_buffer = kw.pop("with_m1_buffer", True)
        if "beta_start" in kw and kw["beta_start"] is None:
            kw["beta_start"] = kw["beta1"]
        for name, value in kw.items():
            setattr(self, name, int(value) if type(self.defaults[name]) is int else float(value))
        slow = [getattr(self, name) for name in slow_names]
        if slow and self.t_beta3 > 0 and not 0.0 < self.beta_start <= min(slow):
            raise ValueError(f"beta_start must be in (0, {min(slow)}], got {self.beta_start}")
        if with_m1_buffer is None:
            with_m1_buffer = self.beta1 != 0.0
        if self.beta1 != 0.0 and not with_m1_buffer:
            raise ValueError("the fast-EMA buffer can only be dropped when beta1 == 0")
        self.dim = int(dim)
        self.t = 0
        self.m1 = zeros(self.dim) if with_m1_buffer else None
        self.m2 = zeros(self.dim) if slow else None
        self.m3 = zeros(self.dim) if len(slow) == 2 else None
        self.nu = zeros(self.dim)
        if slow:
            self.hyper_state = ("sched_offset",)
            self._schedules = [LinearWarmup(final=self.alpha, horizon=self.t_alpha)]
            for b in slow:
                self._schedules.append(
                    HalfLifeLinearWarmup(final=b, start=self.beta_start, horizon=self.t_beta3)
                    if self.t_beta3 > 0
                    else ConstantSchedule(b)
                )

    def _moments(self, theta, grad, beta3_t, beta4_t):
        """Advance the step counter and every EMA; return ``(m1_hat, nu_hat)``."""
        check_same_length(theta, grad)
        self.t += 1
        t = self.t
        if self.m1 is None:
            m1_hat = grad
        else:
            self.m1 = self.beta1 * self.m1 + (1.0 - self.beta1) * grad
            m1_hat = self.m1 / (1.0 - self.beta1**t)
        if self.m2 is not None:
            b = self.beta3 if beta3_t is None else beta3_t
            self.m2 = b * self.m2 + (1.0 - b) * grad
        if self.m3 is not None:
            b = self.beta4 if beta4_t is None else beta4_t
            self.m3 = b * self.m3 + (1.0 - b) * grad
        self.nu = self.beta2 * self.nu + (1.0 - self.beta2) * (grad * grad)
        return m1_hat, self.nu / (1.0 - self.beta2**t)

    def _slow(self) -> np.ndarray:
        # m2 + m3 directly: sum() would start from 0 and turn -0.0 into +0.0
        return self.m2 if self.m3 is None else self.m2 + self.m3

    def _update(self, theta, lr, num, nu_hat) -> np.ndarray:
        new_theta = theta - lr * (num / (np.sqrt(nu_hat) + self.eps) + self.weight_decay * theta)
        _check_finite(self.t, new_theta, self.m1, self.m2, self.m3, self.nu)
        return new_theta

    @np.errstate(over="ignore", invalid="ignore")
    def step(self, theta, grad, lr, alpha_t=None, beta3_t=None, beta4_t=None) -> np.ndarray:
        """One update; ``alpha_t`` and the slow decays default to the final values."""
        if alpha_t is None:
            alpha_t = self.alpha
        m1_hat, nu_hat = self._moments(theta, grad, beta3_t, beta4_t)
        # alpha == 0 must reduce to AdamW exactly, so skip the slow term entirely
        num = m1_hat if alpha_t == 0.0 else m1_hat + alpha_t * self._slow()
        return self._update(theta, lr, num, nu_hat)

    @np.errstate(over="ignore", invalid="ignore")
    def step_convex(self, theta, grad, eta_hat, alpha_hat, beta3_t=None, beta4_t=None):
        """Convex-combination form: numerator ``(1-a)*m1_hat + a*(slow EMAs)``.

        With static hyperparameters, ``eta_hat = lr*(alpha+1)`` and
        ``alpha_hat = alpha/(alpha+1)`` reproduces :meth:`step` up to
        rounding. Once schedules move ``lr`` and ``alpha`` per step the two
        forms are no longer reparametrizations of each other.
        """
        if not 0.0 <= alpha_hat <= 1.0:
            raise ValueError(f"alpha_hat must be in [0, 1], got {alpha_hat}")
        m1_hat, nu_hat = self._moments(theta, grad, beta3_t, beta4_t)
        num = (1.0 - alpha_hat) * m1_hat + alpha_hat * self._slow()
        return self._update(theta, eta_hat, num, nu_hat)


class AdamW(AdamFamily):
    """Adam with decoupled weight decay: the kernel without a slow EMA.

    Its fast EMA is checkpointed, and reachable, as ``m``.
    """

    variant = "adamw"
    slot_names = ("m", "nu")
    defaults = {"beta1": 0.9, "beta2": 0.999, "weight_decay": 0.0, "eps": 1e-8}

    m = property(lambda self: self.m1, lambda self, value: setattr(self, "m1", value))


class AdEMAMix(AdamFamily):
    """Two-EMA mixture optimizer: the kernel with one slow EMA ``m2``.

    Pass ``with_m1_buffer=True`` to keep the fast-EMA buffer even when
    ``beta1 == 0``.
    """

    variant = "ademamix"
    slot_names = ("m2", "nu", "m1")
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
        "with_m1_buffer": None,
    }


class Ad3EMAMix(AdamFamily):
    """Three-EMA variant: numerator ``m1_hat + alpha*(m2 + m3)`` where ``m3``
    is a second slow EMA with decay ``beta4`` (warmed up like ``beta3``)."""

    variant = "ad3emamix"
    slot_names = ("m1", "m2", "m3", "nu")
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

    def __init__(self, dim, *, alpha=0.9, beta=0.99, weight_decay=0.0):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        if not 0.0 <= beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {beta}")
        self.dim = int(dim)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.m = zeros(self.dim)

    @np.errstate(over="ignore", invalid="ignore")
    def step(self, theta: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        check_same_length(theta, grad)
        self.t += 1
        direction = np.sign(self.alpha * self.m + (1.0 - self.alpha) * grad)
        new_theta = theta - lr * (direction + self.weight_decay * theta)
        self.m = self.beta * self.m + (1.0 - self.beta) * grad
        _check_finite(self.t, new_theta, self.m)
        return new_theta


class AdMetaS(Optimizer):
    """Nested-EMA baseline.

    m1 <- b1*m1 + g;  h = kappa*g + mu*m1;  m2 <- b2*m2 + (1-b2)*h;
    theta <- theta - lr*m2, with mu and kappa tied to b1:
    mu = 25 - 10*(b1 + 1/b1), kappa = 10/b1 - 9. They are recomputed on
    access, never stored.
    """

    variant = "admeta_s"
    slot_names = ("m1", "m2")

    def __init__(self, dim, *, beta1=0.9, beta2=0.3):
        if not 0.0 < beta1 < 1.0:
            raise ValueError(f"beta1 must be in (0, 1), got {beta1}")
        if not 0.0 <= beta2 < 1.0:
            raise ValueError(f"beta2 must be in [0, 1), got {beta2}")
        self.dim = int(dim)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.t = 0
        self.m1 = zeros(self.dim)
        self.m2 = zeros(self.dim)

    @property
    def mu(self) -> float:
        return 25.0 - 10.0 * (self.beta1 + 1.0 / self.beta1)

    @property
    def kappa(self) -> float:
        return 10.0 / self.beta1 - 9.0

    @np.errstate(over="ignore", invalid="ignore")
    def step(self, theta: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        check_same_length(theta, grad)
        self.t += 1
        self.m1 = self.beta1 * self.m1 + grad
        h = self.kappa * grad + self.mu * self.m1
        self.m2 = self.beta2 * self.m2 + (1.0 - self.beta2) * h
        new_theta = theta - lr * self.m2
        _check_finite(self.t, new_theta, self.m1, self.m2)
        return new_theta


class AggMo(Optimizer):
    """Aggregated momentum: K buffers ``m_i <- b_i*m_i + g`` (note: raw g,
    no (1-b) factor), update is the average ``theta - (lr/K)*sum(m_i)``.

    ``betas`` may also be the comma-joined text that ``hyper()`` writes.
    """

    variant = "aggmo"

    def __init__(self, dim, *, betas=(0.0, 0.9, 0.99)):
        if isinstance(betas, str):
            betas = betas.split(",")
        betas = tuple(float(b) for b in betas)
        if len(betas) < 1:
            raise ValueError("need at least one momentum coefficient")
        for b in betas:
            if not 0.0 <= b < 1.0:
                raise ValueError(f"momentum coefficients must be in [0, 1), got {b}")
        self.dim = int(dim)
        self.betas = betas
        self.t = 0
        self.m = [zeros(self.dim) for _ in betas]

    @np.errstate(over="ignore", invalid="ignore")
    def step(self, theta: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        check_same_length(theta, grad)
        self.t += 1
        total = zeros(self.dim)
        for i, b in enumerate(self.betas):
            self.m[i] = b * self.m[i] + grad
            total += self.m[i]
        new_theta = theta - (lr / len(self.betas)) * total
        _check_finite(self.t, new_theta, *self.m)
        return new_theta

    def state_slots(self):
        return {f"m{i}": m for i, m in enumerate(self.m)}

    def hyper(self):
        return {"betas": ",".join(repr(b) for b in self.betas)}


OPTIMIZERS = {cls.variant: cls for cls in (AdamW, AdEMAMix, Lion, AdMetaS, AggMo, Ad3EMAMix)}
# the mid-run switches a config may ask for: source kind -> target kind
SWITCHES = {AdamW: AdEMAMix, AdEMAMix: AdamW}


def switch_optimizer(opt: AdamFamily, cls: type, **params) -> AdamFamily:
    """Convert an Adam-family state mid-run into a ``cls`` state.

    ``beta1``, ``beta2``, ``weight_decay``, ``eps``, the fast EMA and the
    second moment carry over bit-for-bit; ``params`` set the rest. New slow
    EMAs start at zero, so the first update after a switch to AdEMAMix is
    still an AdamW update. The global step keeps counting; only the warmup
    clock restarts at the switch.
    """
    new = cls(
        opt.dim, beta1=opt.beta1, beta2=opt.beta2, weight_decay=opt.weight_decay, eps=opt.eps,
        **params,
    )
    if new.m1 is not None and opt.m1 is not None:
        new.m1 = opt.m1.copy()
    new.nu = opt.nu.copy()
    new.t = new.sched_offset = opt.t
    return new


def switch_to_ademamix(adamw: AdamW, **params) -> AdEMAMix:
    """Add a slow EMA mid-run; ``params`` are AdEMAMix's slow-EMA keywords."""
    return switch_optimizer(adamw, AdEMAMix, **params)


def switch_to_adamw(adema: AdEMAMix) -> AdamW:
    """Drop the slow EMA mid-run, turning the state back into AdamW."""
    return switch_optimizer(adema, AdamW)


def preseed_momentum(opt, m_init) -> None:
    """Set every first-moment buffer to ``m_init`` (fresh states only).

    Gives the first iterate an initial "speed" while the second-moment
    estimate stays at zero. The step counter must still be 0.
    """
    m_init = np.asarray(m_init, dtype=np.float64)
    if m_init.shape != (opt.dim,):
        raise ValueError(f"preseed length {m_init.shape} does not match dim {opt.dim}")
    if opt.t != 0:
        raise ValueError("momentum can only be preseeded before the first step")
    if not opt.momentum:
        raise TypeError(f"cannot preseed momentum for {type(opt).__name__}")
    for name in opt.momentum:
        if getattr(opt, name) is not None:
            setattr(opt, name, m_init.copy())
