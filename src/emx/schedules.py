"""Step-indexed schedules for the learning rate and the two-EMA warmups.

Every schedule is a pure function of the 1-based step index, evaluated via
``.at(t)``, so resuming a run from a checkpoint only needs the step counter.
A horizon of 0 means "no warmup": the schedule is constant at its final
value.

The slow-EMA decay warmup is the interesting one. A linear ramp on the decay
``beta`` is a poor fit because the half-life of an EMA,

    t_half(beta) = ln(0.5) / ln(beta) - 1,

reacts very unevenly to increments of beta (adding 0.0001 to 0.9 changes
almost nothing; adding it to 0.999 adds ~77 steps of half-life). The
``HalfLifeLinearWarmup`` ramp instead grows the half-life itself linearly,
by interpolating in half-life space and mapping back through the inverse
``0.5 ** (1 / (t + 1))``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar


def t_half(beta: float) -> float:
    """Number of recent steps receiving a cumulative EMA weight of 0.5."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    return math.log(0.5) / math.log(beta) - 1.0


def t_half_inverse(t: float) -> float:
    """The EMA decay whose half-life is ``t``; inverse of :func:`t_half`."""
    if t < 0:
        raise ValueError(f"half-life must be non-negative, got {t}")
    return 0.5 ** (1.0 / (t + 1.0))


def _shown(value) -> str:
    """``repr(value)`` for a message; an int with more digits than Python
    will print shows its size in bits instead."""
    try:
        return repr(value)
    except ValueError:  # beyond sys.get_int_max_str_digits()
        if isinstance(value, int):
            return f"an integer of {value.bit_length()} bits"
        return f"a {type(value).__name__} holding an integer too long to print"


def _real(value) -> float:
    """``value`` as a float: nan if it is not a real number (a bool is not),
    inf for an int beyond the float range."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        return float(value) if real else math.nan
    except OverflowError:
        return math.inf


def finite_number(name: str, value) -> float:
    """``value`` as a float: a finite real number, from Python or numpy. A
    bool, text, a list, nan/inf or an int beyond the float range is a
    ``ValueError`` naming ``name``."""
    if not math.isfinite(number := _real(value)):
        raise ValueError(f"{name} must be a finite number, got {_shown(value)}")
    return number


def typed(name: str, value, default):
    """``value`` typed like ``default``: the one reader of a value that a kind
    declares by its default. An int default takes a whole number of steps
    (``3.0`` included), a tuple default finite numbers (a list, a tuple or
    one number) and a float default a :func:`finite_number`; ``None`` stays
    where it is the default. Anything else is a ``ValueError`` naming ``name``."""
    if type(default) is tuple:
        items = value if isinstance(value, (list, tuple)) else [value]
        return tuple(finite_number(name, v) for v in items)
    if type(default) is not int:
        return None if value is None is default else finite_number(name, value)
    if not _real(value).is_integer():
        raise ValueError(f"{name} must be a whole number of steps, got {_shown(value)}")
    return int(value)


def integer(name: str, value, low: int = 0, high: int | None = None) -> int:
    """``value`` as an int in ``[low, high]`` (no upper bound for ``None``): a
    Python or numpy integer. A bool, a float, text or a number out of range
    is a ``ValueError`` naming ``name``."""
    whole = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not whole or value < low or high is not None and value > high:
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bound} (an integer), got {_shown(value)}")
    return int(value)


def decay(name: str, value) -> float:
    """``value`` as an EMA decay, a float in [0, 1): a :func:`finite_number`
    in range, else a ``ValueError`` naming ``name``."""
    value = finite_number(name, value)
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{name} must be in [0, 1), got {value}")
    return value


@dataclass(frozen=True)
class ConstantSchedule:
    kind: ClassVar[str] = "constant"
    value: float

    def at(self, t: int) -> float:
        return self.value


@dataclass(frozen=True)
class LinearWarmup:
    """Linear ramp from 0 to ``final`` over ``horizon`` steps, then constant."""

    final: float
    horizon: int

    def __post_init__(self):
        if self.final < 0:
            raise ValueError(f"final value must be >= 0, got {self.final}")
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")

    def at(self, t: int) -> float:
        if self.horizon == 0:
            return self.final
        return min(t * self.final / self.horizon, self.final)


@dataclass(frozen=True)
class HalfLifeLinearWarmup:
    """Ramp a decay coefficient so its EMA half-life grows linearly.

    Interpolates t_half(start) -> t_half(final) linearly over ``horizon``
    steps and maps back to a decay value; clamped at ``final`` afterwards.
    With ``horizon == 0`` it is constant at ``final``, which may then be 0.
    """

    final: float
    start: float
    horizon: int

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        if self.horizon > 0 and not 0.0 < self.final < 1.0:
            raise ValueError(f"final decay must be in (0, 1), got {self.final}")
        if self.horizon > 0 and not 0.0 < self.start < 1.0:
            raise ValueError(f"start decay must be in (0, 1), got {self.start}")

    def at(self, t: int) -> float:
        if self.horizon == 0 or t >= self.horizon:
            return self.final
        if t <= 0:
            return self.start
        mu = t / self.horizon
        ln_s = math.log(self.start)
        ln_e = math.log(self.final)
        beta = math.exp(ln_s * ln_e / ((1.0 - mu) * ln_e + mu * ln_s))
        return min(beta, self.final)


@dataclass(frozen=True)
class WarmupCosineDecay:
    """Linear warmup to ``eta_max``, cosine decay to ``eta_min`` at ``total``."""

    kind: ClassVar[str] = "lr_warmup_cosine"
    eta_max: float
    eta_min: float
    warmup: int
    total: int

    def __post_init__(self):
        if self.warmup < 0 or self.total < self.warmup:
            raise ValueError(
                f"need 0 <= warmup <= total, got warmup={self.warmup} total={self.total}"
            )

    def at(self, t: int) -> float:
        if self.warmup > 0 and t <= self.warmup:
            return self.eta_max * t / self.warmup
        if t >= self.total:
            return self.eta_min
        frac = (t - self.warmup) / (self.total - self.warmup)
        return self.eta_min + 0.5 * (self.eta_max - self.eta_min) * (1.0 + math.cos(math.pi * frac))


@dataclass(frozen=True)
class WarmupConstantLinearDecay:
    """Warmup, hold at ``eta_max``, then decay linearly to ``eta_min``."""

    kind: ClassVar[str] = "lr_warmup_constant_linear_decay"
    eta_max: float
    eta_min: float
    warmup: int
    decay_start: int
    decay_end: int

    def __post_init__(self):
        if not 0 <= self.warmup <= self.decay_start <= self.decay_end:
            raise ValueError(
                "need 0 <= warmup <= decay_start <= decay_end, got "
                f"{self.warmup}, {self.decay_start}, {self.decay_end}"
            )

    def at(self, t: int) -> float:
        if self.warmup > 0 and t <= self.warmup:
            return self.eta_max * t / self.warmup
        if t <= self.decay_start:
            return self.eta_max
        if t >= self.decay_end:
            return self.eta_min
        frac = (t - self.decay_start) / (self.decay_end - self.decay_start)
        return self.eta_max + frac * (self.eta_min - self.eta_max)


# the lr.kind values a config may name; each class's fields are its lr.* keys
LR_SCHEDULES = {
    cls.kind: cls for cls in (ConstantSchedule, WarmupCosineDecay, WarmupConstantLinearDecay)
}
