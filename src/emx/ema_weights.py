"""Per-gradient weight profiles of EMAs, mixtures, nested EMAs, and DEMA.

A weight profile is a 1-D array indexed by gradient age (0 = most recent):
entry ``i`` is the coefficient the averaging scheme assigns to the gradient
from ``i`` steps ago, in steady state after at least ``horizon`` steps.

A single EMA puts ``beta**i * (1 - beta)`` on age ``i``: no decay value can
give both a large weight to the immediate past and a non-negligible weight
to gradients thousands of steps old. The two-EMA mixture profile shows how
adding ``alpha`` times a slow EMA fixes that, while the nested-EMA and DEMA
profiles show why stacking EMAs does not (nesting *suppresses* the most
recent gradients; DEMA compensates by going negative on the tail).

:data:`PROFILES` maps each profile kind to its function. A function's keyword
defaults and annotations are its parameters' defaults and types, from which
``emx analyze-ema`` derives its flags; each function checks its own
parameters and raises :class:`ValueError` naming the bad one.
"""

from __future__ import annotations

import numpy as np

from .schedules import decay, finite_number, integer

# the largest horizon, sized to memory: a profile holds a few float64 arrays
# of horizon + 1 entries (8 MB each here) and analyze-ema its CSV as one
# string. nested and dema convolve two such arrays, a time quadratic in the
# horizon: several minutes at this limit.
MAX_HORIZON = 1_000_000


def _check(horizon: int, **decays: float) -> None:
    integer("horizon", horizon, 0, MAX_HORIZON)
    for name, beta in decays.items():
        decay(name, beta)


def ema_weights(beta: float = 0.9, horizon: int = 10000) -> np.ndarray:
    """Closed-form single-EMA profile: ``beta**i * (1 - beta)`` for ages 0..horizon."""
    _check(horizon, beta=beta)
    ages = np.arange(horizon + 1, dtype=np.float64)
    return np.power(beta, ages) * (1.0 - beta)


def mixture_weights(beta1: float = 0.9, beta3: float = 0.9999, alpha: float = 5.0,
                    horizon: int = 10000, normalized: bool = False) -> np.ndarray:
    """Profile of the fast+slow mixture ``m1 + alpha*m2``.

    Unnormalized by default, matching the raw update numerator. With
    ``normalized=True`` the profile is divided by its exact total mass
    ``(1 - beta1**(T+1)) + alpha*(1 - beta3**(T+1))``.
    """
    _check(horizon, beta1=beta1, beta3=beta3)
    if finite_number("alpha", alpha) < 0.0:
        raise ValueError(f"alpha must be a finite number >= 0, got {alpha}")
    weights = ema_weights(beta1, horizon) + alpha * ema_weights(beta3, horizon)
    if normalized:
        total = (1.0 - beta1 ** (horizon + 1)) + alpha * (1.0 - beta3 ** (horizon + 1))
        weights = weights / total
    return weights


def nested_ema_weights(beta_inner: float = 0.9, beta_outer: float = 0.9,
                       horizon: int = 10000) -> np.ndarray:
    """Profile of an EMA applied to the outputs of another EMA.

    The discrete convolution of the two single-EMA profiles; for equal decays
    this is ``(1-beta)**2 * (i+1) * beta**i``, which peaks *after* the most
    recent gradient.
    """
    _check(horizon, beta_inner=beta_inner, beta_outer=beta_outer)
    inner = ema_weights(beta_inner, horizon)
    outer = ema_weights(beta_outer, horizon)
    return np.convolve(outer, inner)[: horizon + 1]


def dema_weights(beta: float = 0.9, window: int | None = None, horizon: int = 10000) -> np.ndarray:
    """Profile of the double-EMA indicator ``2*EMA - EMA(EMA)`` over a window.

    Both the plain EMA and the nested one see only the last ``window + 1``
    inputs (hard truncation of the recurrence input); ``None`` is no
    truncation, a window of the whole horizon. The result boosts the most
    recent weight to ``2*(1-beta) - (1-beta)**2`` and can go negative on the
    tail.
    """
    single = ema_weights(beta, horizon)
    window = horizon if window is None else integer("window", window, 1)
    single[window + 1 :] = 0.0
    windowed = single[: window + 1]
    nested = np.convolve(windowed, windowed)[: horizon + 1]
    if len(nested) < horizon + 1:
        nested = np.concatenate([nested, np.zeros(horizon + 1 - len(nested))])
    return 2.0 * single - nested


PROFILES = {"single": ema_weights, "mixture": mixture_weights,
            "nested": nested_ema_weights, "dema": dema_weights}
