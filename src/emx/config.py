"""Experiment configs: a flat, typed ``section.key = value`` text format.

Grammar (one setting per line):

    line    := comment | blank | setting
    comment := '#' ...
    setting := key '=' value
    key     := section '.' name        (lowercase, dotted)
    value   := int | float | bool | list | string
    list    := value (',' value)+      (uniform scalars, e.g. "-3.0, 5.0")
    bool    := 'true' | 'false'

Sections: ``testbed``, ``optimizer``, ``lr``, ``run``, and the optional
``switch`` and ``forget`` directives. Floats are written back as shortest
round-trip decimals, so ``parse_config(format_config(cfg)) == cfg`` exactly.

Defaults follow the experiment conventions: 2-D toys record every step while
MLP runs record every 10th, and MLP configs get weight decay 0.1 unless set
explicitly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .optimizers import OPTIMIZERS, SWITCHES


class ConfigError(Exception):
    """Invalid experiment configuration (reported before any step runs)."""


TESTBEDS = ("rosenbrock", "valley", "mlp")
LR_KINDS = ("constant", "lr_warmup_cosine", "lr_warmup_constant_linear_decay")

_TESTBED_KEYS = {
    "rosenbrock": {"x0"},
    "valley": {"x0"},
    "mlp": {"input_dim", "hidden", "batch_size", "noise", "eval_size"},
}
# a kind's keys: its constructor keywords, and preseed if it has momentum
_OPTIMIZER_KEYS = {
    kind: {*cls.keywords(), *(["preseed"] if cls.momentum else [])}
    for kind, cls in OPTIMIZERS.items()
}
_LR_KEYS = {
    "constant": {"value"},
    "lr_warmup_cosine": {"eta_max", "eta_min", "warmup", "total"},
    "lr_warmup_constant_linear_decay": {
        "eta_max", "eta_min", "warmup", "decay_start", "decay_end",
    },
}
_RUN_KEYS = {"steps", "seed", "cadence", "clip", "constant_after", "out"}
_FORGET_KEYS = {"t_b"}

_INT_RE = re.compile(r"^[+-]?\d+$")


@dataclass
class LrSpec:
    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class SwitchSpec:
    to: str
    at: int
    params: dict = field(default_factory=dict)


@dataclass
class ForgetSpec:
    t_b: int


@dataclass
class ExperimentConfig:
    testbed: str
    optimizer: str
    lr: LrSpec
    steps: int
    testbed_params: dict = field(default_factory=dict)
    optimizer_params: dict = field(default_factory=dict)
    seed: int = 0
    cadence: int = 1
    clip: float | None = None
    constant_after: bool = False
    switch: SwitchSpec | None = None
    forget: ForgetSpec | None = None
    out: str | None = None


def _parse_scalar(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    if text == "none":
        return None
    if _INT_RE.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def _parse_value(text: str):
    if "," in text:
        return [_parse_scalar(part.strip()) for part in text.split(",")]
    return _parse_scalar(text)


def _format_scalar(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _format_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return ", ".join(_format_scalar(v) for v in value)
    return _format_scalar(value)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text; raises :class:`ConfigError` on any problem."""
    sections: dict[str, dict] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if "." not in key:
            raise ConfigError(f"line {lineno}: key {key!r} is missing its section prefix")
        section, _, name = key.partition(".")
        bucket = sections.setdefault(section, {})
        if name in bucket:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        bucket[name] = _parse_value(value)
    return config_from_sections(sections)


def config_from_sections(sections: dict) -> ExperimentConfig:
    known_sections = {"testbed", "optimizer", "lr", "run", "switch", "forget"}
    for section in sections:
        if section not in known_sections:
            raise ConfigError(f"unknown section {section!r}")

    testbed_sec = dict(sections.get("testbed", {}))
    optimizer_sec = dict(sections.get("optimizer", {}))
    lr_sec = dict(sections.get("lr", {}))
    run_sec = dict(sections.get("run", {}))

    testbed = testbed_sec.pop("kind", None)
    if testbed not in TESTBEDS:
        raise ConfigError(f"testbed.kind must be one of {TESTBEDS}, got {testbed!r}")
    for key in testbed_sec:
        if key not in _TESTBED_KEYS[testbed]:
            raise ConfigError(f"unknown key testbed.{key} for testbed {testbed!r}")

    optimizer = optimizer_sec.pop("kind", None)
    if optimizer not in OPTIMIZERS:
        raise ConfigError(f"optimizer.kind must be one of {tuple(OPTIMIZERS)}, got {optimizer!r}")
    for key in optimizer_sec:
        if key not in _OPTIMIZER_KEYS[optimizer]:
            raise ConfigError(f"unknown key optimizer.{key} for optimizer {optimizer!r}")

    lr_kind = lr_sec.pop("kind", None)
    if lr_kind not in LR_KINDS:
        raise ConfigError(f"lr.kind must be one of {LR_KINDS}, got {lr_kind!r}")
    for key in lr_sec:
        if key not in _LR_KEYS[lr_kind]:
            raise ConfigError(f"unknown key lr.{key} for lr kind {lr_kind!r}")

    for key in run_sec:
        if key not in _RUN_KEYS:
            raise ConfigError(f"unknown key run.{key}")
    if "steps" not in run_sec:
        raise ConfigError("run.steps is required")
    steps = run_sec["steps"]
    if not isinstance(steps, int) or steps < 0:
        raise ConfigError(f"run.steps must be a non-negative integer, got {steps!r}")

    cadence = run_sec.get("cadence", 10 if testbed == "mlp" else 1)
    if not isinstance(cadence, int) or cadence < 1:
        raise ConfigError(f"run.cadence must be a positive integer, got {cadence!r}")

    clip = run_sec.get("clip")
    if clip is not None:
        clip = float(clip)
        if clip <= 0:
            raise ConfigError(f"run.clip must be positive, got {clip}")

    # LM-analogue default: decayed optimizers on the MLP task use lambda=0.1
    if testbed == "mlp" and "weight_decay" in _OPTIMIZER_KEYS[optimizer]:
        optimizer_sec.setdefault("weight_decay", 0.1)

    switch = None
    if "switch" in sections:
        switch_sec = dict(sections["switch"])
        to = switch_sec.pop("to", None)
        target = SWITCHES.get(OPTIMIZERS[optimizer])
        if target is None or to != target.variant:
            allowed = ", ".join(f"{a.variant} -> {b.variant}" for a, b in SWITCHES.items())
            raise ConfigError(f"switch.to = {to!r} from {optimizer} is not one of: {allowed}")
        at = switch_sec.pop("at", None)
        if not isinstance(at, int) or not 0 <= at <= steps:
            raise ConfigError(f"switch.at must be an integer in [0, steps], got {at!r}")
        # the new state's own keys; beta1, beta2, weight_decay and eps carry over
        for key in switch_sec:
            if key not in _OPTIMIZER_KEYS[to] - _OPTIMIZER_KEYS[optimizer]:
                raise ConfigError(f"unknown key switch.{key} for switch.to = {to}")
        switch = SwitchSpec(to=to, at=at, params=switch_sec)

    forget = None
    if "forget" in sections:
        forget_sec = dict(sections["forget"])
        for key in forget_sec:
            if key not in _FORGET_KEYS:
                raise ConfigError(f"unknown key forget.{key}")
        t_b = forget_sec.get("t_b")
        if not isinstance(t_b, int) or t_b < 1:
            raise ConfigError(f"forget.t_b must be a positive integer, got {t_b!r}")
        if t_b >= steps:
            raise ConfigError(f"forget.t_b = {t_b} must be smaller than run.steps = {steps}")
        if testbed != "mlp":
            raise ConfigError("the forgetting protocol requires testbed.kind = mlp")
        forget = ForgetSpec(t_b=t_b)

    cfg = ExperimentConfig(
        testbed=testbed,
        testbed_params=testbed_sec,
        optimizer=optimizer,
        optimizer_params=optimizer_sec,
        lr=LrSpec(kind=lr_kind, params=lr_sec),
        steps=steps,
        seed=run_sec.get("seed", 0),
        cadence=cadence,
        clip=clip,
        constant_after=bool(run_sec.get("constant_after", False)),
        switch=switch,
        forget=forget,
        out=run_sec.get("out"),
    )
    _check_horizons(cfg)
    return cfg


def _check_horizons(cfg: ExperimentConfig) -> None:
    if cfg.constant_after:
        return
    horizons = []
    for key in ("t_alpha", "t_beta3"):
        if key in cfg.optimizer_params:
            horizons.append((f"optimizer.{key}", cfg.optimizer_params[key]))
    for key in ("total", "decay_end"):
        if key in cfg.lr.params:
            horizons.append((f"lr.{key}", cfg.lr.params[key]))
    for name, value in horizons:
        if value > cfg.steps:
            raise ConfigError(
                f"{name} = {value} exceeds run.steps = {cfg.steps}; "
                "set run.constant_after = true to allow schedules that outlive the run"
            )


def format_config(cfg: ExperimentConfig) -> str:
    """Render a config back to its textual form (inverse of :func:`parse_config`)."""
    lines = [f"testbed.kind = {cfg.testbed}"]
    for key in sorted(cfg.testbed_params):
        lines.append(f"testbed.{key} = {_format_value(cfg.testbed_params[key])}")
    lines.append(f"optimizer.kind = {cfg.optimizer}")
    for key in sorted(cfg.optimizer_params):
        lines.append(f"optimizer.{key} = {_format_value(cfg.optimizer_params[key])}")
    lines.append(f"lr.kind = {cfg.lr.kind}")
    for key in sorted(cfg.lr.params):
        lines.append(f"lr.{key} = {_format_value(cfg.lr.params[key])}")
    lines.append(f"run.steps = {cfg.steps}")
    lines.append(f"run.seed = {cfg.seed}")
    lines.append(f"run.cadence = {cfg.cadence}")
    if cfg.clip is not None:
        lines.append(f"run.clip = {_format_value(cfg.clip)}")
    if cfg.constant_after:
        lines.append("run.constant_after = true")
    if cfg.out is not None:
        lines.append(f"run.out = {cfg.out}")
    if cfg.switch is not None:
        lines.append(f"switch.to = {cfg.switch.to}")
        lines.append(f"switch.at = {cfg.switch.at}")
        for key in sorted(cfg.switch.params):
            lines.append(f"switch.{key} = {_format_value(cfg.switch.params[key])}")
    if cfg.forget is not None:
        lines.append(f"forget.t_b = {cfg.forget.t_b}")
    return "\n".join(lines) + "\n"


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
