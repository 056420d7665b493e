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
A parsed :class:`ExperimentConfig` is frozen and holds its normalized section
view, ``cfg.sections``, alone; the view is read-only too (an edit in place is a
``TypeError``), and :func:`config_sections` returns a copy to edit.

:data:`KEY_ROLES` is the one table of the sections and of how each key may
vary: a row key may differ between the rows of one experiment, a shared key is
one value for all of them, and a fixed key is never swept. The parser, the
sweep check and the sweep's grouping all read it. :func:`with_values` is the
one way to set keys of a parsed config.

Defaults follow the experiment conventions: 2-D toys record every step while
MLP runs record every 10th, and MLP configs get weight decay 0.1 unless set
explicitly.
"""

from __future__ import annotations

import inspect
import re
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from .optimizers import OPTIMIZERS, SWITCHES
from .schedules import LR_SCHEDULES, finite_number, integer
from .testbeds import TESTBEDS


class ConfigError(Exception):
    """Invalid experiment configuration (reported before any step runs)."""


# the normalized forgetting curve runs from t_b - 1 to this many steps after t_b
FORGET_SPAN = 50

# a kind's keys, each with its default: the factory's keywords after seed
_TESTBED_KEYS = {
    kind: {name: p.default for name, p in list(inspect.signature(build).parameters.items())[1:]}
    for kind, build in TESTBEDS.items()
}
# a kind's keys, in order: its hyperparameter keywords, and preseed if it has
# momentum (a keys view: ordered, and compared and subtracted like a set);
# AdEMAMix declares momentum per state, and every state of it has m2
_OPTIMIZER_KEYS = {
    kind: dict.fromkeys([*cls.defaults, *(["preseed"] if cls.momentum else [])]).keys()
    for kind, cls in OPTIMIZERS.items()
}
_LR_KEYS = {kind: {f.name for f in fields(cls)} for kind, cls in LR_SCHEDULES.items()}

ROW, SHARED, FIXED = "row", "shared", "fixed"
# section -> the role of its keys, which its kind declares; or -> {key: role}
# for a section whose keys are listed here
KEY_ROLES = {
    "testbed": SHARED,
    "optimizer": SHARED,
    "lr": ROW,
    "run": {"steps": SHARED, "seed": SHARED, "cadence": SHARED, "clip": SHARED,
            "constant_after": FIXED, "out": FIXED},
    "switch": SHARED,
    "forget": {"t_b": FIXED},
}

_INT_RE = re.compile(r"^[+-]?\d+$")


class LrSpec(NamedTuple):
    kind: str
    params: dict


class SwitchSpec(NamedTuple):
    to: str
    at: int
    params: dict


class ForgetSpec(NamedTuple):
    t_b: int


class _ReadOnlyList(list):
    """A list value of a parsed config: it reads and compares as a list, and an
    edit in place is a ``TypeError``."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a parsed config is read-only: edit a copy from config_sections()")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse


def _params(keys, heads=("kind",)) -> dict:
    """A section's keys without its ``heads``: a fresh dict, a list value a
    fresh list."""
    return {key: list(v) if isinstance(v, list) else v for key, v in keys.items()
            if key not in heads}


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked config. Its one field, ``sections``, is the normalized view
    ``section -> {key: value}`` in :func:`format_config` order: ``kind``,
    ``to`` and ``at`` first, the other keys sorted, the ``run`` keys in
    :data:`KEY_ROLES` order without one at its default of ``None`` or false.
    The view is read-only, its sections and its list values: an edit in place
    would skip the checks and leave the cached attributes behind. The other
    attributes read it; the ones each step reads (``clip``, ``cadence`` and
    ``switch``) are cached."""

    sections: dict

    def __post_init__(self):
        object.__setattr__(self, "sections", MappingProxyType({
            section: MappingProxyType(
                {k: _ReadOnlyList(v) if isinstance(v, list) else v for k, v in keys.items()})
            for section, keys in self.sections.items()
        }))

    def __reduce__(self):  # a mappingproxy neither pickles nor copies: rebuild from a copy
        return ExperimentConfig, (config_sections(self),)

    testbed = property(lambda self: self.sections["testbed"]["kind"])
    testbed_params = property(lambda self: _params(self.sections["testbed"]))
    optimizer = property(lambda self: self.sections["optimizer"]["kind"])
    optimizer_params = property(lambda self: _params(self.sections["optimizer"]))
    steps = property(lambda self: self.sections["run"]["steps"])
    seed = property(lambda self: self.sections["run"]["seed"])
    cadence = cached_property(lambda self: self.sections["run"]["cadence"])
    clip = cached_property(lambda self: self.sections["run"].get("clip"))
    constant_after = property(lambda self: self.sections["run"].get("constant_after", False))
    out = property(lambda self: self.sections["run"].get("out"))

    @property
    def lr(self) -> LrSpec:
        return LrSpec(self.sections["lr"]["kind"], _params(self.sections["lr"]))

    @cached_property
    def switch(self) -> SwitchSpec | None:
        sw = self.sections.get("switch")
        if sw is None:
            return None
        return SwitchSpec(sw["to"], sw["at"], MappingProxyType(_params(sw, ("to", "at"))))

    @property
    def forget(self) -> ForgetSpec | None:
        return ForgetSpec(**self.sections["forget"]) if "forget" in self.sections else None


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
        return repr(float(value))  # numpy 2 reprs a np.float64 as "np.float64(x)"
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
        try:
            bucket[name] = _parse_value(value)
        except ValueError as exc:  # an int with more digits than Python converts
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    return config_from_sections(sections)


def _kind_and_params(sections: dict, section: str, keys_by_kind: dict, what: str):
    """Check a section's ``kind`` and the keys that kind allows."""
    params = dict(sections.get(section, {}))
    kind = params.pop("kind", None)
    kinds = tuple(keys_by_kind)  # a tuple: an unhashable list value is simply not found
    if kind not in kinds:
        raise ConfigError(f"{section}.kind must be one of {kinds}, got {kind!r}")
    for key in params:
        if key not in keys_by_kind[kind]:
            raise ConfigError(f"unknown key {section}.{key} for {what} {kind!r}")
    return kind, params


def config_from_sections(sections: dict) -> ExperimentConfig:
    """Check a section view and build its config; raises :class:`ConfigError`
    on any problem, including a value the shared readers refuse."""
    try:
        return _read_sections(sections)
    except ValueError as exc:  # from a reader in emx.schedules, naming its key
        raise ConfigError(str(exc)) from None


def _read_sections(sections: dict) -> ExperimentConfig:
    for section, params in sections.items():
        roles = KEY_ROLES.get(section)
        if roles is None:
            raise ConfigError(f"unknown section {section!r}")
        for key in params:
            if isinstance(roles, dict) and key not in roles:
                raise ConfigError(f"unknown key {section}.{key}")

    testbed, testbed_sec = _kind_and_params(sections, "testbed", _TESTBED_KEYS, "testbed")
    optimizer, optimizer_sec = _kind_and_params(sections, "optimizer", _OPTIMIZER_KEYS, "optimizer")
    lr_kind, lr_sec = _kind_and_params(sections, "lr", _LR_KEYS, "lr kind")
    run_sec = dict(sections.get("run", {}))

    # an int beyond float64: a float key would overflow and a size cannot be allocated
    for section, params in sections.items():
        for key, value in params.items():
            values = value if isinstance(value, list) else [value]
            if (section, key) != ("run", "seed") and any(
                type(v) is int and abs(v) > sys.float_info.max for v in values
            ):
                raise ConfigError(f"{section}.{key} is out of range (larger than a float64)")

    for key, value in testbed_sec.items():  # typed like the default; a tuple one takes a list
        default = _TESTBED_KEYS[testbed][key]
        sized = isinstance(default, tuple)
        size = type(default[0] if sized else default) is int  # a width or count: int >= 1
        for v in value if sized and isinstance(value, list) else [value]:
            if size:
                integer(f"testbed.{key}", v, 1)
            else:
                finite_number(f"testbed.{key}", v)

    if "steps" not in run_sec:
        raise ConfigError("run.steps is required")
    steps = integer("run.steps", run_sec["steps"])
    seed = integer("run.seed", run_sec.get("seed", 0))
    cadence = integer("run.cadence", run_sec.get("cadence", 10 if testbed == "mlp" else 1), 1)
    clip = run_sec.get("clip")
    if clip is not None:
        clip = finite_number("run.clip", clip)
        if clip <= 0:
            raise ConfigError(f"run.clip must be a positive number, got {clip!r}")

    constant_after = run_sec.get("constant_after", False)
    if not isinstance(constant_after, bool):
        raise ConfigError(f"run.constant_after must be true or false, got {constant_after!r}")
    out = run_sec.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"run.out must be a path, got {out!r}")

    # LM-analogue default: decayed optimizers on the MLP task use lambda=0.1
    if testbed == "mlp" and "weight_decay" in _OPTIMIZER_KEYS[optimizer]:
        optimizer_sec.setdefault("weight_decay", 0.1)

    switch_sec = {}
    if "switch" in sections:
        switch_sec = dict(sections["switch"])
        to = switch_sec.pop("to", None)
        target = SWITCHES.get(OPTIMIZERS[optimizer])
        if target is None or to != target.variant:
            allowed = ", ".join(f"{a.variant} -> {b.variant}" for a, b in SWITCHES.items())
            raise ConfigError(f"switch.to = {to!r} from {optimizer} is not one of: {allowed}")
        at = integer("switch.at", switch_sec.pop("at", None), 0, steps)
        # the new state's own keys; the keys both kinds declare carry over
        for key in switch_sec:
            if key not in _OPTIMIZER_KEYS[to] - _OPTIMIZER_KEYS[optimizer]:
                raise ConfigError(f"unknown key switch.{key} for switch.to = {to}")

    if "forget" in sections:
        t_b = integer("forget.t_b", sections["forget"].get("t_b"), 1)
        if t_b + FORGET_SPAN > steps:
            raise ConfigError(f"forget.t_b + {FORGET_SPAN} = {t_b + FORGET_SPAN} exceeds "
                              f"run.steps = {steps}: the normalized curve ends "
                              f"{FORGET_SPAN} steps after t_b")
        if testbed != "mlp":
            raise ConfigError("the forgetting protocol requires testbed.kind = mlp")

    # the horizons: warmups in optimizer and switch, schedule ends in lr
    for section, params in (("optimizer", optimizer_sec), ("switch", switch_sec), ("lr", lr_sec)):
        for key in ("t_alpha", "t_beta3", "total", "decay_end"):
            if key not in params:
                continue
            name, value = f"{section}.{key}", params[key]
            if finite_number(name, value) < 0:
                raise ConfigError(f"{name} must be >= 0, got {value!r}")
            if value > steps and not constant_after:
                raise ConfigError(
                    f"{name} = {value} exceeds run.steps = {steps}; "
                    "set run.constant_after = true to allow schedules that outlive the run"
                )

    # the run keys in KEY_ROLES order
    run = {"steps": steps, "seed": seed, "cadence": cadence, "clip": clip,
           "constant_after": constant_after, "out": out}
    view = {
        "testbed": {"kind": testbed, **dict(sorted(testbed_sec.items()))},
        "optimizer": {"kind": optimizer, **dict(sorted(optimizer_sec.items()))},
        "lr": {"kind": lr_kind, **dict(sorted(lr_sec.items()))},
        "run": {key: v for key, v in run.items() if v is not None and v is not False},
    }
    if "switch" in sections:
        view["switch"] = {"to": to, "at": at, **dict(sorted(switch_sec.items()))}
    if "forget" in sections:
        view["forget"] = {"t_b": t_b}
    return ExperimentConfig(view)


def config_sections(cfg: ExperimentConfig) -> dict:
    """A copy of ``cfg.sections``, the ``section -> {name: value}`` view of
    ``cfg``, in plain dicts and lists to edit; inverse of
    :func:`config_from_sections`."""
    return {section: _params(keys, ()) for section, keys in cfg.sections.items()}


def format_sections(sections: dict) -> str:
    """Render a section view as config text, one ``section.name = value`` line per key."""
    return "".join(
        f"{section}.{name} = {_format_value(value)}\n"
        for section, keys in sections.items()
        for name, value in keys.items()
    )


def check_sweepable(cfg: ExperimentConfig, dotted_key: str) -> None:
    """Refuse a key that a sweep of ``cfg`` may not set: one that
    :data:`KEY_ROLES` does not know or marks fixed, or a ``switch.*`` key of a
    config with no switch."""
    section, _, name = dotted_key.partition(".")
    if not name:
        raise ConfigError(f"override key {dotted_key!r} is missing its section prefix")
    if section == "switch" and cfg.switch is None:
        raise ConfigError("config has no switch directive to override")
    roles = KEY_ROLES.get(section)
    if roles is None:
        raise ConfigError(f"unknown override section {section!r}")
    if not isinstance(roles, dict):
        roles = {name: roles}
    if roles.get(name, FIXED) == FIXED:
        raise ConfigError(f"cannot sweep {dotted_key}")


def shared_text(cfg: ExperimentConfig) -> str:
    """The config text of every section whose keys are not row keys: what the
    rows of one experiment share."""
    return format_sections({s: keys for s, keys in cfg.sections.items() if KEY_ROLES[s] != ROW})


def with_values(cfg: ExperimentConfig, values: dict) -> ExperimentConfig:
    """A copy of ``cfg`` with each ``dotted_key -> value`` of ``values`` set
    (a section ``cfg`` lacks is added).

    The copy is rendered to config text and parsed once, so it is checked as a
    whole and each value is normalized like a parsed one (a tuple becomes a
    list, an ``np.int64`` an ``int``).
    """
    sections = config_sections(cfg)
    for dotted_key, value in values.items():
        section, _, name = dotted_key.partition(".")
        sections.setdefault(section, {})[name] = value
    return parse_config(format_sections(sections))


def format_config(cfg: ExperimentConfig) -> str:
    """Render a config back to its textual form (inverse of :func:`parse_config`)."""
    return format_sections(cfg.sections)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
