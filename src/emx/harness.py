"""Config-driven experiment runner with deterministic, structured output.

One step of the loop: sample batch -> gradient -> clip -> schedule values ->
optimizer update -> record. Everything downstream of the config and seed is
deterministic, including every byte of the emitted CSV/JSONL, so repeated
runs and checkpoint-resumed runs compare bit-for-bit.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple, get_type_hints

import numpy as np

from .checkpoint import CheckpointData, restore_optimizer, save_state
from .config import (
    ConfigError,
    ExperimentConfig,
    config_sections,
    format_sections,
    parse_config,
)
from .numerics import DivergenceError, global_norm_clip, l2_norm
from .optimizers import OPTIMIZERS, preseed_momentum, switch_optimizer
from .schedules import LR_SCHEDULES, finite_number, step_count
from .testbeds import TESTBEDS


class RunRow(NamedTuple):
    """One recorded step; the field order is the record's column order."""

    step: int
    loss: float
    distance_to_optimum: float | None
    eta: float
    alpha: float | None
    beta3: float | None
    update_norm: float
    heldout_loss: float | None = None


RECORD_COLUMNS = RunRow._fields


@dataclass
class RunRecord:
    rows: list = field(default_factory=list)
    status: str = "completed"  # "completed" | "diverged"
    diverged_step: int | None = None
    final_step: int = 0
    final_loss: float = math.inf
    final_distance: float | None = None

    @property
    def diverged(self) -> bool:
        return self.status == "diverged"

    def best_loss(self) -> float:
        losses = [row.loss for row in self.rows if math.isfinite(row.loss)]
        return min(losses) if losses else math.inf


def _build_lr_schedule(cfg: ExperimentConfig):
    cls = LR_SCHEDULES.get(cfg.lr.kind)
    if cls is None:
        raise ConfigError(f"unknown lr kind {cfg.lr.kind!r}")
    p = {"eta_min": 0.0, "warmup": 0, "total": cfg.steps, **cfg.lr.params}
    types = get_type_hints(cls)
    try:
        return cls(**{f.name: (step_count if types[f.name] is int else finite_number)(
            f"lr.{f.name}", p[f.name]) for f in fields(cls)})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad lr schedule parameters: {exc}") from exc


def _build_optimizer(kind: str, params: dict, dim: int, switch=None):
    """The configured optimizer or, given ``switch``, what it becomes there."""
    params = dict(params)
    preseed = params.pop("preseed", None)
    cls = OPTIMIZERS.get(kind)
    if cls is None:
        raise ConfigError(f"unknown optimizer kind {kind!r}")
    try:
        opt = cls(dim, **params)
        if switch is not None:
            return switch_optimizer(opt, OPTIMIZERS[switch.to], **switch.params)
        if preseed is not None:
            preseed_momentum(opt, preseed)
    except (TypeError, ValueError) as exc:
        what = "switch" if switch else "optimizer"
        raise ConfigError(f"bad {what} parameters for {kind!r}: {exc}") from exc
    return opt


class Experiment:
    """A single configured run, steppable and checkpointable.

    ``inject_heldout_at`` replaces the scheduled training batch at that step
    with the dataset's held-out batch (stream length unchanged, so control
    and injected runs stay step-aligned). ``track_heldout=True`` additionally
    evaluates the held-out loss after every step into ``heldout_series``.
    """

    def __init__(
        self,
        cfg: ExperimentConfig,
        resume_from: CheckpointData | None = None,
        inject_heldout_at: int | None = None,
        track_heldout: bool = False,
    ):
        self.cfg = cfg
        self.inject_heldout_at = inject_heldout_at
        self.track_heldout = track_heldout

        self.testbed, self.dataset, theta0 = TESTBEDS[cfg.testbed](cfg.seed, **cfg.testbed_params)
        if theta0.shape != (self.testbed.dim,):
            raise ConfigError(
                f"initial point has length {theta0.shape}, testbed needs {self.testbed.dim}"
            )

        self.lr_schedule = _build_lr_schedule(cfg)

        if resume_from is not None:
            self.opt = restore_optimizer(resume_from)
            theta = resume_from.slots.get("theta")
            if theta is None or not len(theta) == self.opt.dim == self.testbed.dim:
                raise ConfigError(f"checkpoint has no theta and state of length {self.testbed.dim}")
            sw, t = cfg.switch, self.opt.t  # the kind before switch.at, the target after
            expected = {cfg.optimizer} if sw is None or t <= sw.at else set()
            if sw is not None and t >= sw.at:
                expected.add(sw.to)
            if self.opt.variant not in expected:
                raise ConfigError(
                    f"checkpoint holds a {self.opt.variant!r} state at step {t}, "
                    f"the config expects {' or '.join(sorted(expected))}"
                )
            self.theta = theta.copy()
        else:
            self.opt = _build_optimizer(cfg.optimizer, cfg.optimizer_params, self.testbed.dim)
            self.theta = theta0.copy()
        if cfg.switch is not None:  # fail now rather than at step switch.at
            _build_optimizer(cfg.optimizer, cfg.optimizer_params, 0, cfg.switch)

        self.record = RunRecord()
        self.heldout_series: list[tuple[int, float]] = []
        self._heldout_batch = self.dataset.heldout_batch() if self.dataset else None
        if self.track_heldout and self.opt.t == 0:
            self.heldout_series.append((0, self._heldout_loss()))

    def _heldout_loss(self) -> float:
        return self.testbed.loss(self.theta, self._heldout_batch)

    def _maybe_switch(self):
        sw = self.cfg.switch
        if sw is not None and self.opt.t == sw.at and self.opt.variant != sw.to:
            self.opt = switch_optimizer(self.opt, OPTIMIZERS[sw.to], **sw.params)

    def run(self, until: int | None = None) -> RunRecord:
        """Advance to step ``until`` (default: the configured total)."""
        cfg = self.cfg
        stop = cfg.steps if until is None else min(until, cfg.steps)
        while self.opt.t < stop:
            self._maybe_switch()
            t = self.opt.t + 1
            batch = None
            if self.dataset is not None:
                if self.inject_heldout_at is not None and t == self.inject_heldout_at:
                    batch = self._heldout_batch
                else:
                    batch = self.dataset.batch(t)
            try:
                loss, grad = self.testbed.loss_and_grad(self.theta, batch)
                if not math.isfinite(loss) or not np.isfinite(grad).all():
                    raise DivergenceError("non-finite loss or gradient", step=t)
                if cfg.clip is not None:
                    grad = global_norm_clip(grad, cfg.clip)
                eta = self.lr_schedule.at(t)
                args = self.opt.schedule_args(t)
                new_theta = self.opt.step(self.theta, grad, eta, *args)
            except DivergenceError:
                self.record.status = "diverged"
                self.record.diverged_step = t
                self.record.final_step = t - 1
                self.record.final_loss = math.inf
                return self.record

            update_norm = l2_norm(new_theta - self.theta)
            self.theta = new_theta

            heldout = None
            if self.track_heldout:
                heldout = self._heldout_loss()
                self.heldout_series.append((t, heldout))
            if t % cfg.cadence == 0:
                dist = None
                if self.testbed.optimum is not None:
                    dist = l2_norm(self.theta - self.testbed.optimum)
                self.record.rows.append(
                    RunRow(
                        step=t,
                        loss=loss,
                        distance_to_optimum=dist,
                        eta=eta,
                        alpha=args[0] if args else None,
                        beta3=args[1] if args else None,
                        update_norm=update_norm,
                        heldout_loss=heldout,
                    )
                )
        self._maybe_switch()
        self.record.final_step = self.opt.t
        self.record.final_loss = self._final_loss()
        if self.testbed.optimum is not None:
            self.record.final_distance = l2_norm(self.theta - self.testbed.optimum)
        return self.record

    def _final_loss(self) -> float:
        if self.dataset is not None:
            return self.testbed.loss(self.theta, self.dataset.eval_batch())
        return self.testbed.loss(self.theta)

    def checkpoint(self) -> bytes:
        """Serialize the optimizer state plus the current parameters."""
        return save_state(self.opt, extra_slots={"theta": self.theta})


def run_experiment(cfg: ExperimentConfig, resume_from: CheckpointData | None = None) -> RunRecord:
    return Experiment(cfg, resume_from=resume_from).run()


@dataclass
class ForgettingResult:
    control: RunRecord
    injected: RunRecord
    control_heldout: list  # (step, held-out loss) for every step incl. step 0
    injected_heldout: list
    normalized: list  # (step, value); 0 right before injection, -1 fifty steps after


def run_forgetting_protocol(cfg: ExperimentConfig) -> ForgettingResult:
    """Paired runs measuring how fast a once-seen batch is forgotten.

    The control run never sees the held-out batch; the injected run trains on
    it exactly once, at ``forget.t_b``, in place of the scheduled batch. Both
    track the held-out loss after every step. The normalized curve rescales
    the injected run's series so the value just before injection is 0 and the
    value 50 steps after is -1.
    """
    if cfg.forget is None:
        raise ConfigError("config has no forget.t_b directive")
    t_b = cfg.forget.t_b

    control_exp = Experiment(cfg, track_heldout=True)
    control = control_exp.run()
    injected_exp = Experiment(cfg, track_heldout=True, inject_heldout_at=t_b)
    injected = injected_exp.run()

    normalized = []
    series = dict(injected_exp.heldout_series)
    if not injected.diverged:  # the config has t_b + 50 <= run.steps
        anchor0 = series[t_b - 1]
        anchor50 = series[t_b + 50]
        scale = anchor0 - anchor50
        if scale != 0.0:
            normalized = [
                (s, (value - anchor0) / scale)
                for s, value in injected_exp.heldout_series
                if s >= t_b - 1
            ]
    return ForgettingResult(
        control=control,
        injected=injected,
        control_heldout=control_exp.heldout_series,
        injected_heldout=injected_exp.heldout_series,
        normalized=normalized,
    )


@dataclass
class SweepEntry:
    index: int
    overrides: dict
    final_loss: float
    best_loss: float
    diverged: bool


@dataclass
class SweepResult:
    entries: list  # in grid order
    records: list  # RunRecord per entry, grid order

    def summary(self) -> list:
        """Entries sorted by final loss (diverged last), stable on grid order."""
        return sorted(
            self.entries,
            key=lambda e: (e.diverged, e.final_loss if math.isfinite(e.final_loss) else math.inf),
        )


def apply_override(cfg: ExperimentConfig, dotted_key: str, value) -> ExperimentConfig:
    """Return a copy of ``cfg`` with one dotted config key replaced.

    The copy is rendered to config text and parsed again, so the value is
    validated and normalized like a parsed one (a tuple becomes a list).
    """
    section, _, name = dotted_key.partition(".")
    if not name:
        raise ConfigError(f"override key {dotted_key!r} is missing its section prefix")
    if section == "switch" and cfg.switch is None:
        raise ConfigError("config has no switch directive to override")
    if section not in ("testbed", "optimizer", "lr", "run", "switch"):
        raise ConfigError(f"unknown override section {section!r}")
    if section == "run" and name not in ("steps", "seed", "cadence", "clip"):
        raise ConfigError(f"cannot sweep run.{name}")
    sections = config_sections(cfg)
    sections[section][name] = value
    return parse_config(format_sections(sections))


def run_sweep(cfg: ExperimentConfig, grid: dict) -> SweepResult:
    """Run the cartesian product of ``grid`` (dotted key -> list of values).

    Divergence in one grid point is recorded as a flag and never aborts or
    perturbs sibling runs; every run uses the base config seed so duplicate
    grid points produce identical records.
    """
    if not grid:
        raise ConfigError("sweep grid is empty")
    for key, values in grid.items():
        if not values:
            raise ConfigError(f"sweep grid for {key!r} is empty")

    entries = []
    records = []
    for index, combo in enumerate(itertools.product(*grid.values())):
        overrides = dict(zip(grid, combo))
        point = cfg
        for key, value in overrides.items():
            point = apply_override(point, key, value)
        record = run_experiment(point)
        entries.append(
            SweepEntry(
                index=index,
                overrides=overrides,
                final_loss=record.final_loss if not record.diverged else math.inf,
                best_loss=record.best_loss(),
                diverged=record.diverged,
            )
        )
        records.append(record)
    return SweepResult(entries=entries, records=records)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_record_csv(record: RunRecord) -> str:
    lines = [",".join(RECORD_COLUMNS)]
    for row in record.rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def format_record_jsonl(record: RunRecord) -> str:
    return "".join(json.dumps(row._asdict()) + "\n" for row in record.rows)


def format_sweep_csv(result: SweepResult) -> str:
    if not result.entries:
        return "index,final_loss,best_loss,diverged\n"
    keys = list(result.entries[0].overrides.keys())
    header = ["index", *keys, "final_loss", "best_loss", "diverged"]
    lines = [",".join(header)]
    for entry in result.summary():
        cells = [str(entry.index)]
        cells += [_cell(entry.overrides[k]) for k in keys]
        cells.append(_cell(entry.final_loss))
        cells.append(_cell(entry.best_loss))
        cells.append("true" if entry.diverged else "false")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def format_series_csv(series, columns=("step", "value")) -> str:
    lines = [",".join(columns)]
    for step, value in series:
        lines.append(f"{step},{_cell(float(value))}")
    return "\n".join(lines) + "\n"


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
