"""Config-driven experiment runner with deterministic, structured output.

One step of the loop: sample batch -> gradient -> clip -> schedule values ->
optimizer update -> record, for one point or for several stepped together as
the rows of one state (see :class:`Experiment`). Everything downstream of the config and seed is
deterministic, including every byte of the emitted CSV/JSONL, so repeated
runs and checkpoint-resumed runs compare bit-for-bit.
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple, get_type_hints

import numpy as np

from .checkpoint import CheckpointData, restore_optimizer, save_state
from .config import (
    FORGET_SPAN,
    ConfigError,
    ExperimentConfig,
    _format_value,
    check_sweepable,
    shared_text,
    with_values,
)
from .numerics import finite_rows, global_norm_clip, row_norms
from .optimizers import OPTIMIZERS, preseed_momentum, switch_optimizer
from .schedules import LR_SCHEDULES, typed
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
    diverged_step: int | None = None
    final_step: int = 0
    final_loss: float = math.inf
    final_distance: float | None = None

    @property
    def diverged(self) -> bool:
        return self.diverged_step is not None

    @property
    def status(self) -> str:
        return "diverged" if self.diverged else "completed"

    def best_loss(self) -> float:
        losses = [row.loss for row in self.rows if math.isfinite(row.loss)]
        return min(losses) if losses else math.inf


_type_hints = functools.cache(get_type_hints)  # one lookup per schedule class, not per row


def _build_lr_schedule(cfg: ExperimentConfig):
    cls = LR_SCHEDULES[cfg.lr.kind]
    p = {"eta_min": 0.0, "warmup": 0, "total": cfg.steps, **cfg.lr.params}
    types = _type_hints(cls)
    try:  # each field is read like a default of its annotated type
        return cls(**{f.name: typed(f"lr.{f.name}", p[f.name], types[f.name]())
                      for f in fields(cls)})
    except KeyError as exc:
        raise ConfigError(f"lr.{exc.args[0]} is required for lr.kind = {cfg.lr.kind}") from None
    except ValueError as exc:  # a value typed wrong, or fields the schedule refuses
        raise ConfigError(f"bad lr schedule parameters: {exc}") from exc


def _build_optimizer(kind: str, params: dict, dim: int, switch=None):
    """The configured optimizer or, given ``switch``, what it becomes there."""
    params = dict(params)
    preseed = params.pop("preseed", None)
    try:
        opt = OPTIMIZERS[kind](dim, **params)
        if switch is not None:  # the state as it leaves step switch.at
            opt.t = switch.at
            return switch_optimizer(opt, OPTIMIZERS[switch.to], **switch.params)
        if preseed is not None:
            preseed_momentum(opt, preseed)
    except (TypeError, ValueError) as exc:
        what = "switch" if switch else "optimizer"
        raise ConfigError(f"bad {what} parameters for {kind!r}: {exc}") from exc
    return opt


@dataclass
class _Row:
    """One point of an :class:`Experiment`: its lr schedule, record and
    held-out series."""

    lr: object
    record: RunRecord = field(default_factory=RunRecord)
    heldout: list = field(default_factory=list)


class Experiment:
    """A configured run of one or more points, steppable and checkpointable.

    ``rows`` are configs equal to ``cfg`` except for their ``lr.*`` values
    (default: ``cfg`` alone). Each is one row of ``theta`` and of every
    optimizer slot, and all rows advance together: one batch, one testbed
    call and one optimizer step per step, on any testbed, with the learning
    rate a ``(K, 1)`` column of each row's own schedule. Every operation on
    a row is elementwise and every reduction is taken per row, so each
    row's record has the bytes of the point run alone. A row whose loss,
    gradient or new state is non-finite is recorded as diverged at that
    step and dropped from the state; the others go on. ``records`` holds
    one :class:`RunRecord` per row; ``record`` and ``heldout_series`` are the
    first row's.

    ``track_heldout=True`` evaluates the held-out loss after every step into
    ``heldout_series``. An experiment holds no state outside itself, so a
    ``copy.deepcopy`` of it is an independent run from the same step.
    """

    def __init__(
        self,
        cfg: ExperimentConfig,
        resume_from: CheckpointData | None = None,
        track_heldout: bool = False,
        rows: list | None = None,
    ):
        if rows is None:
            rows = [cfg]
        elif not rows:
            raise ConfigError("an experiment needs at least one row")
        elif {shared_text(point) for point in rows} != {shared_text(cfg)}:
            raise ConfigError("the rows of an experiment may differ only in lr.* values")
        self.cfg = cfg
        self.track_heldout = track_heldout

        build = TESTBEDS[cfg.testbed]
        try:
            self.testbed, self.dataset, theta0 = build(cfg.seed, **cfg.testbed_params)
        except (ValueError, MemoryError) as exc:  # sizes numpy refuses or cannot allocate
            raise ConfigError(f"cannot build testbed {cfg.testbed!r}: {exc}") from exc
        if theta0.shape != (self.testbed.dim,):
            raise ConfigError(
                f"initial point has length {theta0.shape}, testbed needs {self.testbed.dim}"
            )

        self._rows = [_Row(_build_lr_schedule(point)) for point in rows]
        self._live = list(self._rows)
        self.records = [row.record for row in self._rows]
        self.record = self.records[0]
        self.heldout_series: list[tuple[int, float]] = self._rows[0].heldout

        restored = None if resume_from is None else restore_optimizer(resume_from)
        self.opt = _build_optimizer(cfg.optimizer, cfg.optimizer_params, self.testbed.dim)
        target = None
        if cfg.switch is not None:  # fail now rather than at step switch.at
            target = _build_optimizer(cfg.optimizer, cfg.optimizer_params, 0, cfg.switch)
        if restored is not None:
            if restored.t > cfg.steps:
                raise ConfigError(
                    f"checkpoint is at step {restored.t}, past run.steps = {cfg.steps}"
                )
            theta = resume_from.slots.get("theta")
            if theta is None or not len(theta) == restored.dim == self.testbed.dim:
                raise ConfigError(f"checkpoint has no theta and state of length {self.testbed.dim}")
            for name, vec in {**restored.state_slots(), "theta": theta}.items():
                if not np.isfinite(vec).all():
                    raise ConfigError(f"checkpoint slot {name!r} holds a non-finite value")
            sw, t = cfg.switch, restored.t  # the config's state before switch.at, the target after
            expected = [self.opt] if sw is None or t <= sw.at else []
            if sw is not None and t >= sw.at:
                expected.append(target)
            match = next((opt for opt in expected if opt.variant == restored.variant), None)
            if match is None:
                raise ConfigError(
                    f"checkpoint holds a {restored.variant!r} state at step {t}, "
                    f"the config expects {' or '.join(sorted(opt.variant for opt in expected))}"
                )
            for key in match.hyper():
                if (held := getattr(restored, key)) != (want := getattr(match, key)):
                    raise ConfigError(
                        f"checkpoint holds a {restored.variant!r} state with {key} = {held!r} "
                        f"at step {t}, the config expects {key} = {want!r}"
                    )
            self.opt, theta0 = restored, theta
        # every row starts from the same point and state
        self.theta = np.tile(theta0, (len(rows), 1))
        self.opt.select_rows([0] * len(rows))

        self._heldout_batch = (self.dataset.heldout_batch()  # read by track_heldout alone
                               if track_heldout and self.dataset else None)
        if self.track_heldout and self.opt.t == 0:
            for row, loss in zip(self._live, self.testbed.loss(self.theta, self._heldout_batch)):
                row.heldout.append((0, loss))

    def _distances(self) -> list:
        """Each live row's distance to the optimum; ``None`` without one."""
        optimum = self.testbed.optimum
        return [None] * len(self.theta) if optimum is None else row_norms(self.theta - optimum)

    def _drop(self, ok: np.ndarray, t: int, losses: list, *arrays) -> list:
        """Record each live row not ``ok`` as diverged at step ``t`` and take it
        out of the state; return ``losses`` and ``arrays`` without those rows."""
        keep = ok.tolist()
        for row, good in zip(self._live, keep):
            if not good:
                rec = row.record
                rec.diverged_step, rec.final_step, rec.final_loss = t, t - 1, math.inf
        self._live = list(itertools.compress(self._live, keep))
        self.theta = self.theta[ok]
        self.opt.select_rows(ok)
        return [list(itertools.compress(losses, keep)), *(a[ok] for a in arrays)]

    def _maybe_switch(self):
        sw = self.cfg.switch
        if sw is not None and self.opt.t == sw.at and self.opt.variant != sw.to:
            self.opt = switch_optimizer(self.opt, OPTIMIZERS[sw.to], **sw.params)

    def _step(self, batch=None) -> None:
        """One step of every live row, on ``batch`` (default: the training
        batch of the step)."""
        cfg = self.cfg
        self._maybe_switch()
        t = self.opt.t + 1
        if batch is None and self.dataset:
            batch = self.dataset.batch(t)
        losses, grad = self.testbed.loss_and_grad(self.theta, batch)
        # a non-finite value makes the loss sum or the square sum non-finite;
        # an overflowed sum of finite values falls through to masks that keep
        # every row
        if not (math.isfinite(sum(losses)) and math.isfinite(np.vdot(grad, grad))):
            ok = np.isfinite(losses) & np.isfinite(grad).all(axis=-1)
            if not ok.all():
                losses, grad = self._drop(ok, t, losses, grad)
                if not self._live:
                    return
        if cfg.clip is not None:
            for row in grad:
                if (clipped := global_norm_clip(row, cfg.clip)) is not row:
                    row[...] = clipped
        lr = np.array([row.lr.at(t) for row in self._live])[:, np.newaxis]
        args = self.opt.schedule_args(t)
        new = self.opt.step(self.theta, grad, lr, *args)
        ok = finite_rows(new, *self.opt.slots)
        if ok is not None:
            losses, lr, new = self._drop(ok, t, losses, lr, new)

        old, self.theta = self.theta, new
        heldout = [None] * len(new)
        if self.track_heldout:
            heldout = self.testbed.loss(self.theta, self._heldout_batch)
            for row, loss in zip(self._live, heldout):
                row.heldout.append((t, loss))
        if t % cfg.cadence == 0:
            alpha, beta3 = args[:2] if args else (None, None)
            optimum = self.testbed.optimum
            if optimum is None:
                update_norms, dists = row_norms(new - old), [None] * len(new)
            else:  # both norms in one call
                diffs = np.empty((2, *new.shape))
                np.subtract(new, old, out=diffs[0])
                np.subtract(new, optimum, out=diffs[1])
                update_norms, dists = row_norms(diffs)
            for row, loss, dist, eta, update_norm, held in zip(
                self._live, losses, dists, lr[:, 0].tolist(), update_norms, heldout,
            ):
                row.record.rows.append(
                    RunRow(t, loss, dist, eta, alpha, beta3, update_norm, held)
                )

    def _advance(self, stop: int) -> None:
        """Step every live row to step ``stop``, with no final evaluation."""
        while self._live and self.opt.t < stop:
            self._step()

    def run(self, until: int | None = None) -> RunRecord:
        """Advance every live row to step ``until`` (default: the configured
        total); return the first row's record."""
        self._advance(self.cfg.steps if until is None else min(until, self.cfg.steps))
        if self._live:
            self._maybe_switch()
            eval_batch = self.dataset.eval_batch() if self.dataset is not None else None
            losses = self.testbed.loss(self.theta, eval_batch)
            for row, loss, dist in zip(self._live, losses, self._distances()):
                row.record.final_step = self.opt.t
                row.record.final_loss = loss
                row.record.final_distance = dist
        return self.record

    def checkpoint(self) -> bytes:
        """Serialize the optimizer state plus the current parameters of a
        one-row experiment; more rows are a ``ValueError``."""
        return save_state(self.opt, extra_slots={"theta": self.theta})


def run_experiment(cfg: ExperimentConfig, resume_from: CheckpointData | None = None) -> RunRecord:
    return Experiment(cfg, resume_from=resume_from).run()


@dataclass
class ForgettingResult:
    control: RunRecord
    injected: RunRecord
    control_heldout: list  # (step, held-out loss) for every step incl. step 0
    injected_heldout: list
    normalized: list  # (step, value); 0 right before injection, -1 FORGET_SPAN steps after


def run_forgetting_protocol(cfg: ExperimentConfig) -> ForgettingResult:
    """Paired runs measuring how fast a once-seen batch is forgotten.

    The control run never sees the held-out batch; the injected run trains on
    it exactly once, at ``forget.t_b``, in place of the scheduled batch. The
    two are one run up to step ``t_b - 1``: it runs once, and the injected
    run is a copy of it from there. Both track the held-out loss after every
    step. The normalized curve rescales the injected run's series so the
    value just before injection is 0 and the value
    :data:`emx.config.FORGET_SPAN` steps after is -1.
    """
    if cfg.forget is None:
        raise ConfigError("config has no forget.t_b directive")
    t_b = cfg.forget.t_b

    control_exp = Experiment(cfg, track_heldout=True)
    control_exp._advance(t_b - 1)
    injected_exp = copy.deepcopy(control_exp)
    if injected_exp._live:
        injected_exp._step(injected_exp._heldout_batch)
    control = control_exp.run()
    injected = injected_exp.run()

    normalized = []
    series = dict(injected_exp.heldout_series)
    if not injected.diverged:  # the config has t_b + FORGET_SPAN <= run.steps
        anchor0, anchor_end = series[t_b - 1], series[t_b + FORGET_SPAN]
        scale = anchor0 - anchor_end
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
    """Return a copy of ``cfg`` with one dotted config key replaced: the key
    must pass :func:`emx.config.check_sweepable`, and the copy is made by
    :func:`emx.config.with_values`."""
    check_sweepable(cfg, dotted_key)
    return with_values(cfg, {dotted_key: value})


def run_sweep(cfg: ExperimentConfig, grid: dict) -> SweepResult:
    """Run the cartesian product of ``grid`` (dotted key -> list of values).

    Each key is checked once, then each point's keys are set together and
    the point is checked as one config, so the order of the keys does not
    matter. Points whose configs are equal except for ``lr.*`` values run as
    the rows of one :class:`Experiment`, on every testbed: they share each
    step's batch, testbed call and optimizer step, and every record has the
    bytes of the point run alone.
    Divergence in one grid point is recorded as a flag and never aborts or
    perturbs sibling runs; every run uses the base config seed so duplicate
    grid points produce identical records.
    """
    if not grid:
        raise ConfigError("sweep grid is empty")
    for key, values in grid.items():
        if not values:
            raise ConfigError(f"sweep grid for {key!r} is empty")
        check_sweepable(cfg, key)

    points = []
    groups: dict = {}
    for index, combo in enumerate(itertools.product(*grid.values())):
        overrides = dict(zip(grid, combo))
        point = with_values(cfg, overrides)  # the point is checked as a whole
        points.append((overrides, point))
        groups.setdefault(shared_text(point), []).append(index)

    # build every group before stepping any, so a bad point fails at once
    runs = [(members, Experiment(points[members[0]][1], rows=[points[i][1] for i in members]))
            for members in groups.values()]
    records = [None] * len(points)
    for members, exp in runs:
        exp.run()
        for i, record in zip(members, exp.records):
            records[i] = record

    entries = [
        SweepEntry(
            index=index,
            overrides=overrides,
            final_loss=record.final_loss,
            best_loss=record.best_loss(),
            diverged=record.diverged,
        )
        for index, ((overrides, _), record) in enumerate(zip(points, records))
    ]
    return SweepResult(entries=entries, records=records)


def _csv(header, rows) -> str:
    """CSV text: a header line, then one line per row; a cell is ``""`` for
    ``None``, else ``str`` of the value (for a float, its ``repr``)."""
    lines = [",".join(header)]
    lines += [",".join(["" if v is None else str(v) for v in row]) for row in rows]
    return "\n".join(lines) + "\n"


def format_record_csv(record: RunRecord) -> str:
    return _csv(RECORD_COLUMNS, record.rows)


def format_record_jsonl(record: RunRecord) -> str:
    """One JSON object per row; a non-finite float is the string of its CSV
    cell (``"inf"``, ``"-inf"``, ``"nan"``), which JSON has no number for,
    and ``None`` is ``null``."""
    return "".join(
        json.dumps({k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
                    for k, v in row._asdict().items()}) + "\n"
        for row in record.rows
    )


def format_sweep_csv(result: SweepResult) -> str:
    """One row per grid point, sorted as :meth:`SweepResult.summary`; a list
    value (``testbed.hidden``) is its config text in double quotes, one field."""
    keys = list(result.entries[0].overrides) if result.entries else []

    def cell(value):
        return f'"{_format_value(value)}"' if isinstance(value, (list, tuple)) else value

    rows = (
        (e.index, *[cell(e.overrides[k]) for k in keys], e.final_loss, e.best_loss,
         "true" if e.diverged else "false")
        for e in result.summary()
    )
    return _csv(["index", *keys, "final_loss", "best_loss", "diverged"], rows)


def format_series_csv(series, columns=("step", "value")) -> str:
    return _csv(columns, ((step, float(value)) for step, value in series))


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
