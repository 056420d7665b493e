"""Config-driven experiment runner with deterministic, structured output.

One step of the loop: sample batch -> gradient -> clip -> schedule values ->
optimizer update -> record. Everything downstream of the config and seed is
deterministic, including every byte of the emitted CSV/JSONL, so repeated
runs and checkpoint-resumed runs compare bit-for-bit.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .checkpoint import CheckpointData, restore_optimizer, save_state
from .config import ConfigError, ExperimentConfig, format_config, parse_config
from .numerics import DivergenceError, global_norm_clip, l2_norm
from .optimizers import OPTIMIZERS, preseed_momentum, switch_optimizer
from .schedules import ConstantSchedule, WarmupConstantLinearDecay, WarmupCosineDecay
from .testbeds import SyntheticDataset, TinyMlp, rosenbrock_testbed, sharp_valley_testbed

RECORD_COLUMNS = (
    "step",
    "loss",
    "distance_to_optimum",
    "eta",
    "alpha",
    "beta3",
    "update_norm",
    "heldout_loss",
)


@dataclass
class RunRow:
    step: int
    loss: float
    distance_to_optimum: float | None
    eta: float
    alpha: float | None
    beta3: float | None
    update_norm: float
    heldout_loss: float | None = None

    def as_tuple(self):
        return (
            self.step,
            self.loss,
            self.distance_to_optimum,
            self.eta,
            self.alpha,
            self.beta3,
            self.update_norm,
            self.heldout_loss,
        )


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
    kind, p = cfg.lr.kind, cfg.lr.params
    try:
        if kind == "constant":
            return ConstantSchedule(value=float(p["value"]))
        if kind == "lr_warmup_cosine":
            return WarmupCosineDecay(
                eta_max=float(p["eta_max"]),
                eta_min=float(p.get("eta_min", 0.0)),
                warmup=int(p.get("warmup", 0)),
                total=int(p.get("total", cfg.steps)),
            )
        if kind == "lr_warmup_constant_linear_decay":
            return WarmupConstantLinearDecay(
                eta_max=float(p["eta_max"]),
                eta_min=float(p.get("eta_min", 0.0)),
                warmup=int(p.get("warmup", 0)),
                decay_start=int(p["decay_start"]),
                decay_end=int(p["decay_end"]),
            )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad lr schedule parameters: {exc}") from exc
    raise ConfigError(f"unknown lr kind {kind!r}")


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
            preseed_momentum(opt, np.asarray(preseed, dtype=np.float64))
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
        self.dataset = None
        self.inject_heldout_at = inject_heldout_at
        self.track_heldout = track_heldout

        if cfg.testbed == "rosenbrock":
            self.testbed = rosenbrock_testbed()
            theta0 = np.asarray(
                cfg.testbed_params.get("x0", [-3.0, 5.0]), dtype=np.float64
            )
        elif cfg.testbed == "valley":
            self.testbed = sharp_valley_testbed()
            theta0 = np.asarray(
                cfg.testbed_params.get("x0", [0.3, 1.5]), dtype=np.float64
            )
        elif cfg.testbed == "mlp":
            p = cfg.testbed_params
            input_dim = int(p.get("input_dim", 16))
            hidden = p.get("hidden", [64, 64])
            if isinstance(hidden, int):
                hidden = [hidden]
            dims = [input_dim, *[int(h) for h in hidden], 1]
            self.testbed = TinyMlp(dims)
            self.dataset = SyntheticDataset(
                input_dim=input_dim,
                batch_size=int(p.get("batch_size", 32)),
                seed=cfg.seed,
                noise=float(p.get("noise", 0.05)),
                eval_size=int(p.get("eval_size", 256)),
            )
            theta0 = self.testbed.init_params(self.dataset.init_rng())
        else:
            raise ConfigError(f"unknown testbed {cfg.testbed!r}")

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
                if not math.isfinite(loss) or not np.all(np.isfinite(grad)):
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
    if not injected.diverged and t_b + 50 <= cfg.steps:
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
    """Return a copy of ``cfg`` with one dotted config key replaced."""
    new = copy.deepcopy(cfg)
    section, _, name = dotted_key.partition(".")
    if not name:
        raise ConfigError(f"override key {dotted_key!r} is missing its section prefix")
    if section == "testbed":
        if name == "kind":
            new = replace(new, testbed=value)
        else:
            new.testbed_params[name] = value
    elif section == "optimizer":
        if name == "kind":
            new = replace(new, optimizer=value)
        else:
            new.optimizer_params[name] = value
    elif section == "lr":
        if name == "kind":
            new.lr.kind = value
        else:
            new.lr.params[name] = value
    elif section == "run":
        if name == "steps":
            new = replace(new, steps=value)
        elif name == "seed":
            new = replace(new, seed=value)
        elif name == "cadence":
            new = replace(new, cadence=value)
        elif name == "clip":
            new = replace(new, clip=value)
        else:
            raise ConfigError(f"cannot sweep run.{name}")
    elif section == "switch":
        if new.switch is None:
            raise ConfigError("config has no switch directive to override")
        if name == "at":
            new.switch.at = value
        elif name == "to":
            new.switch.to = value
        else:
            new.switch.params[name] = value
    else:
        raise ConfigError(f"unknown override section {section!r}")
    # round-trip through the textual form to re-validate
    return parse_config(format_config(new))


def run_sweep(cfg: ExperimentConfig, grid: dict) -> SweepResult:
    """Run the cartesian product of ``grid`` (dotted key -> list of values).

    Divergence in one grid point is recorded as a flag and never aborts or
    perturbs sibling runs; every run uses the base config seed so duplicate
    grid points produce identical records.
    """
    if not grid:
        raise ConfigError("sweep grid is empty")
    keys = list(grid.keys())
    value_lists = [grid[k] for k in keys]
    for key, values in zip(keys, value_lists):
        if not values:
            raise ConfigError(f"sweep grid for {key!r} is empty")

    entries = []
    records = []
    for index, combo in enumerate(itertools.product(*value_lists)):
        point = cfg
        overrides = {}
        for key, value in zip(keys, combo):
            point = apply_override(point, key, value)
            overrides[key] = value
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
        lines.append(",".join(_cell(v) for v in row.as_tuple()))
    return "\n".join(lines) + "\n"


def format_record_jsonl(record: RunRecord) -> str:
    out = []
    for row in record.rows:
        obj = dict(zip(RECORD_COLUMNS, row.as_tuple()))
        out.append(json.dumps(obj))
    return "\n".join(out) + ("\n" if out else "")


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


def format_profile_csv(weights) -> str:
    lines = ["age,weight"]
    for age, w in enumerate(weights):
        lines.append(f"{age},{_cell(float(w))}")
    return "\n".join(lines) + "\n"


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path!r}: {exc}") from exc
