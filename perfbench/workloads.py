"""The benchmark's three workloads and the bookkeeping of their outputs.

A workload has ``setup(seed)``, which does everything a user pays before the
first optimizer step and returns the state the rounds need, and
``round(state, out)``, which does a fixed amount of work, hands every byte
string the program emits to ``out`` and returns the optimizer steps it
completed. The same seed gives the same inputs and, at a fixed commit, the
same bytes.

Why these three: each one loads a different layer of emx, so an optimisation
shows on the workload that uses its mechanism and should leave the others
unchanged.

- ``toy_sweep``: dim-2 sweeps, bound by per-call Python overhead (harness
  loop, schedules, the optimizer's call wrapper, record formatting).
- ``mlp_train``: the tiny MLP, where batch synthesis, forward/backward,
  clipping and the optimizer step share the time.
- ``wide_state``: direct ``step`` calls at dims 1e5 and 1e6 with checkpoint
  round trips, bound by memory traffic and allocation.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager

import numpy as np

import emx
from emx import checkpoint, config, harness, optimizers

GOLDEN_SEED = 0


class Clock:
    """``perf_counter_ns`` that stops while outputs are being checked."""

    def __init__(self):
        self._paused_ns = 0

    def now(self) -> int:
        return time.perf_counter_ns() - self._paused_ns

    @contextmanager
    def paused(self):
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._paused_ns += time.perf_counter_ns() - start


class Output:
    """What one round emitted: digests of its bytes, its bit-exactness checks
    and the time of each of its units.

    Hashing and checking run with the clock paused, so they count in no
    metric. Call neither while a traced emx call is open. A unit is a named
    slice of the round (one sweep, one run, one optimizer's steps) that is
    repeated identically in every round.
    """

    def __init__(self, clock: Clock):
        self.clock = clock
        self.artifacts: dict[str, dict] = {}
        self.checks: dict[str, bool] = {}
        self.unit_ns: dict[str, int] = {}
        self.steps = 0

    @contextmanager
    def unit(self, name: str):
        start = self.clock.now()
        try:
            yield
        finally:
            self.unit_ns[name] = self.clock.now() - start

    def emit(self, name: str, data, status: str = "ok") -> None:
        with self.clock.paused():
            if isinstance(data, str):
                data = data.encode("utf-8")
            self.artifacts[name] = {"sha256": hashlib.sha256(data).hexdigest(), "status": status}

    def verify(self, name: str, check) -> None:
        with self.clock.paused():
            self.checks[name] = bool(check())


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *key])))


def _status(record) -> str:
    return f"diverged@{record.diverged_step}" if record.diverged else "completed"


def same_state(a, b, theta_a, theta_b) -> bool:
    """Bit-exact equality of two optimizer states and their parameters."""

    def bits(vec):
        return np.ascontiguousarray(vec, dtype=np.float64).tobytes()

    slots_a, slots_b = a.state_slots(), b.state_slots()
    return (
        a.variant == b.variant
        and a.t == b.t
        and a.hyper() == b.hyper()
        and slots_a.keys() == slots_b.keys()
        and all(bits(slots_a[k]) == bits(slots_b[k]) for k in slots_a)
        and bits(theta_a) == bits(theta_b)
    )


# --- toy_sweep ---------------------------------------------------------------

TOY_STEPS = 300
# the learning-rate grid of the Rosenbrock ordering criterion
TOY_LRS = [0.0003, 0.001, 0.003, 0.01, 0.03]
TOY_START = {"rosenbrock": (-3.0, 5.0), "valley": (0.3, 1.5)}
TOY_OPTIMIZERS = {
    "adamw": "",
    "ademamix": "optimizer.beta3 = 0.9999\noptimizer.alpha = 9.0\n"
    f"optimizer.t_alpha = {TOY_STEPS}\noptimizer.t_beta3 = {TOY_STEPS}\n",
    "lion": "",
    "admeta_s": "",
    "aggmo": "",
    "ad3emamix": "optimizer.beta3 = 0.999\noptimizer.beta4 = 0.9999\noptimizer.alpha = 4.0\n"
    f"optimizer.t_alpha = {TOY_STEPS}\noptimizer.t_beta3 = {TOY_STEPS}\n",
}


class ToySweep:
    """One lr sweep per optimizer kind on Rosenbrock and on the sharp valley.

    Every step is recorded and formatted as CSV. The seed moves the start
    points by up to 0.25 per coordinate.
    """

    name = "toy_sweep"

    def setup(self, seed: int):
        rng = _rng(seed, 0)
        texts = []
        for testbed, start in TOY_START.items():
            x0 = [repr(float(c + s)) for c, s in zip(start, rng.uniform(-0.25, 0.25, 2))]
            for kind, extra in TOY_OPTIMIZERS.items():
                text = (
                    f"testbed.kind = {testbed}\ntestbed.x0 = {', '.join(x0)}\n"
                    f"optimizer.kind = {kind}\n{extra}"
                    f"lr.kind = lr_warmup_cosine\nlr.eta_max = {TOY_LRS[0]}\n"
                    f"lr.warmup = {TOY_STEPS // 10}\nlr.total = {TOY_STEPS}\n"
                    f"run.steps = {TOY_STEPS}\nrun.seed = {seed}\nrun.cadence = 1\n"
                )
                texts.append((f"{testbed}.{kind}", text))
        # what run_sweep does before its first step
        first = config.parse_config(texts[0][1])
        harness.Experiment(harness.apply_override(first, "lr.eta_max", TOY_LRS[0]))
        return texts

    def round(self, texts, out: Output) -> int:
        steps = 0
        for name, text in texts:
            with out.unit(name):
                result = harness.run_sweep(config.parse_config(text), {"lr.eta_max": TOY_LRS})
                for entry, record in zip(result.entries, result.records):
                    csv = harness.format_record_csv(record)
                    out.emit(f"{name}.lr{entry.index}", csv, _status(record))
                    steps += record.final_step
                out.emit(f"{name}.summary", harness.format_sweep_csv(result))
        return steps


# --- mlp_train ---------------------------------------------------------------

MLP_STEPS = 240
MLP_HALF = MLP_STEPS // 2


def _mlp_text(seed: int, kind: str, extra: str = "") -> str:
    warmups = (
        f"optimizer.beta3 = 0.999\noptimizer.alpha = 5.0\n"
        f"optimizer.t_alpha = {MLP_STEPS}\noptimizer.t_beta3 = {MLP_STEPS}\n"
        if kind == "ademamix"
        else ""
    )
    return (
        "testbed.kind = mlp\ntestbed.input_dim = 16\ntestbed.hidden = 64, 64\n"
        f"testbed.batch_size = 32\noptimizer.kind = {kind}\n{warmups}"
        "lr.kind = lr_warmup_cosine\nlr.eta_max = 0.003\nlr.eta_min = 1e-05\n"
        f"lr.warmup = {MLP_STEPS // 10}\nlr.total = {MLP_STEPS}\n"
        f"run.steps = {MLP_STEPS}\nrun.seed = {seed}\nrun.cadence = 10\nrun.clip = 0.5\n{extra}"
    )


class MlpTrain:
    """TinyMlp 16-64-64-1 (dim 5313), batch 32, clipping, warmup-cosine lr.

    Per round: an AdamW and an AdEMAMix run, a forward (adamw -> ademamix)
    and a backward switch at the midpoint, the AdEMAMix run split at its
    midpoint and resumed from checkpoint bytes, and the forgetting protocol
    with the held-out batch injected at the midpoint. The seed is the data
    seed of every run.
    """

    name = "mlp_train"

    def setup(self, seed: int):
        texts = {
            "adamw": _mlp_text(seed, "adamw"),
            "ademamix": _mlp_text(seed, "ademamix"),
            "switch_forward": _mlp_text(
                seed,
                "adamw",
                f"switch.to = ademamix\nswitch.at = {MLP_HALF}\nswitch.alpha = 5.0\n"
                f"switch.beta3 = 0.999\nswitch.t_alpha = {MLP_HALF}\nswitch.t_beta3 = {MLP_HALF}\n",
            ),
            "switch_backward": _mlp_text(
                seed, "ademamix", f"switch.to = adamw\nswitch.at = {MLP_HALF}\n"
            ),
            "forget": _mlp_text(seed, "ademamix", f"forget.t_b = {MLP_HALF}\n"),
        }
        harness.Experiment(config.parse_config(texts["adamw"]))
        return texts

    def round(self, texts, out: Output) -> int:
        steps = 0
        for name in ("adamw", "switch_forward", "switch_backward"):
            with out.unit(name):
                record = harness.run_experiment(config.parse_config(texts[name]))
                out.emit(name, harness.format_record_csv(record), _status(record))
                steps += record.final_step

        with out.unit("ademamix"):
            full = harness.Experiment(config.parse_config(texts["ademamix"]))
            record = full.run()
            full_csv = harness.format_record_csv(record)
            out.emit("ademamix", full_csv, _status(record))
            steps += record.final_step

        with out.unit("split"):
            cfg = config.parse_config(texts["ademamix"])
            first = harness.Experiment(cfg)
            head = first.run(until=MLP_HALF)
            blob = first.checkpoint()
            out.emit("split.checkpoint", blob)
            second = harness.Experiment(cfg, resume_from=checkpoint.load_state(blob))
            tail = second.run()
            joined_csv = harness.format_record_csv(harness.RunRecord(rows=head.rows + tail.rows))
            out.emit("split.resumed", joined_csv, _status(tail))
            out.verify("split.csv_matches_full_run", lambda: joined_csv == full_csv)
            out.verify(
                "split.state_matches_full_run",
                lambda: same_state(full.opt, second.opt, full.theta, second.theta),
            )
            steps += tail.final_step

        with out.unit("forget"):
            forget = harness.run_forgetting_protocol(config.parse_config(texts["forget"]))
            for name, record in (("control", forget.control), ("injected", forget.injected)):
                out.emit(f"forget.{name}", harness.format_record_csv(record), _status(record))
                steps += record.final_step
            out.emit("forget.control_heldout", harness.format_series_csv(forget.control_heldout))
            out.emit("forget.injected_heldout", harness.format_series_csv(forget.injected_heldout))
            out.emit("forget.normalized", harness.format_series_csv(forget.normalized))
        return steps


# --- wide_state --------------------------------------------------------------

WIDE_DIMS = (100_000, 1_000_000)
# steps per optimizer at each dim; a checkpoint round trip at the midpoint
WIDE_STEPS = {100_000: 8, 1_000_000: 4}
WIDE_POOL = 4
WIDE_LR = 1e-3
WIDE_ALPHA = 5.0
# the step kinds: the six optimizers, AdEMAMix's lean path and its convex form
WIDE_KINDS = (
    "adamw",
    "ademamix",
    "ademamix_lean",
    "ademamix_convex",
    "lion",
    "admeta_s",
    "aggmo",
    "ad3emamix",
)


def _wide_optimizer(kind: str, dim: int):
    if kind == "adamw":
        return optimizers.AdamW(dim)
    if kind in ("ademamix", "ademamix_convex"):
        return optimizers.AdEMAMix(dim, beta3=0.9999, alpha=WIDE_ALPHA)
    if kind == "ademamix_lean":
        return optimizers.AdEMAMix(dim, beta1=0.0, beta3=0.9999, alpha=WIDE_ALPHA)
    if kind == "lion":
        return optimizers.Lion(dim)
    if kind == "admeta_s":
        return optimizers.AdMetaS(dim)
    if kind == "aggmo":
        return optimizers.AggMo(dim)
    return optimizers.Ad3EMAMix(dim)


def _wide_step(kind: str, opt, theta, grad):
    if kind == "ademamix_convex":
        return opt.step_convex(
            theta, grad, WIDE_LR * (WIDE_ALPHA + 1.0), WIDE_ALPHA / (WIDE_ALPHA + 1.0)
        )
    return opt.step(theta, grad, WIDE_LR)


class WideState:
    """Library path without the harness: ``step`` on every optimizer kind.

    Kinds: the six optimizers, AdEMAMix's ``beta1 = 0`` lean path and
    ``step_convex``, each at dims 1e5 and 1e6 from fresh state. Gradients
    and start points come from a Philox stream of the seed and are made in
    setup. Midway, each state goes through ``save_state`` -> ``load_state``
    -> ``restore_optimizer`` and stepping continues from the restored copy,
    so a broken restore changes the final checkpoint's bytes.
    """

    name = "wide_state"

    def setup(self, seed: int):
        pools = {}
        for dim in WIDE_DIMS:
            rng = _rng(seed, dim)
            theta0 = rng.standard_normal(dim)
            pools[dim] = (theta0, [rng.standard_normal(dim) for _ in range(WIDE_POOL)])
        optimizers.AdamW(WIDE_DIMS[0])
        return pools

    def round(self, pools, out: Output) -> int:
        steps = 0
        for dim in WIDE_DIMS:
            theta0, grads = pools[dim]
            n = WIDE_STEPS[dim]
            for kind in WIDE_KINDS:
                with out.unit(f"{kind}.{dim}"):
                    opt = _wide_optimizer(kind, dim)
                    theta = theta0
                    for i in range(n):
                        theta = _wide_step(kind, opt, theta, grads[i % WIDE_POOL])
                        steps += 1
                        if i + 1 == n // 2:
                            blob = emx.save_state(opt, extra_slots={"theta": theta})
                            ck = emx.load_state(blob)
                            restored = emx.restore_optimizer(ck)
                            restored_theta = ck.slots["theta"].copy()
                            out.verify(
                                f"{kind}.{dim}.round_trip",
                                lambda: same_state(opt, restored, theta, restored_theta),
                            )
                            opt, theta = restored, restored_theta
                    blob = emx.save_state(opt, extra_slots={"theta": theta})
                    out.emit(f"{kind}.{dim}.final", blob)
        return steps


WORKLOADS = {w.name: w for w in (ToySweep(), MlpTrain(), WideState())}
