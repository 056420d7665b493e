"""Per-layer spans, recorded from outside emx by wrapping its public calls.

``Tracer.install()`` replaces chosen functions and methods of the emx modules
with wrappers that time each call on the benchmark clock and subtract the
time of nested traced calls, which gives every span a self time. Functions
are replaced in every emx namespace that binds them (``from .numerics import
l2_norm`` makes a second binding in ``emx.harness``), methods on their class.
``uninstall()`` puts the originals back. Spans live in memory as running
totals; nothing is written while the workload runs.

Span names are ``<module>.<operation>``; optimizer steps add
``.<kind>.<dim>``. A boundary that no longer exists in emx is listed in
``missing`` and its metrics read 0.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict

import numpy as np

from emx import checkpoint, config, harness, numerics, optimizers, schedules, testbeds
from workloads import WIDE_DIMS as STEP_DIMS
from workloads import WIDE_KINDS as STEP_KINDS


class _Stat:
    __slots__ = ("calls", "total_ns", "child_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.child_ns = 0


def _step_kind(opt) -> str:
    if opt.variant == "ademamix" and getattr(opt, "m1", True) is None:
        return "ademamix_lean"
    return opt.variant


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counts: dict[str, int] = defaultdict(int)
        self.slot_counts: dict[str, int] = {}
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # --- wrapping --------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        """``name`` is a string or a function of the call's arguments."""
        stack, stats, now = self._stack, self.stats, self.clock.now
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = fixed or name(args)
            stack.append(0)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = now() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat = stats[span]
                stat.calls += 1
                stat.total_ns += elapsed
                stat.child_ns += child
            if after is not None:
                after(args, result)
            return result

        return traced

    def _function(self, module, attr, name, after=None):
        original = getattr(module, attr, None)
        if original is None:
            self.missing.add(f"{module.__name__}.{attr}")
            return
        traced = self._wrap(original, name, after)
        for mod_name, mod in list(sys.modules.items()):
            in_emx = mod_name == "emx" or mod_name.startswith("emx.")
            if in_emx and vars(mod).get(attr) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, traced)

    def _method(self, cls, attr, name, after=None, wrap=None):
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.add(f"{cls.__module__}.{cls.__qualname__}.{attr}")
            return
        traced = self._wrap(original, name, after)
        if wrap is not None:
            traced = wrap(traced)
        self._undo.append((cls, attr, original))
        setattr(cls, attr, traced)

    def _step_name(self, suffix=""):
        slot_counts = self.slot_counts

        def name(args):
            opt = args[0]
            kind = _step_kind(opt) + suffix
            if kind not in slot_counts:
                slot_counts[kind] = len(opt.state_slots())
            return f"optimizers.step.{kind}.{opt.dim}"

        return name

    def _count(self, key, measure):
        counts = self.counts

        def after(args, result):
            counts[key] += measure(args, result)

        return after

    def install(self) -> None:
        fn, meth = self._function, self._method

        fn(numerics, "spawn_rng", "numerics.spawn_rng")
        fn(numerics, "l2_norm", "numerics.l2_norm")
        fn(
            numerics,
            "global_norm_clip",
            "numerics.clip",
            self._count("numerics.clip_fired", lambda a, r: r is not a[0]),
        )

        for cls in vars(schedules).values():
            if isinstance(cls, type) and cls.__module__ == schedules.__name__ and "at" in vars(cls):
                meth(cls, "at", "schedules.at")

        for cls in vars(optimizers).values():
            if isinstance(cls, type) and cls.__module__ == optimizers.__name__:
                if "step" in vars(cls):
                    meth(cls, "step", self._step_name())
                if "step_convex" in vars(cls):
                    meth(cls, "step_convex", self._step_name("_convex"))
        fn(optimizers, "switch_to_ademamix", "optimizers.switch")
        fn(optimizers, "switch_to_adamw", "optimizers.switch")

        fn(
            checkpoint,
            "save_state",
            "checkpoint.save",
            self._count("checkpoint.save_bytes", lambda a, r: len(r)),
        )
        fn(
            checkpoint,
            "load_state",
            "checkpoint.load",
            self._count("checkpoint.load_bytes", lambda a, r: len(a[0])),
        )
        fn(checkpoint, "restore_optimizer", "checkpoint.restore")

        meth(testbeds.SyntheticDataset, "__init__", "testbeds.dataset_init")
        for attr in ("batch", "heldout_batch", "eval_batch"):
            meth(testbeds.SyntheticDataset, attr, "testbeds.batch")
        meth(testbeds.TinyMlp, "init_params", "testbeds.init_params")
        for cls in (testbeds.TinyMlp, testbeds.AnalyticTestbed):
            meth(cls, "loss_and_grad", "testbeds.loss_and_grad")
            meth(cls, "loss", "testbeds.loss")

        fn(config, "parse_config", "config.parse")
        fn(config, "format_config", "config.format")

        counts = self.counts

        def count_steps(run):
            @functools.wraps(run)
            def counted(exp, *args, **kwargs):
                before = exp.opt.t
                try:
                    return run(exp, *args, **kwargs)
                finally:
                    counts["harness.steps"] += exp.opt.t - before

            return counted

        meth(harness.Experiment, "__init__", "harness.experiment_init")
        meth(harness.Experiment, "run", "harness.run", wrap=count_steps)
        meth(harness.Experiment, "checkpoint", "harness.checkpoint")
        fn(harness, "run_experiment", "harness.run_experiment")
        fn(harness, "run_sweep", "harness.run_sweep")
        fn(harness, "run_forgetting_protocol", "harness.forgetting")
        fn(harness, "apply_override", "harness.apply_override")

        def count_rows(args, text):
            counts["harness.rows"] += text.count("\n") - 1
            counts["harness.output_bytes"] += len(text.encode("utf-8"))

        for attr in ("format_record_csv", "format_sweep_csv", "format_series_csv"):
            fn(harness, attr, "harness.format", count_rows)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # --- results ---------------------------------------------------------

    def self_ns(self) -> int:
        return sum(s.total_ns - s.child_ns for s in self.stats.values())


def copy_gbps(dim: int, clock) -> float:
    """Measured ``np.copyto`` bandwidth (read + write) at ``dim`` float64s."""
    src = np.ones(dim)
    dst = np.empty(dim)
    reps = max(1, 2_000_000 // dim)
    samples = []
    for _ in range(9):
        start = clock.now()
        for _ in range(reps):
            np.copyto(dst, src)
        samples.append((clock.now() - start) / reps)
    return 2 * 8 * dim / float(np.median(samples))


def _mean_us(stat: _Stat | None) -> float:
    return stat.total_ns / stat.calls / 1e3 if stat and stat.calls else 0.0


def layer_metrics(tracer: Tracer, rounds: int, traced_ns: int, overhead_ratio: float,
                  copy_rate: float) -> dict:
    """Per-layer metrics; counts are per round, times per call unless named."""
    st = tracer.stats
    cnt = tracer.counts

    def calls(name):
        return st[name].calls / rounds if name in st else 0.0

    def merged(prefix):
        out = _Stat()
        for name, stat in st.items():
            if name.startswith(prefix):
                out.calls += stat.calls
                out.total_ns += stat.total_ns
                out.child_ns += stat.child_ns
        return out

    m = {}
    for kind in STEP_KINDS:
        m[f"optimizers.step_us.{kind}"] = _mean_us(merged(f"optimizers.step.{kind}."))
        for dim in STEP_DIMS:
            span = st.get(f"optimizers.step.{kind}.{dim}")
            m[f"optimizers.step_us.{kind}.{dim}"] = _mean_us(span)
    steps = merged("optimizers.step.")
    m["optimizers.step_calls"] = steps.calls / rounds
    for kind in STEP_KINDS:
        dims = [int(n.rsplit(".", 1)[1]) for n in st if n.startswith(f"optimizers.step.{kind}.")]
        if not dims:
            m[f"optimizers.bytes_per_step.{kind}"] = 0.0
            m[f"optimizers.gbps.{kind}"] = 0.0
            continue
        dim = max(dims)
        # computed: read theta, grad and each slot; write theta and each slot
        moved = (3 + 2 * tracer.slot_counts[kind]) * dim * 8
        m[f"optimizers.bytes_per_step.{kind}"] = float(moved)
        m[f"optimizers.gbps.{kind}"] = moved / (_mean_us(st[f"optimizers.step.{kind}.{dim}"]) * 1e3)
    m["optimizers.copy_gbps"] = copy_rate

    for span in (
        "numerics.spawn_rng",
        "numerics.clip",
        "numerics.l2_norm",
        "testbeds.batch",
        "testbeds.loss_and_grad",
        "testbeds.loss",
        "schedules.at",
        "harness.apply_override",
        "config.parse",
    ):
        m[f"{span}_us"] = _mean_us(st.get(span))
        m[f"{span}_calls"] = calls(span)
    clip_calls = st["numerics.clip"].calls if "numerics.clip" in st else 0
    m["numerics.clip_fired_ratio"] = cnt["numerics.clip_fired"] / clip_calls if clip_calls else 0.0
    # batch synthesis without its Philox stream set-up
    batch = st.get("testbeds.batch")
    m["testbeds.batch_self_us"] = (
        (batch.total_ns - batch.child_ns) / batch.calls / 1e3 if batch and batch.calls else 0.0
    )

    run = st.get("harness.run")
    harness_steps = cnt["harness.steps"]
    m["harness.self_us_per_step"] = (
        (run.total_ns - run.child_ns) / harness_steps / 1e3 if run and harness_steps else 0.0
    )
    m["harness.steps"] = harness_steps / rounds
    fmt = st.get("harness.format")
    rows = cnt["harness.rows"]
    m["harness.format_us_per_row"] = fmt.total_ns / rows / 1e3 if fmt and rows else 0.0
    m["harness.rows"] = rows / rounds
    m["harness.output_bytes"] = cnt["harness.output_bytes"] / rounds

    for span in ("checkpoint.save", "checkpoint.load", "checkpoint.restore"):
        m[f"{span}_us"] = _mean_us(st.get(span))
    m["checkpoint.bytes"] = cnt["checkpoint.save_bytes"] / rounds
    io_ns = sum(st[n].total_ns for n in ("checkpoint.save", "checkpoint.load") if n in st)
    io_bytes = cnt["checkpoint.save_bytes"] + cnt["checkpoint.load_bytes"]
    m["checkpoint.mb_per_s"] = io_bytes / io_ns * 1e3 if io_ns else 0.0

    m["trace.overhead_ratio"] = overhead_ratio
    m["trace.accounted_ratio"] = tracer.self_ns() / traced_ns
    return m
