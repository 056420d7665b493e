import copy
import csv
import io
import math
import pickle
import re

import numpy as np
import pytest

from emx.checkpoint import load_state
from emx.config import FORGET_SPAN, ConfigError, _parse_value, format_config, parse_config
from emx.harness import (
    RECORD_COLUMNS,
    Experiment,
    ForgettingResult,
    RunRecord,
    RunRow,
    _build_lr_schedule,
    apply_override,
    format_record_csv,
    format_record_jsonl,
    format_series_csv,
    format_sweep_csv,
    run_experiment,
    run_forgetting_protocol,
    run_sweep,
)
from emx.schedules import ConstantSchedule, WarmupConstantLinearDecay, WarmupCosineDecay
from emx.testbeds import SyntheticDataset, TinyMlp


def toy_config(optimizer="adamw", steps=200, lr=1e-3, seed=0, extra=""):
    return parse_config(
        f"""
testbed.kind = rosenbrock
optimizer.kind = {optimizer}
optimizer.beta1 = 0.9
optimizer.beta2 = 0.999
lr.kind = constant
lr.value = {lr}
run.steps = {steps}
run.seed = {seed}
{extra}
"""
    )


def mlp_config(optimizer="adamw", steps=300, lr=0.01, seed=0, extra=""):
    return parse_config(
        f"""
testbed.kind = mlp
testbed.input_dim = 8
testbed.hidden = 16, 16
testbed.batch_size = 16
optimizer.kind = {optimizer}
lr.kind = constant
lr.value = {lr}
run.steps = {steps}
run.seed = {seed}
run.cadence = 1
{extra}
"""
    )


class TestRunExperiment:
    def test_zero_steps_gives_empty_completed_record(self):
        record = run_experiment(toy_config(steps=0))
        assert record.rows == []
        assert record.status == "completed"

    def test_identical_configs_give_identical_bytes(self):
        a = format_record_csv(run_experiment(toy_config(seed=4)))
        b = format_record_csv(run_experiment(toy_config(seed=4)))
        assert a == b

    def test_rows_follow_cadence(self):
        record = run_experiment(toy_config(steps=100, extra="run.cadence = 7"))
        assert [row.step for row in record.rows] == list(range(7, 101, 7))

    def test_distance_recorded_for_toys(self):
        record = run_experiment(toy_config(steps=10))
        assert all(row.distance_to_optimum is not None for row in record.rows)
        assert record.final_distance is not None

    def test_divergence_sets_status_and_truncates_rows(self):
        # a decay factor far beyond 2/eta amplifies theta exponentially until
        # the objective overflows; adaptive updates alone stay bounded
        record = run_experiment(
            toy_config(steps=500, lr=1e6, extra="optimizer.weight_decay = 1.0")
        )
        assert record.status == "diverged"
        assert record.diverged_step is not None
        assert all(row.step < record.diverged_step for row in record.rows)

    def test_status_follows_the_divergence_step(self):
        assert RunRecord().status == "completed" and not RunRecord().diverged
        assert RunRecord(diverged_step=3).status == "diverged" and RunRecord(diverged_step=3).diverged
        with pytest.raises(TypeError):
            RunRecord(status="diverged")
        with pytest.raises(AttributeError):
            RunRecord().status = "diverged"

    def test_gradient_clipping_caps_update(self):
        rec_clipped = run_experiment(toy_config(steps=5, extra="run.clip = 0.5"))
        rec_raw = run_experiment(toy_config(steps=5))
        assert rec_clipped.rows[0].update_norm < rec_raw.rows[0].update_norm

    def test_mlp_loss_decreases(self):
        record = run_experiment(mlp_config(steps=400))
        early = np.mean([row.loss for row in record.rows[:20]])
        late = np.mean([row.loss for row in record.rows[-20:]])
        assert late < early


class TestEveryOptimizerKind:
    # the momentum-accumulating baselines have no adaptive normalization and
    # need tiny rates against this landscape's O(1e3) gradients
    @pytest.mark.parametrize(
        "kind,extra,toy_lr",
        [
            ("adamw", "", 1e-3),
            ("ademamix", "optimizer.beta3 = 0.999\noptimizer.alpha = 5.0", 1e-3),
            ("lion", "optimizer.alpha = 0.9\noptimizer.beta = 0.99", 1e-3),
            ("admeta_s", "optimizer.beta1 = 0.9\noptimizer.beta2 = 0.3", 1e-6),
            ("aggmo", "optimizer.betas = 0.0, 0.9, 0.99", 1e-6),
            (
                "ad3emamix",
                "optimizer.beta3 = 0.999\noptimizer.beta4 = 0.995\noptimizer.alpha = 4.0",
                1e-3,
            ),
        ],
    )
    def test_runs_on_both_testbeds(self, kind, extra, toy_lr):
        for testbed, lr in (("rosenbrock", toy_lr), ("mlp", 1e-3)):
            cfg = parse_config(
                f"testbed.kind = {testbed}\noptimizer.kind = {kind}\n{extra}\n"
                f"lr.kind = constant\nlr.value = {lr}\nrun.steps = 40\nrun.seed = 1\n"
            )
            assert run_experiment(cfg).status == "completed"


class TestSwitching:
    def test_switch_at_end_never_triggers(self):
        base = toy_config(steps=150)
        switched = toy_config(
            steps=150, extra="switch.to = ademamix\nswitch.at = 150\nswitch.alpha = 5.0"
        )
        assert format_record_csv(run_experiment(base)) == format_record_csv(
            run_experiment(switched)
        )

    def test_switch_at_zero_equals_from_scratch(self):
        switched = toy_config(
            steps=150,
            extra="switch.to = ademamix\nswitch.at = 0\nswitch.alpha = 5.0\nswitch.beta3 = 0.999",
        )
        fresh = toy_config(
            optimizer="ademamix",
            steps=150,
            extra="optimizer.beta3 = 0.999\noptimizer.alpha = 5.0",
        )
        assert format_record_csv(run_experiment(switched)) == format_record_csv(
            run_experiment(fresh)
        )

    def test_scheduler_clock_resets_at_switch(self):
        cfg = toy_config(
            steps=100,
            extra=(
                "switch.to = ademamix\nswitch.at = 40\nswitch.alpha = 6.0\n"
                "switch.beta3 = 0.999\nswitch.t_alpha = 60\nswitch.t_beta3 = 60\n"
                "run.constant_after = true"
            ),
        )
        record = run_experiment(cfg)
        by_step = {row.step: row for row in record.rows}
        assert by_step[40].alpha is None  # still AdamW
        assert by_step[41].alpha == pytest.approx(6.0 / 60.0)  # warmup restarted
        assert by_step[100].alpha == pytest.approx(6.0)


class TestCheckpointResume:
    def test_split_run_is_bitwise_identical(self):
        cfg = toy_config(optimizer="ademamix", steps=120, extra="optimizer.alpha = 5.0")
        full = Experiment(cfg)
        full_record = full.run()

        part = Experiment(cfg)
        part.run(until=60)
        blob = part.checkpoint()
        resumed = Experiment(cfg, resume_from=load_state(blob))
        tail_record = resumed.run()

        full_tail = [row for row in full_record.rows if row.step > 60]
        assert format_record_csv_rows(full_tail) == format_record_csv_rows(tail_record.rows)
        assert full.theta.tobytes() == resumed.theta.tobytes()

    def test_resume_across_switch_boundary(self):
        extra = "switch.to = ademamix\nswitch.at = 50\nswitch.alpha = 3.0\nswitch.beta3 = 0.999"
        cfg = toy_config(steps=100, extra=extra)
        full = Experiment(cfg)
        full_record = full.run()
        for split in (30, 50, 70):
            part = Experiment(cfg)
            part.run(until=split)
            resumed = Experiment(cfg, resume_from=load_state(part.checkpoint()))
            resumed.run()
            assert resumed.theta.tobytes() == full.theta.tobytes()
        assert full_record.status == "completed"


def format_record_csv_rows(rows):
    from emx.harness import RunRecord

    return format_record_csv(RunRecord(rows=list(rows)))


def forgetting_by_fork(cfg) -> ForgettingResult:
    """The forgetting protocol as two one-row experiments: the control run
    steps to ``t_b - 1``, and the injected run is a deep copy of it from
    there that takes the held-out batch at ``t_b``."""
    t_b = cfg.forget.t_b
    control_exp = Experiment(cfg, track_heldout=True)
    while control_exp._live and control_exp.opt.t < t_b - 1:
        control_exp._step()
    injected_exp = copy.deepcopy(control_exp)
    if injected_exp._live:
        injected_exp._step(injected_exp._heldout_batch)
    control, injected = control_exp.run(), injected_exp.run()
    normalized = []
    series = dict(injected_exp.heldout_series)
    if not injected.diverged:
        anchor0, anchor_end = series[t_b - 1], series[t_b + FORGET_SPAN]
        if (scale := anchor0 - anchor_end) != 0.0:
            normalized = [(s, (value - anchor0) / scale)
                          for s, value in injected_exp.heldout_series if s >= t_b - 1]
    return ForgettingResult(control, injected, control_exp.heldout_series,
                            injected_exp.heldout_series, normalized)


def forgetting_outputs(result: ForgettingResult) -> list:
    """The five files of ``emx forget`` and each record's end."""
    return [
        format_record_csv(result.control),
        format_record_csv(result.injected),
        format_series_csv(result.control_heldout),
        format_series_csv(result.injected_heldout),
        format_series_csv(result.normalized),
        [(r.diverged_step, r.final_step, repr(r.final_loss), r.final_distance)
         for r in (result.control, result.injected)],
    ]


# a switch to AdEMAMix with alpha = 1e300 diverges two steps after switch.at
DIVERGE_AT_12 = "switch.to = ademamix\nswitch.at = 10\nswitch.alpha = 1e300\n"
DIVERGE_AT_32 = "switch.to = ademamix\nswitch.at = 30\nswitch.alpha = 1e300\n"


class TestForgetting:
    CFG = "forget.t_b = 100"

    @pytest.mark.parametrize("optimizer, t_b, extra, diverged_step", [
        ("ademamix", 1, "run.clip = 0.5\n", None),
        ("ademamix", 2, "run.clip = 0.5\n", None),
        ("ademamix", 20, "run.clip = 0.5\n", None),
        ("ademamix", 80 - FORGET_SPAN, "run.clip = 0.5\n", None),
        ("adamw", 20, "switch.to = ademamix\nswitch.at = 19\nswitch.beta3 = 0.999\n", None),
        ("adamw", 20, "switch.to = ademamix\nswitch.at = 20\nswitch.beta3 = 0.999\n", None),
        ("adamw", 1, "switch.to = ademamix\nswitch.at = 0\nswitch.beta3 = 0.999\n", None),
        ("ademamix", 20, "switch.to = adamw\nswitch.at = 19\n", None),
        ("adamw", 20, DIVERGE_AT_12, 12),
        ("adamw", 20, DIVERGE_AT_32, 32),
    ], ids=["t_b1", "t_b2", "t_b20", "t_b_last", "switch_before_t_b", "switch_at_t_b",
            "switch_at_0", "switch_back_before_t_b", "diverged_before_t_b",
            "diverged_after_t_b"])
    def test_one_split_experiment_has_the_bytes_of_the_fork(
            self, optimizer, t_b, extra, diverged_step):
        cfg = mlp_config(optimizer, steps=80, extra=f"{extra}forget.t_b = {t_b}")
        result = run_forgetting_protocol(cfg)
        assert forgetting_outputs(result) == forgetting_outputs(forgetting_by_fork(cfg))
        assert result.control.diverged_step == result.injected.diverged_step == diverged_step
        assert result.control.rows is not result.injected.rows
        assert result.control_heldout is not result.injected_heldout

    def test_records_identical_before_injection(self):
        result = run_forgetting_protocol(mlp_config(steps=200, extra=self.CFG))
        control = {row.step: row for row in result.control.rows}
        injected = {row.step: row for row in result.injected.rows}
        for step in range(1, 100):
            assert control[step] == injected[step]

    def test_injection_drops_heldout_loss_immediately(self):
        result = run_forgetting_protocol(mlp_config(steps=200, extra=self.CFG))
        control = dict(result.control_heldout)
        injected = dict(result.injected_heldout)
        assert injected[101] < control[101]

    def test_normalized_anchors_exact(self):
        result = run_forgetting_protocol(mlp_config(steps=200, extra=self.CFG))
        normalized = dict(result.normalized)
        assert normalized[99] == 0.0
        assert normalized[150] == -1.0

    def test_requires_directive(self):
        with pytest.raises(ConfigError):
            run_forgetting_protocol(mlp_config(steps=200))

    def test_shared_prefix_runs_once(self, monkeypatch):
        calls = {"init": 0, "step": 0}
        init, step = Experiment.__init__, Experiment._step

        def counting_init(self, *args, **kwargs):
            calls["init"] += 1
            init(self, *args, **kwargs)

        def counting_step(self, *args, **kwargs):
            calls["step"] += 1
            step(self, *args, **kwargs)

        def no_deepcopy(*args, **kwargs):
            raise AssertionError("the protocol copies no experiment")

        monkeypatch.setattr(Experiment, "__init__", counting_init)
        monkeypatch.setattr(Experiment, "_step", counting_step)
        monkeypatch.setattr(copy, "deepcopy", no_deepcopy)
        steps, t_b = 80, 20
        run_forgetting_protocol(mlp_config(steps=steps, extra=f"forget.t_b = {t_b}"))
        # one experiment, whose two rows from t_b on take each step together
        assert calls == {"init": 1, "step": steps}

    def test_a_copy_runs_apart_from_its_original(self):
        cfg = mlp_config(optimizer="ademamix", steps=40, extra="run.clip = 0.5")
        alone = Experiment(cfg, track_heldout=True)
        alone.run()
        exp = Experiment(cfg, track_heldout=True)
        exp.run(until=15)
        fork = copy.deepcopy(exp)
        fork._step(fork._heldout_batch)
        fork.run()
        assert fork.heldout_series[:16] == exp.heldout_series
        assert fork.heldout_series[16:] != alone.heldout_series[16:]
        exp.run()
        assert exp.records == alone.records
        assert exp.heldout_series == alone.heldout_series
        assert exp.checkpoint() == alone.checkpoint()

    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda exp: pickle.loads(pickle.dumps(exp))])
    def test_a_copy_inside_a_batch_block_finishes_with_the_run_bytes(self, copier):
        text = format_config(mlp_config(steps=130)).replace("batch_size = 16", "batch_size = 32")
        cfg = parse_config(text)  # blocks of 4 steps: 121-124 holds 122
        alone = format_record_csv(run_experiment(cfg))
        exp = Experiment(cfg)
        assert exp.dataset.batch_size == 32
        exp.run(until=122)
        twin = copier(exp)
        assert format_record_csv(twin.run()) == alone
        assert format_record_csv(exp.run()) == alone

    def test_heldout_tracked_on_a_testbed_without_a_dataset(self):
        exp = Experiment(toy_config(steps=5), track_heldout=True)
        record = exp.run()
        assert [step for step, _ in exp.heldout_series] == list(range(6))
        assert [row.heldout_loss for row in record.rows] == [loss for _, loss in
                                                              exp.heldout_series[1:]]

    def test_heldout_batch_built_only_when_tracked(self, monkeypatch):
        calls = []
        original = SyntheticDataset.heldout_batch
        monkeypatch.setattr(SyntheticDataset, "heldout_batch",
                            lambda self: calls.append(1) or original(self))
        Experiment(mlp_config(steps=5)).run()
        assert calls == []
        Experiment(mlp_config(steps=5), track_heldout=True).run()
        assert calls == [1]


class TestSweep:
    def test_grid_of_one_matches_run_experiment(self):
        cfg = toy_config(steps=50)
        single = run_experiment(cfg)
        sweep = run_sweep(cfg, {"lr.value": [1e-3]})
        assert len(sweep.entries) == 1
        assert sweep.entries[0].final_loss == single.final_loss

    def test_duplicate_points_identical(self):
        sweep = run_sweep(toy_config(steps=50), {"lr.value": [1e-3, 1e-3]})
        a, b = sweep.entries
        assert a.final_loss == b.final_loss and a.best_loss == b.best_loss
        assert format_record_csv(sweep.records[0]) == format_record_csv(sweep.records[1])

    def test_divergence_is_contained(self):
        cfg = toy_config(steps=100, extra="optimizer.weight_decay = 0.001")
        solo = run_sweep(cfg, {"lr.value": [1e-3]})
        sweep = run_sweep(cfg, {"lr.value": [1e6, 1e-3]})
        assert sweep.entries[0].diverged
        assert not sweep.entries[1].diverged
        assert sweep.entries[1].final_loss == solo.entries[0].final_loss

    def test_summary_sorted_with_stable_ties(self):
        sweep = run_sweep(
            toy_config(steps=50, extra="optimizer.weight_decay = 0.001"),
            {"lr.value": [1e-3, 1e6, 1e-3, 1e-4]},
        )
        summary = sweep.summary()
        finite = [e for e in summary if not e.diverged]
        assert [e.final_loss for e in finite] == sorted(e.final_loss for e in finite)
        tied = [e.index for e in summary if e.overrides["lr.value"] == 1e-3]
        assert tied == sorted(tied)
        assert summary[-1].diverged

    def test_multi_key_grid_order(self):
        sweep = run_sweep(
            toy_config(steps=10),
            {"optimizer.beta1": [0.8, 0.9], "lr.value": [1e-3, 1e-4]},
        )
        combos = [(e.overrides["optimizer.beta1"], e.overrides["lr.value"]) for e in sweep.entries]
        assert combos == [(0.8, 1e-3), (0.8, 1e-4), (0.9, 1e-3), (0.9, 1e-4)]

    def test_an_entry_reads_its_record(self):
        # two groups (one per beta1) of two rows, each with a diverging point
        sweep = run_sweep(toy_config(steps=100, extra="optimizer.weight_decay = 0.001"),
                          {"optimizer.beta1": [0.8, 0.9], "lr.value": [1e6, 1e-3]})
        assert [e.index for e in sweep.entries] == [0, 1, 2, 3]
        assert [e.diverged for e in sweep.entries] == [True, False, True, False]
        for i, entry in enumerate(sweep.entries):
            assert entry.record is sweep.records[i]
            assert entry.final_loss == entry.record.final_loss
            assert entry.best_loss == entry.record.best_loss()
            assert entry.diverged == entry.record.diverged

    def test_bad_override_key(self):
        with pytest.raises(ConfigError):
            run_sweep(toy_config(steps=10), {"nope.key": [1]})

    @pytest.mark.parametrize("grid,match", [({}, "sweep grid is empty"),
                                            ({"lr.value": []}, "grid for 'lr.value' is empty")])
    def test_empty_grid_is_config_error(self, grid, match):
        with pytest.raises(ConfigError, match=match):
            run_sweep(toy_config(steps=10), grid)

    def test_bad_point_fails_before_any_group_runs(self, monkeypatch):
        runs = []
        monkeypatch.setattr(Experiment, "run", lambda self, until=None: runs.append(self))
        cfg = toy_config(optimizer="ademamix", steps=20000)
        with pytest.raises(ConfigError, match="beta1"):
            run_sweep(cfg, {"optimizer.beta1": [0.9, 1.5]})
        assert runs == []

    def test_seed_can_be_swept(self):
        sweep = run_sweep(toy_config(steps=30), {"run.seed": [1, 2, 3]})
        assert len(sweep.entries) == 3

    @pytest.mark.parametrize("keys", [("run.steps", "lr.total"), ("lr.total", "run.steps")])
    def test_a_point_is_checked_as_one_config(self, keys):
        # run.steps = 50 alone would leave lr.total = 100 past the end of the run
        def text(steps):
            return ("testbed.kind = rosenbrock\noptimizer.kind = adamw\n"
                    "lr.kind = lr_warmup_cosine\nlr.eta_max = 0.001\nlr.warmup = 5\n"
                    f"lr.total = {steps}\nrun.steps = {steps}\n")

        sweep = run_sweep(parse_config(text(100)), {key: [50] for key in keys})
        alone = run_experiment(parse_config(text(50)))
        assert sweep.records == [alone]
        assert format_record_csv(sweep.records[0]) == format_record_csv(alone)


class TestRows:
    def test_rows_may_differ_only_in_lr(self):
        cfg = toy_config(steps=10)
        with pytest.raises(ConfigError, match="differ only in lr"):
            Experiment(cfg, rows=[cfg, toy_config(steps=10, seed=1)])
        with pytest.raises(ConfigError, match="at least one row"):
            Experiment(cfg, rows=[])

    def test_checkpoint_needs_one_row(self):
        cfg = toy_config(steps=10)
        exp = Experiment(cfg, rows=[cfg, toy_config(steps=10, lr=1e-2)])
        exp.run()
        with pytest.raises(ValueError, match="one row"):
            exp.checkpoint()

    def test_mlp_rows_are_their_runs(self):
        rows = [mlp_config(steps=20, lr=lr, extra="run.clip = 0.5") for lr in (1e-3, 1e-2, 1e9)]
        exp = Experiment(rows[0], rows=rows)
        exp.run()
        assert [r.diverged for r in exp.records] == [False, False, True]
        for cfg, record in zip(rows, exp.records):
            assert record == run_experiment(cfg)
            assert format_record_csv(record) == format_record_csv(run_experiment(cfg))


class Rigged:
    """A testbed whose ``loss_and_grad`` is ``inner``'s passed through ``edit``."""

    def __init__(self, inner, edit):
        self.inner, self.edit = inner, edit
        self.dim, self.optimum = inner.dim, inner.optimum

    def loss(self, theta, batch=None):
        return self.inner.loss(theta, batch)

    def loss_and_grad(self, theta, batch=None):
        return self.edit(theta, *self.inner.loss_and_grad(theta, batch))


def rigged_run(cfgs, edit):
    """The records of ``cfgs`` stepped as the rows of one experiment on a
    :class:`Rigged` Rosenbrock."""
    exp = Experiment(cfgs[0], rows=cfgs)
    exp.testbed = Rigged(exp.testbed, edit)
    exp.run()
    return exp.records


class TestRowChecks:
    """The pre-step check of the losses and gradient, and the post-step
    check of the new state, drop exactly the rows they should."""

    def test_losses_whose_sum_overflows_drop_no_row(self):
        def huge(theta, losses, grad):
            return [1.2e308] * len(losses), grad

        cfgs = [toy_config(steps=6, lr=lr) for lr in (1e-3, 1e-2)]
        records = rigged_run(cfgs, huge)
        assert not any(r.diverged for r in records)
        assert [row.loss for row in records[1].rows] == [1.2e308] * 6
        for cfg, record in zip(cfgs, records):
            assert record == rigged_run([cfg], huge)[0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_loss_drops_its_row_alone(self, bad):
        x0 = np.array([-3.0, 5.0])

        def far(theta, losses, grad):  # a row more than 0.25 from x0 has a bad loss
            away = np.abs(theta - x0).max(axis=-1) > 0.25
            return [bad if a else loss for a, loss in zip(away.tolist(), losses)], grad

        cfgs = [toy_config(steps=10, lr=lr) for lr in (1e-3, 0.1, 1e-2)]
        records = rigged_run(cfgs, far)
        assert [r.diverged_step for r in records] == [None, 4, None]
        assert [row.step for row in records[1].rows] == [1, 2, 3]
        assert records[1].final_step == 3 and records[1].final_loss == math.inf
        for cfg, record in zip(cfgs, records):
            alone = rigged_run([cfg], far)[0]
            assert record == alone and format_record_csv(record) == format_record_csv(alone)

    def test_every_row_dropped_after_a_recorded_step(self):
        # each square of the gradient overflows in nu: the gradient and the
        # losses pass the pre-step check, the new state does not
        def steep(theta, losses, grad):
            return losses, grad * 1e200

        cfgs = [toy_config(steps=5, lr=lr) for lr in (1e-3, 1e-2)]
        exp = Experiment(cfgs[0], rows=cfgs)
        exp.testbed = Rigged(exp.testbed, steep)
        exp.run()
        assert exp.theta.shape == (0, 2) and exp.opt.t == 1
        for record in exp.records:
            assert (record.diverged_step, record.final_step, record.rows) == (1, 0, [])


class TestEmission:
    def test_empty_record_is_header_only(self):
        record = run_experiment(toy_config(steps=0))
        text = format_record_csv(record)
        assert text.count("\n") == 1
        assert text.startswith("step,loss,distance_to_optimum,eta,alpha,beta3,")

    def test_three_rows_make_four_lines(self):
        record = run_experiment(toy_config(steps=3))
        assert format_record_csv(record).count("\n") == 4

    def test_reemission_is_byte_identical(self):
        record = run_experiment(toy_config(steps=25))
        assert format_record_csv(record).encode() == format_record_csv(record).encode()

    def test_jsonl_one_object_per_row(self):
        import json

        record = run_experiment(toy_config(steps=5))
        lines = format_record_jsonl(record).splitlines()
        assert len(lines) == 5
        obj = json.loads(lines[0])
        assert obj["step"] == 1 and obj["heldout_loss"] is None

    def test_jsonl_writes_a_non_finite_float_as_its_csv_cell(self):
        import json

        row = RunRow(3, math.nan, math.inf, 0.1, None, None, -math.inf, 0.5)
        line = format_record_jsonl(RunRecord(rows=[row]))

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        assert json.loads(line, parse_constant=refuse) == {
            "step": 3, "loss": "nan", "distance_to_optimum": "inf", "eta": 0.1, "alpha": None,
            "beta3": None, "update_norm": "-inf", "heldout_loss": 0.5,
        }
        assert format_record_csv(RunRecord(rows=[row])).splitlines()[1] == "3,nan,inf,0.1,,,-inf,0.5"

    def test_floats_round_trip_through_csv(self):
        record = run_experiment(toy_config(steps=5))
        text = format_record_csv(record)
        line = text.splitlines()[1].split(",")
        assert float(line[1]) == record.rows[0].loss

    def test_sweep_csv_has_header_and_rows(self):
        sweep = run_sweep(toy_config(steps=10), {"lr.value": [1e-3, 1e-4]})
        lines = format_sweep_csv(sweep).splitlines()
        assert lines[0] == "index,lr.value,final_loss,best_loss,diverged"
        assert len(lines) == 3

    def test_numpy_grid_value_is_written_as_its_digits(self):
        numpy_grid = run_sweep(toy_config(steps=10), {"lr.value": [np.float64(0.001), 0.002]})
        python_grid = run_sweep(toy_config(steps=10), {"lr.value": [0.001, 0.002]})
        text = format_sweep_csv(numpy_grid)
        assert "np." not in text and text == format_sweep_csv(python_grid)

    @pytest.mark.parametrize("cfg,key,values", [
        (mlp_config(steps=3), "testbed.hidden", [[8, 8], [16, 4, 4]]),
        (toy_config(steps=3), "testbed.x0", [(-3.0, 5.0), [0.5, 1]]),
    ], ids=["hidden", "x0"])
    def test_a_list_cell_is_one_quoted_field_of_config_text(self, cfg, key, values):
        rows = list(csv.reader(io.StringIO(format_sweep_csv(run_sweep(cfg, {key: values})))))
        assert [len(row) for row in rows] == [5] * 3 and rows[0][1] == key
        assert sorted(_parse_value(row[1]) for row in rows[1:]) == sorted(map(list, values))


def kind_config(kind, optimizer_lines="", steps=100, extra=""):
    return parse_config(
        f"testbed.kind = rosenbrock\noptimizer.kind = {kind}\n{optimizer_lines}\n"
        f"lr.kind = constant\nlr.value = 0.001\nrun.steps = {steps}\n{extra}\n"
    )


FORWARD = "switch.to = ademamix\nswitch.at = 50\nswitch.alpha = 3.0\nswitch.beta3 = 0.999"
BACKWARD = "switch.to = adamw\nswitch.at = 50"
MIX = "optimizer.alpha = 3.0\noptimizer.beta3 = 0.999"
WARM = "\nswitch.t_alpha = 20"
DIRECTIONS = {
    "forward": ("adamw", "", FORWARD),
    "backward": ("ademamix", MIX, BACKWARD),
}


class TestResumeGuards:
    def test_theta_length_mismatch_is_config_error(self):
        part = Experiment(toy_config(steps=20))
        part.run(until=10)
        with pytest.raises(ConfigError, match="length"):
            Experiment(mlp_config(steps=20), resume_from=load_state(part.checkpoint()))

    def test_foreign_kind_is_config_error(self):
        lion = Experiment(kind_config("lion", steps=20))
        lion.run(until=10)
        with pytest.raises(ConfigError, match="lion"):
            Experiment(kind_config("adamw", steps=20), resume_from=load_state(lion.checkpoint()))

    @pytest.mark.parametrize("direction", list(DIRECTIONS))
    @pytest.mark.parametrize("split", [30, 50, 70])
    def test_split_around_switch_matches_full_run(self, direction, split):
        kind, lines, switch = DIRECTIONS[direction]
        cfg = kind_config(kind, lines, extra=switch)
        full = run_experiment(cfg)
        part = Experiment(cfg)
        head = part.run(until=split)
        tail = Experiment(cfg, resume_from=load_state(part.checkpoint())).run()
        assert format_record_csv_rows(head.rows + tail.rows) == format_record_csv(full)

    @pytest.mark.parametrize("direction", list(DIRECTIONS))
    def test_pre_switch_kind_accepted_at_switch_step(self, direction):
        kind, lines, switch = DIRECTIONS[direction]
        cfg = kind_config(kind, lines, extra=switch)
        plain = Experiment(kind_config(kind, lines))
        plain.run(until=50)
        resumed = Experiment(cfg, resume_from=load_state(plain.checkpoint()))
        assert resumed.opt.variant == kind
        resumed.run()
        full = Experiment(cfg)
        full.run()
        assert resumed.theta.tobytes() == full.theta.tobytes()

    @pytest.mark.parametrize("direction", list(DIRECTIONS))
    @pytest.mark.parametrize("split", [30, 70])
    def test_kind_on_wrong_side_of_switch_is_config_error(self, direction, split):
        kind, lines, switch = DIRECTIONS[direction]
        target, target_lines = ("ademamix", MIX) if kind == "adamw" else ("adamw", "")
        # before switch.at the state must be of `kind`, after it of `target`
        wrong = kind_config(target, target_lines) if split < 50 else kind_config(kind, lines)
        part = Experiment(wrong)
        part.run(until=split)
        cfg = kind_config(kind, lines, extra=switch)
        with pytest.raises(ConfigError, match="expects"):
            Experiment(cfg, resume_from=load_state(part.checkpoint()))


    def test_differing_optimizer_hyperparameter_is_config_error(self):
        part = Experiment(kind_config("ademamix", "optimizer.alpha = 5.0", steps=20))
        part.run(until=10)
        ck = load_state(part.checkpoint())
        other = kind_config("ademamix", "optimizer.alpha = 9.0", steps=20)
        with pytest.raises(ConfigError, match=re.escape(
                "checkpoint holds a 'ademamix' state with alpha = 5.0 at step 10, "
                "the config expects alpha = 9.0")):
            Experiment(other, resume_from=ck)
        # the first key that differs, in the kind's keyword order, is named
        other = kind_config("ademamix", "optimizer.alpha = 9.0\noptimizer.beta1 = 0.5", steps=20)
        with pytest.raises(ConfigError, match=re.escape("beta1 = 0.9 at step 10, "
                                                        "the config expects beta1 = 0.5")):
            Experiment(other, resume_from=ck)

    def test_differing_switch_hyperparameter_is_config_error_after_the_switch(self):
        cfg = kind_config("adamw", extra=FORWARD)
        other = kind_config("adamw", extra=FORWARD.replace("alpha = 3.0", "alpha = 4.0"))
        early, late = Experiment(cfg), Experiment(cfg)
        early.run(until=30)
        late.run(until=70)
        # before switch.at the state holds no switch.* value
        Experiment(other, resume_from=load_state(early.checkpoint())).run()
        with pytest.raises(ConfigError, match=re.escape(
                "'ademamix' state with alpha = 3.0 at step 70, the config expects alpha = 4.0")):
            Experiment(other, resume_from=load_state(late.checkpoint()))

    @pytest.mark.parametrize("other,offset", [
        (kind_config("adamw", extra=FORWARD.replace("at = 50", "at = 35") + WARM), 35),
        (kind_config("ademamix", MIX + WARM.replace("switch", "optimizer")), 0),
    ], ids=["later_switch", "no_switch"])
    def test_differing_sched_offset_is_config_error(self, other, offset):
        # the state switched at step 30 warms alpha up from there: resumed under
        # a later switch or none, its warmup clock would not be the config's
        part = Experiment(kind_config("adamw", extra=FORWARD.replace("at = 50", "at = 30") + WARM))
        part.run(until=40)
        with pytest.raises(ConfigError, match=re.escape(
                "checkpoint holds a 'ademamix' state with sched_offset = 30 at step 40, "
                f"the config expects sched_offset = {offset}")):
            Experiment(other, resume_from=load_state(part.checkpoint()))


class TestBuildTimeValidation:
    def test_bad_switch_parameter(self):
        cfg = kind_config("adamw", extra="switch.to = ademamix\nswitch.at = 50\nswitch.beta3 = 1.5")
        with pytest.raises(ConfigError, match="beta3"):
            Experiment(cfg)

    def test_switch_warmup_below_beta_start(self):
        cfg = kind_config(
            "adamw",
            extra="switch.to = ademamix\nswitch.at = 50\nswitch.beta3 = 0.5\nswitch.t_beta3 = 20",
        )
        with pytest.raises(ConfigError, match="beta_start"):
            Experiment(cfg)

    @pytest.mark.parametrize(
        "kind,lines",
        [
            ("ademamix", "optimizer.beta1 = 0.0\noptimizer.t_beta3 = 50"),
            ("ademamix", "optimizer.beta3 = 0.5\noptimizer.t_beta3 = 50"),
            ("ad3emamix", "optimizer.beta4 = 0.5\noptimizer.t_beta3 = 50"),
            (
                "ademamix",
                "optimizer.beta3 = 0.99\noptimizer.t_beta3 = 50\noptimizer.beta_start = 0.995",
            ),
        ],
    )
    def test_beta_start_must_fit_the_warmup(self, kind, lines):
        with pytest.raises(ConfigError, match="beta_start"):
            Experiment(kind_config(kind, lines))

    def test_beta_start_unchecked_without_warmup(self):
        exp = Experiment(kind_config("ademamix", "optimizer.beta3 = 0.5", steps=5))
        assert exp.run().status == "completed"


class TestTestbedBuildErrors:
    """A testbed the config sizes past what numpy can build is a ConfigError
    naming it, before any step."""

    def test_a_size_numpy_refuses(self):
        # 1e20 parameters: numpy refuses the shape before it allocates anything
        cfg = parse_config(format_config(mlp_config()).replace(
            "testbed.hidden = 16, 16", "testbed.hidden = 10000000000, 10000000000"))
        with pytest.raises(ConfigError, match="cannot build testbed 'mlp': Maximum allowed"):
            Experiment(cfg)

    def test_memory_that_runs_out(self, monkeypatch):
        def no_memory(self, rng):
            raise MemoryError("Unable to allocate 1.31 TiB")

        monkeypatch.setattr(TinyMlp, "init_params", no_memory)
        with pytest.raises(ConfigError, match="cannot build testbed 'mlp': Unable to allocate"):
            Experiment(mlp_config())


def build_lr_schedule_before_registry(cfg):
    """The hand-written lr schedule construction the registry replaced (reference)."""
    kind, p = cfg.lr.kind, cfg.lr.params
    if kind == "constant":
        return ConstantSchedule(value=float(p["value"]))
    if kind == "lr_warmup_cosine":
        return WarmupCosineDecay(
            eta_max=float(p["eta_max"]),
            eta_min=float(p.get("eta_min", 0.0)),
            warmup=int(p.get("warmup", 0)),
            total=int(p.get("total", cfg.steps)),
        )
    return WarmupConstantLinearDecay(
        eta_max=float(p["eta_max"]),
        eta_min=float(p.get("eta_min", 0.0)),
        warmup=int(p.get("warmup", 0)),
        decay_start=int(p["decay_start"]),
        decay_end=int(p["decay_end"]),
    )


def lr_config(lines, steps=400):
    return parse_config(
        f"testbed.kind = rosenbrock\noptimizer.kind = adamw\n{lines}\nrun.steps = {steps}\n"
    )


class TestLrScheduleConstruction:
    @pytest.mark.parametrize(
        "lines",
        [
            "lr.kind = constant\nlr.value = 0.001",
            "lr.kind = constant\nlr.value = 1",
            "lr.kind = lr_warmup_cosine\nlr.eta_max = 0.01",
            "lr.kind = lr_warmup_cosine\nlr.eta_max = 1\nlr.eta_min = 0\nlr.warmup = 10\n"
            "lr.total = 300",
            "lr.kind = lr_warmup_constant_linear_decay\nlr.eta_max = 0.01\n"
            "lr.decay_start = 100\nlr.decay_end = 400",
            "lr.kind = lr_warmup_constant_linear_decay\nlr.eta_max = 0.01\nlr.eta_min = 1e-05\n"
            "lr.warmup = 50\nlr.decay_start = 100.0\nlr.decay_end = 400",
        ],
    )
    def test_matches_explicit_constructors(self, lines):
        cfg = lr_config(lines)
        built, reference = _build_lr_schedule(cfg), build_lr_schedule_before_registry(cfg)
        # repr shows the field types too: 0 and 0.0 would compare equal
        assert repr(built) == repr(reference)
        steps = range(0, 401, 7)
        assert [built.at(t) for t in steps] == [reference.at(t) for t in steps]

    @pytest.mark.parametrize(
        "lines,match",
        [
            ("lr.kind = constant", "^lr.value is required for lr.kind = constant$"),
            ("lr.kind = constant\nlr.value = abc", "abc"),
            ("lr.kind = constant\nlr.value = 1, 2", "bad lr schedule"),
            ("lr.kind = lr_warmup_cosine\nlr.eta_max = 0.1\nlr.warmup = 500\nlr.total = 300",
             "warmup"),
            ("lr.kind = lr_warmup_constant_linear_decay\nlr.eta_max = 0.1\nlr.decay_end = 9",
             "^lr.decay_start is required for lr.kind = lr_warmup_constant_linear_decay$"),
        ],
    )
    def test_bad_parameters_are_config_errors(self, lines, match):
        with pytest.raises(ConfigError, match=match):
            Experiment(lr_config(lines))


class TestOverrides:
    @pytest.mark.parametrize(
        "key,message",
        [
            ("run.constant_after", "cannot sweep run.constant_after"),
            ("run.out", "cannot sweep run.out"),
            ("run.bogus", "cannot sweep run.bogus"),
            ("forget.t_b", "cannot sweep forget.t_b"),
            ("switch.at", "config has no switch directive to override"),
            ("switch.alpha", "config has no switch directive to override"),
            ("nope.key", "unknown override section 'nope'"),
            ("steps", "override key 'steps' is missing its section prefix"),
        ],
    )
    def test_refused_keys(self, key, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            apply_override(toy_config(steps=10), key, 1)

    def test_forget_refused_with_a_forget_directive(self):
        cfg = mlp_config(steps=100, extra="forget.t_b = 40")
        with pytest.raises(ConfigError, match="cannot sweep forget.t_b"):
            apply_override(cfg, "forget.t_b", 50)

    def test_switch_keys_accepted_with_a_switch_directive(self):
        cfg = kind_config("adamw", extra=FORWARD)
        assert apply_override(cfg, "switch.at", 60).switch.at == 60
        assert apply_override(cfg, "switch.alpha", 4.0).switch.params["alpha"] == 4.0

    def test_values_are_normalized_like_parsed_ones(self):
        cfg = toy_config(steps=10)
        assert apply_override(cfg, "testbed.x0", (1.0, 2.0)).testbed_params["x0"] == [1.0, 2.0]
        steps = apply_override(cfg, "run.steps", np.int64(7)).steps
        assert steps == 7 and type(steps) is int

    def test_numpy_float_values_stay_numbers(self):
        cfg = toy_config(steps=10)
        value = apply_override(cfg, "lr.value", np.float64(0.01)).lr.params["value"]
        assert value == 0.01 and type(value) is float

    def test_input_config_is_not_modified(self):
        cfg = toy_config(steps=10, extra="testbed.x0 = 1.0, 2.0")
        before = repr(cfg)
        apply_override(cfg, "testbed.x0", [3.0, 4.0])
        apply_override(cfg, "optimizer.beta1", 0.5)
        assert repr(cfg) == before


def test_record_columns_are_the_row_fields():
    assert RECORD_COLUMNS == (
        "step", "loss", "distance_to_optimum", "eta", "alpha", "beta3", "update_norm",
        "heldout_loss",
    )
    assert RunRow._fields == RECORD_COLUMNS
