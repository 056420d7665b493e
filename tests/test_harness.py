import math

import numpy as np
import pytest

from emx.checkpoint import load_state
from emx.config import ConfigError, parse_config
from emx.harness import (
    Experiment,
    format_record_csv,
    format_record_jsonl,
    format_sweep_csv,
    run_experiment,
    run_forgetting_protocol,
    run_sweep,
)


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


class TestForgetting:
    CFG = "forget.t_b = 100"

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

    def test_bad_override_key(self):
        with pytest.raises(ConfigError):
            run_sweep(toy_config(steps=10), {"nope.key": [1]})

    def test_seed_can_be_swept(self):
        sweep = run_sweep(toy_config(steps=30), {"run.seed": [1, 2, 3]})
        assert len(sweep.entries) == 3


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


def kind_config(kind, optimizer_lines="", steps=100, extra=""):
    return parse_config(
        f"testbed.kind = rosenbrock\noptimizer.kind = {kind}\n{optimizer_lines}\n"
        f"lr.kind = constant\nlr.value = 0.001\nrun.steps = {steps}\n{extra}\n"
    )


FORWARD = "switch.to = ademamix\nswitch.at = 50\nswitch.alpha = 3.0\nswitch.beta3 = 0.999"
BACKWARD = "switch.to = adamw\nswitch.at = 50"
MIX = "optimizer.alpha = 3.0\noptimizer.beta3 = 0.999"
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
