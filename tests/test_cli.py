import argparse
import functools
import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

import emx
from emx import harness
from emx.checkpoint import load_state, restore_optimizer, save_state
from emx.cli import _toy_config, build_parser, main
from emx.config import ConfigError, parse_config
from emx.ema_weights import PROFILES
from emx.testbeds import SyntheticDataset

TOY_CFG = """
testbed.kind = rosenbrock
optimizer.kind = ademamix
optimizer.beta3 = 0.999
optimizer.alpha = 5.0
lr.kind = constant
lr.value = 0.001
run.steps = 50
run.seed = 11
"""

MLP_CFG = """
testbed.kind = mlp
testbed.input_dim = 6
testbed.hidden = 12
testbed.batch_size = 8
optimizer.kind = ademamix
optimizer.beta3 = 0.999
optimizer.alpha = 2.0
lr.kind = constant
lr.value = 0.01
run.steps = 180
run.seed = 2
run.cadence = 1
forget.t_b = 60
"""

# TOY_CFG's optimizer reached by a switch at step 30, alpha warming up from there
SWITCHED_CFG = (TOY_CFG.replace("ademamix\noptimizer.beta3 = 0.999\noptimizer.alpha = 5.0", "adamw")
                + "switch.to = ademamix\nswitch.at = 30\nswitch.beta3 = 0.999\n"
                + "switch.alpha = 5.0\nswitch.t_alpha = 20\n")


@pytest.fixture
def toy_cfg_file(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(TOY_CFG)
    return str(path)


@pytest.fixture
def mlp_cfg_file(tmp_path):
    path = tmp_path / "mlp.cfg"
    path.write_text(MLP_CFG)
    return str(path)


class TestRunCommand:
    def test_writes_csv_and_exits_zero(self, toy_cfg_file, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["run", toy_cfg_file, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("step,loss,")
        assert len(lines) == 51

    def test_repeated_runs_byte_identical(self, toy_cfg_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", toy_cfg_file, "--out", str(out1)])
        main(["run", toy_cfg_file, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_jsonl_flag(self, toy_cfg_file, tmp_path):
        out = tmp_path / "run.jsonl"
        assert main(["run", toy_cfg_file, "--jsonl", "--out", str(out)]) == 0
        assert out.read_text().count("\n") == 50

    def test_env_seed_overrides_config(self, toy_cfg_file, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", toy_cfg_file, "--out", str(out1)])
        monkeypatch.setenv("EMX_SEED", "99")
        main(["run", toy_cfg_file, "--out", str(out2)])
        # deterministic toys ignore the seed's stream, but the run still works
        assert out2.exists()

    def test_env_seed_changes_mlp_stream(self, mlp_cfg_file, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", mlp_cfg_file, "--out", str(out1)])
        monkeypatch.setenv("EMX_SEED", "99")
        main(["run", mlp_cfg_file, "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_bad_env_seed_is_config_error(self, toy_cfg_file, monkeypatch, capsys):
        for env in ("not-a-number", "5_0", " 5"):  # int() reads the last two; a config does not
            monkeypatch.setenv("EMX_SEED", env)
            assert main(["run", toy_cfg_file]) == 3
            want = f"config error: EMX_SEED must be an integer, got {env!r}\n"
            assert capsys.readouterr() == ("", want)

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("testbed.kind = nowhere\n")
        assert main(["run", str(bad)]) == 3
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_code(self):
        assert main(["run", "/no/such/file.cfg"]) == 3

    def test_diverged_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "div.cfg"
        cfg.write_text(
            TOY_CFG.replace("lr.value = 0.001", "lr.value = 1e6")
            + "optimizer.weight_decay = 1.0\n"
        )
        out = tmp_path / "div.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert out.exists()  # partial record still emitted


class TestToyCommand:
    def test_runs_to_stdout(self, capsys):
        assert main(["toy", "rosenbrock", "--optimizer", "adamw", "--steps", "5",
                     "--lr", "0.001"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("step,loss,")
        assert out.count("\n") == 6

    def test_preseeded_valley(self, tmp_path):
        out = tmp_path / "valley.csv"
        code = main([
            "toy", "valley", "--optimizer", "ademamix", "--steps", "10",
            "--lr", "0.01", "--beta1", "0.9", "--beta3", "0.999",
            "--preseed=-3,0", "--x0=0.3,1.5", "--out", str(out),
        ])
        assert code == 0
        assert len(out.read_text().splitlines()) == 11

    BASE = "testbed.kind = rosenbrock\noptimizer.kind = adamw\nlr.kind = constant\n" \
           "lr.value = 0.01\nrun.steps = 30\n"

    @pytest.mark.parametrize("flags,lines", [
        ([], ""),
        (["--x0=0.5,1.5"], "testbed.x0 = 0.5, 1.5\n"),
        (["--clip", "0.5"], "run.clip = 0.5\n"),
        (["--seed", "7"], "run.seed = 7\n"),
        (["--cadence", "4"], "run.cadence = 4\n"),
    ], ids=["none", "x0", "clip", "seed", "cadence"])
    def test_config_key_flags_match_run(self, tmp_path, flags, lines):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(self.BASE + lines)
        toy, run = tmp_path / "toy.csv", tmp_path / "run.csv"
        assert main(["toy", "rosenbrock", "--steps", "30", "--lr", "0.01", *flags,
                     "--out", str(toy)]) == 0
        assert main(["run", str(cfg), "--out", str(run)]) == 0
        assert toy.read_bytes() == run.read_bytes()

    def test_unset_run_flags_take_the_config_defaults(self):
        cfg = _toy_config(build_parser().parse_args(["toy", "valley"]))
        assert (cfg.seed, cfg.cadence, cfg.clip, cfg.testbed_params) == (0, 1, None, {})
        assert cfg == parse_config(self.BASE.replace("rosenbrock", "valley")
                                   .replace("0.01", "0.001").replace("30", "1000"))


class TestOneBetaAggMo:
    CFG = ("testbed.kind = rosenbrock\noptimizer.kind = aggmo\noptimizer.betas = 0.5\n"
           "lr.kind = constant\nlr.value = 0.0001\nrun.steps = 20\n")

    def test_config_and_toy_flag_run_the_same(self, tmp_path):
        cfg, run, toy = tmp_path / "aggmo.cfg", tmp_path / "run.csv", tmp_path / "toy.csv"
        cfg.write_text(self.CFG)
        assert main(["run", str(cfg), "--out", str(run)]) == 0
        assert main(["toy", "rosenbrock", "--optimizer", "aggmo", "--betas", "0.5", "--steps", "20",
                     "--lr", "0.0001", "--out", str(toy)]) == 0
        assert run.read_bytes() == toy.read_bytes()
        assert len(run.read_text().splitlines()) == 21

    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg, full, tail = tmp_path / "aggmo.cfg", tmp_path / "full.csv", tmp_path / "tail.csv"
        cfg.write_text(self.CFG)
        ck = tmp_path / "half.emx"
        assert main(["run", str(cfg), "--out", str(full)]) == 0
        assert main(["checkpoint", "save", str(cfg), "--at-step", "8", "--out", str(ck)]) == 0
        assert b"betas=0.5\n" in ck.read_bytes()
        assert main(["run", str(cfg), "--resume", str(ck), "--out", str(tail)]) == 0
        assert tail.read_text().splitlines()[1:] == full.read_text().splitlines()[9:]

    def test_grid_runs_one_beta_points(self, tmp_path):
        cfg, out = tmp_path / "aggmo.cfg", tmp_path / "sweep.csv"
        cfg.write_text(self.CFG.replace("optimizer.betas = 0.5\n", ""))
        assert main(["sweep", str(cfg), "--grid", "optimizer.betas=0.5,0.9",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,optimizer.betas,final_loss,best_loss,diverged"
        assert sorted(line.split(",")[:2] for line in lines[1:]) == [["0", "0.5"], ["1", "0.9"]]


class TestSweepCommand:
    def test_sweep_summary(self, toy_cfg_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", toy_cfg_file, "--grid", "lr.value=0.001,0.0001", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,lr.value,final_loss,best_loss,diverged"
        assert len(lines) == 3

    def test_bad_grid_is_config_error(self, toy_cfg_file):
        assert main(["sweep", toy_cfg_file, "--grid", "oops"]) == 3

    def test_a_grid_int_too_long_to_convert_is_config_error(self, toy_cfg_file, capsys):
        assert main(["sweep", toy_cfg_file, "--grid", "lr.value=" + "1" * 5000]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: --grid 'lr.value': Exceeds the limit")

    def test_repeated_grid_key_is_config_error(self, toy_cfg_file, capsys):
        code = main(["sweep", toy_cfg_file, "--grid", "lr.value=0.1,0.2", "--grid", "lr.value=0.3"])
        assert code == 3
        assert "duplicate --grid key 'lr.value'" in capsys.readouterr().err

    def test_a_repeated_grid_value_is_config_error(self, mlp_cfg_file, capsys):
        assert main(["sweep", mlp_cfg_file, "--grid", "testbed.hidden=16,16"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: --grid 'testbed.hidden' repeats the value 16: each "
                                "value is one point, so --grid cannot give a list-valued point\n")

    def test_a_point_with_no_recorded_step_is_best_at_its_final_loss(self, tmp_path, capsys):
        cfg = tmp_path / "mlp.cfg"  # 3 steps at the MLP's cadence of 10 record no row
        cfg.write_text(MLP_CFG.replace("run.steps = 180", "run.steps = 3")
                       .replace("run.cadence = 1\nforget.t_b = 60\n", ""))
        assert main(["sweep", str(cfg), "--grid", "testbed.hidden=16"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        index, hidden, final_loss, best_loss, diverged = row.split(",")
        assert (index, hidden, diverged) == ("0", "16", "false")
        assert best_loss == final_loss != "inf"

    @pytest.mark.parametrize("grids", [["run.steps=50", "lr.total=50"],
                                       ["lr.total=50", "run.steps=50"]])
    def test_grid_order_does_not_matter(self, tmp_path, grids):
        cfg = tmp_path / "cosine.cfg"
        cfg.write_text(TOY_CFG.replace("lr.kind = constant\nlr.value = 0.001\n",
                                       "lr.kind = lr_warmup_cosine\nlr.eta_max = 0.001\n"
                                       "lr.warmup = 5\nlr.total = 100\n")
                       .replace("run.steps = 50", "run.steps = 100"))
        out = tmp_path / "sweep.csv"
        args = [arg for grid in grids for arg in ("--grid", grid)]
        assert main(["sweep", str(cfg), *args, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_diverged_point_exits_2(self, toy_cfg_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", toy_cfg_file, "--grid", "lr.value=0.001,1e6",
                     "--grid", "optimizer.weight_decay=1.0", "--out", str(out)])
        assert code == 2
        assert out.read_text().splitlines()[-1].endswith(",true")


class TestAnalyzeEmaCommand:
    def test_single_profile(self, tmp_path):
        out = tmp_path / "w.csv"
        code = main([
            "analyze-ema", "--kind", "single", "--beta", "0.9",
            "--horizon", "100", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "age,weight"
        assert len(lines) == 102
        assert float(lines[1].split(",")[1]) == pytest.approx(0.1)

    @pytest.mark.parametrize("kind", ["mixture", "nested", "dema"])
    def test_other_kinds(self, kind, tmp_path):
        out = tmp_path / f"{kind}.csv"
        assert main(["analyze-ema", "--kind", kind, "--horizon", "50",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 52


class TestForgetCommand:
    def test_writes_all_series(self, mlp_cfg_file, tmp_path):
        outdir = tmp_path / "forget"
        assert main(["forget", mlp_cfg_file, "--out-dir", str(outdir)]) == 0
        names = sorted(os.listdir(outdir))
        assert names == [
            "control.csv",
            "heldout_control.csv",
            "heldout_injected.csv",
            "injected.csv",
            "normalized.csv",
        ]
        normalized = (outdir / "normalized.csv").read_text().splitlines()
        assert normalized[0] == "step,normalized_loss"
        first = normalized[1].split(",")
        assert int(first[0]) == 59 and float(first[1]) == 0.0

    def test_t_b_flag_overrides(self, tmp_path):
        # the same bytes as the config with forget.t_b = 80 written in, with or
        # without a forget.t_b of its own
        written = tmp_path / "written.cfg"
        written.write_text(MLP_CFG.replace("forget.t_b = 60", "forget.t_b = 80"))
        expected = tmp_path / "forget80"
        assert main(["forget", str(written), "--out-dir", str(expected)]) == 0
        names = sorted(os.listdir(expected))
        assert len(names) == 5
        for directive in ("forget.t_b = 60\n", ""):
            flagged, outdir = tmp_path / "flagged.cfg", tmp_path / f"forget{len(directive)}"
            flagged.write_text(MLP_CFG.replace("forget.t_b = 60\n", directive))
            assert main(["forget", str(flagged), "--t-b", "80", "--out-dir", str(outdir)]) == 0
            normalized = (outdir / "normalized.csv").read_text().splitlines()
            assert int(normalized[1].split(",")[0]) == 79
            assert sorted(os.listdir(outdir)) == names
            for name in names:
                assert (outdir / name).read_bytes() == (expected / name).read_bytes()

    def test_diverged_run_exits_2(self, tmp_path):
        cfg = tmp_path / "div.cfg"
        cfg.write_text(MLP_CFG.replace("lr.value = 0.01", "lr.value = 1e6")
                       + "optimizer.weight_decay = 1.0\n")
        outdir = tmp_path / "forget"
        assert main(["forget", str(cfg), "--out-dir", str(outdir)]) == 2
        assert (outdir / "control.csv").exists()


class TestCheckpointCommand:
    def test_save_then_inspect(self, toy_cfg_file, tmp_path, capsys):
        ck = tmp_path / "state.emx"
        assert main(["checkpoint", "save", toy_cfg_file, "--at-step", "20",
                     "--out", str(ck)]) == 0
        assert ck.read_bytes().startswith(b"EMXCKPT1")
        assert main(["checkpoint", "load", str(ck)]) == 0
        out = capsys.readouterr().out
        assert "variant: ademamix" in out
        assert "step: 20" in out
        assert "slot theta: len 2" in out

    def test_save_after_divergence_exits_2_and_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "div.cfg"
        cfg.write_text(TOY_CFG.replace("lr.value = 0.001", "lr.value = 1e6")
                       + "optimizer.weight_decay = 1.0\n")
        ck = tmp_path / "state.emx"
        assert main(["checkpoint", "save", str(cfg), "--at-step", "50", "--out", str(ck)]) == 2
        assert capsys.readouterr().err.startswith("diverged at step ")
        assert not ck.exists()

    def test_resume_matches_uninterrupted(self, toy_cfg_file, tmp_path):
        full = tmp_path / "full.csv"
        main(["run", toy_cfg_file, "--out", str(full)])
        ck = tmp_path / "half.emx"
        main(["checkpoint", "save", toy_cfg_file, "--at-step", "25", "--out", str(ck)])
        tail = tmp_path / "tail.csv"
        assert main(["run", toy_cfg_file, "--resume", str(ck), "--out", str(tail)]) == 0
        full_lines = full.read_text().splitlines()
        tail_lines = tail.read_text().splitlines()
        assert tail_lines[0] == full_lines[0]
        assert tail_lines[1:] == full_lines[26:]

    def test_corrupt_checkpoint_is_reported(self, toy_cfg_file, tmp_path, capsys):
        ck = tmp_path / "state.emx"
        main(["checkpoint", "save", toy_cfg_file, "--at-step", "5", "--out", str(ck)])
        blob = bytearray(ck.read_bytes())
        blob[0] ^= 0xFF
        ck.write_bytes(bytes(blob))
        assert main(["checkpoint", "load", str(ck)]) == 3
        assert "checkpoint error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old,new",
        [(b"\nbeta2=", b"\nbetaX="), (b"\neps=1e-08\n", b"\neps=abcde\n")],
        ids=["missing_key", "non_numeric"],
    )
    def test_bad_hyper_on_resume_exits_3(self, toy_cfg_file, tmp_path, capsys, old, new):
        ck = tmp_path / "state.emx"
        main(["checkpoint", "save", toy_cfg_file, "--at-step", "5", "--out", str(ck)])
        blob = ck.read_bytes()
        assert old in blob
        ck.write_bytes(blob.replace(old, new))
        assert main(["run", toy_cfg_file, "--resume", str(ck)]) == 3
        assert "checkpoint error" in capsys.readouterr().err

    @staticmethod
    def _save_with_hyper(cfg, ck, **lines):
        """Save ``cfg``'s state at step 5 to ``ck``, its hyperparameter block
        updated with ``lines``."""
        assert main(["checkpoint", "save", cfg, "--at-step", "5", "--out", str(ck)]) == 0
        blob = ck.read_bytes()
        hyper = load_state(blob).hyper
        text = "".join(f"{k}={v}\n" for k, v in hyper.items()).encode()
        new = "".join(f"{k}={v}\n" for k, v in {**hyper, **lines}.items()).encode()
        start = blob.index(text)  # after the block's u32 byte length
        ck.write_bytes(blob[:start - 4] + struct.pack("<I", len(new)) + new
                       + blob[start + len(text):])

    @pytest.mark.parametrize("key", ["t_alpha", "alpha"])
    def test_resume_of_an_integer_beyond_the_float_range_exits_3(self, key, toy_cfg_file,
                                                                 tmp_path, capsys):
        ck = tmp_path / "state.emx"
        self._save_with_hyper(toy_cfg_file, ck, **{key: "9" * 400})
        assert main(["run", toy_cfg_file, "--resume", str(ck)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"checkpoint error: invalid ademamix hyperparameters: {key} must be ")

    def test_resume_of_a_hyper_key_the_kind_does_not_take_exits_3(self, toy_cfg_file,
                                                                  tmp_path, capsys):
        ck = tmp_path / "state.emx"
        self._save_with_hyper(toy_cfg_file, ck, bogus="x", betas="0.5")
        assert main(["run", toy_cfg_file, "--resume", str(ck)]) == 3
        err = capsys.readouterr().err
        assert err == "checkpoint error: unknown ademamix hyper keys ['betas', 'bogus']\n"

    def test_resume_under_other_testbed_exits_3(self, toy_cfg_file, mlp_cfg_file, tmp_path, capsys):
        ck = tmp_path / "state.emx"
        main(["checkpoint", "save", toy_cfg_file, "--at-step", "5", "--out", str(ck)])
        assert main(["run", mlp_cfg_file, "--resume", str(ck)]) == 3
        assert "config error" in capsys.readouterr().err

    def test_resume_past_run_steps_exits_3(self, toy_cfg_file, tmp_path, capsys):
        ck = tmp_path / "state.emx"
        assert main(["checkpoint", "save", toy_cfg_file, "--at-step", "25", "--out", str(ck)]) == 0
        short = tmp_path / "short.cfg"
        short.write_text(TOY_CFG.replace("run.steps = 50", "run.steps = 10"))
        out = tmp_path / "tail.csv"
        assert main(["run", str(short), "--resume", str(ck), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "config error: checkpoint is at step 25, past run.steps = 10" in err
        assert not out.exists()

    def test_resume_under_other_hyperparameters_exits_3(self, toy_cfg_file, tmp_path, capsys):
        ck = tmp_path / "state.emx"
        assert main(["checkpoint", "save", toy_cfg_file, "--at-step", "10", "--out", str(ck)]) == 0
        other = tmp_path / "other.cfg"
        other.write_text(TOY_CFG.replace("optimizer.alpha = 5.0", "optimizer.alpha = 9.0"))
        out = tmp_path / "tail.csv"
        assert main(["run", str(other), "--resume", str(ck), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: checkpoint holds a 'ademamix' state with alpha = 5.0")
        assert not out.exists()

    def test_resume_of_other_kind_exits_3(self, toy_cfg_file, tmp_path, capsys):
        lion = tmp_path / "lion.cfg"
        lion.write_text(TOY_CFG.replace("ademamix", "lion").replace("optimizer.beta3 = 0.999\n", "")
                        .replace("optimizer.alpha = 5.0\n", ""))
        ck = tmp_path / "state.emx"
        assert main(["checkpoint", "save", str(lion), "--at-step", "5", "--out", str(ck)]) == 0
        assert main(["run", toy_cfg_file, "--resume", str(ck)]) == 3
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("poisoned,named", [
        (["nu"], "nu"), (["theta"], "theta"), (["theta", "nu", "m2"], "m2"),
    ], ids=["slot", "theta", "first"])
    def test_resume_of_a_non_finite_checkpoint_exits_3(self, poisoned, named, toy_cfg_file,
                                                       tmp_path, capsys):
        ck = tmp_path / "state.emx"
        assert main(["checkpoint", "save", toy_cfg_file, "--at-step", "5", "--out", str(ck)]) == 0
        data = load_state(ck.read_bytes())
        opt, theta = restore_optimizer(data), data.slots["theta"].copy()
        for name in poisoned:  # the state's slots are m2, nu, m1
            (theta if name == "theta" else getattr(opt, name))[1] = np.nan
        ck.write_bytes(save_state(opt, extra_slots={"theta": theta}))
        out = tmp_path / "tail.csv"
        assert main(["run", toy_cfg_file, "--resume", str(ck), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"config error: checkpoint slot {named!r} holds a non-finite value\n"
        assert not out.exists()

    @pytest.mark.parametrize("other", [
        SWITCHED_CFG.replace("switch.at = 30", "switch.at = 35"),
        TOY_CFG + "optimizer.t_alpha = 20\n",
    ], ids=["later_switch", "no_switch"])
    def test_resume_under_other_switch_step_exits_3(self, other, tmp_path, capsys):
        cfg, ck = tmp_path / "switched.cfg", tmp_path / "state.emx"
        cfg.write_text(SWITCHED_CFG)
        assert main(["checkpoint", "save", str(cfg), "--at-step", "40", "--out", str(ck)]) == 0
        cfg.write_text(other)
        assert main(["run", str(cfg), "--resume", str(ck)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: checkpoint holds a 'ademamix' state with "
                              "sched_offset = 30 at step 40")


def _flags(parser):
    """Every option string and choice list of a parser and its subcommands."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update({f"{name} {k}": v for k, v in _flags(sub).items()})
        elif action.option_strings:
            out[" ".join(action.option_strings)] = sorted(action.choices or [])
    return out


def test_cli_flags_unchanged():
    from emx.cli import build_parser

    flags = _flags(build_parser())
    assert flags["toy --optimizer"] == sorted(
        ["adamw", "ademamix", "lion", "admeta_s", "aggmo", "ad3emamix"]
    )
    assert sorted(k for k in flags if k.startswith("toy ")) == sorted(
        f"toy {f}" for f in (
            "-h --help", "--optimizer", "--steps", "--lr", "--beta1", "--beta2", "--beta3",
            "--beta", "--alpha", "--weight-decay", "--eps", "--t-alpha", "--t-beta3",
            "--beta-start", "--x0", "--preseed", "--clip", "--seed", "--cadence", "--out",
            "--jsonl", "--beta4", "--betas",
        )
    )
    assert sorted(k for k in flags if k.startswith("run ")) == [
        "run --jsonl", "run --out", "run --resume", "run -h --help"
    ]


class TestBoundaryExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "{cfg}"],
            ["sweep", "{cfg}", "--grid", "lr.value=0.001,0.0001"],
            ["toy", "rosenbrock", "--steps", "5"],
            ["analyze-ema", "--kind", "single", "--horizon", "10"],
        ],
        ids=["run", "sweep", "toy", "analyze-ema"],
    )
    def test_unwritable_out_exits_three(self, argv, toy_cfg_file, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        argv = [a.format(cfg=toy_cfg_file) for a in argv] + ["--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "x.csv" in err

    @pytest.mark.parametrize("command", ["run", "forget"])
    def test_negative_env_seed_on_mlp_exits_three(self, command, mlp_cfg_file, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.setenv("EMX_SEED", "-1")
        out = ["--out", str(tmp_path / "x.csv")] if command == "run" else [
            "--out-dir", str(tmp_path / "f")
        ]
        assert main([command, mlp_cfg_file, *out]) == 3
        assert "config error: run.seed" in capsys.readouterr().err

    def test_negative_env_seed_on_toy_exits_three(self, monkeypatch, capsys):
        monkeypatch.setenv("EMX_SEED", "-1")
        assert main(["toy", "rosenbrock", "--steps", "5"]) == 3
        assert "run.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("t_b", ["0", "180"])
    def test_bad_t_b_flag_exits_three(self, t_b, mlp_cfg_file, tmp_path, capsys):
        outdir = tmp_path / "forget"
        assert main(["forget", mlp_cfg_file, "--t-b", t_b, "--out-dir", str(outdir)]) == 3
        assert "forget.t_b" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("flag,message", [
        ("--x0=a,b", "config error: testbed.x0"),
        ("--preseed=a,b", "config error: bad optimizer parameters"),
    ])
    def test_non_numeric_toy_vector_exits_three(self, flag, message, capsys):
        assert main(["toy", "rosenbrock", "--steps", "5", flag]) == 3
        assert message in capsys.readouterr().err

    def test_zero_batch_size_exits_three(self, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(MLP_CFG.replace("testbed.batch_size = 8", "testbed.batch_size = 0"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3
        assert "config error: testbed.batch_size" in capsys.readouterr().err


def _never(*args, **kwargs):
    raise AssertionError("the run started")


def _out_commands(parser, prefix=()):
    """Each (sub)command of ``parser`` that takes ``--out``: its names and
    the argv of its other required arguments."""
    values = {"config": "{cfg}", "grid": "lr.value=0.001,0.0001", "at_step": "10"}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _out_commands(sub, (*prefix, name))
        elif "--out" in action.option_strings:
            argv = list(prefix)
            for other in parser._actions:
                if other.required and other is not action:
                    value = next(iter(other.choices)) if other.choices else values[other.dest]
                    argv += [*other.option_strings[:1], value]
            yield pytest.param(argv, id=" ".join(prefix))


class TestOutputCheckedBeforeTheRun:
    """An output path that is empty, a directory or in a directory that does
    not exist is refused before the first step, and nothing is written."""

    @pytest.mark.parametrize("argv", _out_commands(build_parser()))
    @pytest.mark.parametrize("out,errno_text", [
        ("", "[Errno 2] No such file or directory"),
        ("{tmp}", "[Errno 21] Is a directory"),
        ("{tmp}/missing/x.csv", "[Errno 2] No such file or directory"),
    ], ids=["empty", "directory", "missing directory"])
    def test_every_out_is_checked_before_the_run(self, argv, out, errno_text, toy_cfg_file,
                                                 tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness.Experiment, "__init__", _never)
        for kind, profile in PROFILES.items():
            monkeypatch.setitem(PROFILES, kind, functools.wraps(profile)(_never))
        out = out.format(tmp=tmp_path)
        assert main([a.format(cfg=toy_cfg_file) for a in argv] + ["--out", out]) == 3
        assert capsys.readouterr().err == f"error: {errno_text}: '{out}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["toy.cfg"]

    @pytest.mark.parametrize("out", ["", "{tmp}/missing/x.csv"], ids=["empty", "missing directory"])
    def test_run_out_is_checked_before_the_run(self, out, tmp_path, monkeypatch, capsys):
        out = out.format(tmp=tmp_path)
        cfg = tmp_path / "out.cfg"
        cfg.write_text(TOY_CFG + f"run.out = {out}\n")
        monkeypatch.setattr(harness.Experiment, "__init__", _never)
        assert main(["run", str(cfg)]) == 3
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.cfg"]

    def test_forget_makes_its_directory_first(self, mlp_cfg_file, tmp_path, monkeypatch):
        out_dir = tmp_path / "a" / "b"

        def protocol(cfg):
            assert out_dir.is_dir()
            raise ConfigError("stopped before the run")

        monkeypatch.setattr(harness, "run_forgetting_protocol", protocol)
        assert main(["forget", mlp_cfg_file, "--out-dir", str(out_dir)]) == 3

    def test_forget_directory_that_cannot_be_made_exits_3(self, mlp_cfg_file, tmp_path,
                                                          monkeypatch, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(harness, "run_forgetting_protocol", _never)
        assert main(["forget", mlp_cfg_file, "--out-dir", str(blocker / "out")]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_forget_without_t_b_makes_no_directory(self, tmp_path, monkeypatch, capsys):
        cfg, out_dir = tmp_path / "no_t_b.cfg", tmp_path / "new"
        cfg.write_text(MLP_CFG.replace("forget.t_b = 60\n", ""))
        monkeypatch.setattr(harness.Experiment, "__init__", _never)
        assert main(["forget", str(cfg), "--out-dir", str(out_dir)]) == 3
        assert capsys.readouterr().err == "config error: config has no forget.t_b directive\n"
        assert not out_dir.exists()


class TestNonFiniteJsonl:
    def test_every_line_is_json(self, capsys):
        assert main(["toy", "rosenbrock", "--lr", "1e200", "--steps", "3", "--jsonl"]) == 2

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        rows = [json.loads(line, parse_constant=refuse)
                for line in capsys.readouterr().out.splitlines()]
        assert rows and rows[0]["distance_to_optimum"] == rows[0]["update_norm"] == "inf"
        assert rows[0]["alpha"] is None


class TestMemoryError:
    def test_memory_that_runs_out_mid_run_exits_3(self, mlp_cfg_file, tmp_path, monkeypatch,
                                                  capsys):
        def no_memory(self, t, last=None):
            raise MemoryError("Unable to allocate 1.31 TiB")

        monkeypatch.setattr(SyntheticDataset, "batch", no_memory)
        out = tmp_path / "x.csv"
        assert main(["run", mlp_cfg_file, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 1.31 TiB\n"
        assert not out.exists()

    def test_a_testbed_numpy_cannot_shape_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(MLP_CFG.replace("testbed.hidden = 12",
                                       "testbed.hidden = 10000000000, 10000000000"))
        assert main(["run", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith("config error: cannot build testbed 'mlp'")


def _subparser(parser, name):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices[name]
    raise KeyError(name)


class TestAnalyzeEmaInterface:
    """The ``analyze-ema`` flags, their types and defaults, and its output bytes."""

    def test_flags_types_and_defaults(self):
        """Each flag's option strings, dest, type, whether it is a switch, and
        the default its help shows. A profile flag has no argparse default, so
        one not given is absent from ``args`` and the profile's own default
        applies (``test_csv_bytes`` with no flags)."""
        from emx.cli import build_parser

        p_ema = _subparser(build_parser(), "analyze-ema")
        flags = {}
        for a in p_ema._actions:
            shown = re.fullmatch(r"for [a-z, ]+ \(default: (.*)\)", a.help or "")
            flags[" ".join(a.option_strings)] = (a.dest, a.type, a.nargs == 0, shown and shown[1])
        assert flags == {
            "-h --help": ("help", None, True, None),
            "--kind": ("kind", None, False, None),
            "--horizon": ("profile.horizon", int, False, "10000"),
            "--beta": ("profile.beta", float, False, "0.9"),
            "--beta1": ("profile.beta1", float, False, "0.9"),
            "--beta3": ("profile.beta3", float, False, "0.9999"),
            "--alpha": ("profile.alpha", float, False, "5.0"),
            "--beta-inner": ("profile.beta_inner", float, False, "0.9"),
            "--beta-outer": ("profile.beta_outer", float, False, "0.9"),
            "--window": ("profile.window", int, False, "None"),
            "--normalized": ("profile.normalized", None, True, "False"),
            "--out": ("out", None, False, None),
        }
        assert all(a.default is argparse.SUPPRESS for a in p_ema._actions
                   if a.dest.startswith("profile."))

        def given(*argv):
            args = vars(p_ema.parse_args(["--kind", "mixture", *argv]))
            return {k: v for k, v in args.items() if k.startswith("profile.")}

        assert given() == {}
        assert given("--normalized", "--horizon", "7") == {
            "profile.normalized": True, "profile.horizon": 7}
        kind = next(a for a in p_ema._actions if a.dest == "kind")
        assert kind.required
        assert list(kind.choices) == ["single", "mixture", "nested", "dema"]

    @pytest.mark.parametrize("argv,digest", [
        (["single"], "7d6b644a40a45d3cf2a73efa8bd41e1fce4b964ed25a0286daa2b5aa7e9ebf98"),
        (["mixture"], "5c3681ceeefc7c283c669622348014c6ee72e018a42d19f126b677d90ad4d096"),
        (["nested"], "eb475db6cca78c58b2dbaa936a7b7901825742e515c5a00f56e8f22e2e400b5f"),
        (["dema"], "aa10ca3239e65cb07bc5241f5dc8722c3ca78f38e0dbde1ae4948f30b22f47aa"),
        (["single", "--horizon", "50"],
         "3faeae5876c010c478dbe355a454930b85b8899fb183d873835508ae633b4e61"),
        (["mixture", "--horizon", "50"],
         "344fc9212c13238210f232687871a63db7e8638b3529ca9ab9772eca6331c9bd"),
        (["nested", "--horizon", "50"],
         "491b050b4a52d014b5132f437c2e865578087bad44142729c2e3e51a16ab1632"),
        (["dema", "--horizon", "50"],
         "55b876a12271841f0ed857efc8c05a6f053897c2f6c34034a0bab49037912bae"),
        (["mixture", "--normalized"],
         "a8362527e08f6ddd156356826d467ae9e6cc1d40025217e29bba12faafcef185"),
    ], ids=lambda v: "-".join(v) if isinstance(v, list) else None)
    def test_csv_bytes(self, argv, digest, capsys):
        import hashlib

        assert main(["analyze-ema", "--kind", *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestInputErrorsExitThree:
    @pytest.mark.parametrize("argv,name", [
        (["--kind", "single", "--beta", "1.5"], "beta"),
        (["--kind", "mixture", "--beta3", "1.5"], "beta3"),
        (["--kind", "nested", "--beta-inner", "1.5"], "beta_inner"),
        (["--kind", "mixture", "--alpha", "nan"], "alpha"),
        (["--kind", "mixture", "--alpha", "inf"], "alpha"),
        (["--kind", "single", "--horizon", "-3"], "horizon"),
        (["--kind", "nested", "--horizon", "100000000000"], "horizon"),
        (["--kind", "dema", "--window", "0"], "window"),
    ])
    def test_bad_profile_parameter(self, argv, name, capsys):
        assert main(["analyze-ema", *argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {name} must be") and err.count("\n") == 1

    def test_negative_warmup_horizon_names_its_key(self, tmp_path, capsys):
        path = tmp_path / "neg.cfg"
        path.write_text(TOY_CFG + "optimizer.t_alpha = -3\n")
        assert main(["run", str(path)]) == 3
        err = capsys.readouterr().err
        assert err == "config error: optimizer.t_alpha must be >= 0, got -3\n"

    @pytest.mark.parametrize("argv,flag", [
        (["toy", "rosenbrock", "--steps", "abc"], "--steps"),
        (["toy", "rosenbrock", "--beta5", "0.99"], "--beta5"),
        (["analyze-ema", "--kind", "triple"], "--kind"),
        (["analyze-ema"], "--kind"),
        (["checkpoint", "save", "x.cfg", "--out", "x.emx"], "--at-step"),
        (["nosuch"], "nosuch"),
    ])
    def test_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3  # argparse's own 2 is the "diverged" code
        err = capsys.readouterr().err
        assert err.startswith("config error: emx") and flag in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["toy", "--help"], ["checkpoint", "save", "-h"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: emx")

    @pytest.mark.parametrize("argv", [
        ["toy", "rosenbrock", "--steps", "abc"],
        ["analyze-ema", "--kind", "nested", "--horizon", "100000000000"],
        ["toy", "rosenbrock", "--steps", "5", "--beta1", "abc"],
        ["analyze-ema", "--kind", "single", "--alpha", "7"],
    ])
    def test_process_exit_status(self, argv):
        # the child imports the emx this process imported, with or without PYTHONPATH set
        src = os.path.dirname(os.path.dirname(emx.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "emx.cli", *argv], capture_output=True,
                              text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 3
        assert proc.stderr.startswith("config error: ") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("at_step,ok", [("-5", False), ("500", False), ("21", False),
                                            ("0", True), ("20", True)])
    def test_checkpoint_at_step_within_run(self, at_step, ok, tmp_path, capsys):
        cfg = tmp_path / "short.cfg"
        cfg.write_text(TOY_CFG.replace("run.steps = 50", "run.steps = 20"))
        ck = tmp_path / "state.emx"
        code = main(["checkpoint", "save", str(cfg), "--at-step", at_step, "--out", str(ck)])
        if ok:
            assert code == 0 and ck.exists()
        else:
            assert code == 3 and not ck.exists()
            assert capsys.readouterr().err.startswith("config error: --at-step")

    def test_forget_needs_fifty_steps_after_t_b(self, tmp_path, capsys):
        cfg = tmp_path / "short.cfg"
        cfg.write_text(MLP_CFG.replace("run.steps = 180", "run.steps = 20")
                       .replace("forget.t_b = 60\n", ""))
        outdir = tmp_path / "forget"
        assert main(["forget", str(cfg), "--t-b", "15", "--out-dir", str(outdir)]) == 3
        assert capsys.readouterr().err.startswith("config error: forget.t_b")
        assert not outdir.exists()


# a valid value other than the default for every optimizer.* key
TOY_VALUES = {
    "beta1": "0.8", "beta2": "0.99", "weight_decay": "0.01", "eps": "1e-06",
    "preseed": "-1.0,0.5", "beta3": "0.995", "alpha": "0.5", "t_alpha": "3", "t_beta3": "4",
    "beta_start": "0.85", "beta": "0.95", "betas": "0.5,0.9", "beta4": "0.99",
}


class TestToyFlagsAreConfigKeys:
    def test_flags_are_exactly_the_config_keys(self):
        from emx.cli import build_parser
        from emx.config import _OPTIMIZER_KEYS

        p_toy = _subparser(build_parser(), "toy")
        dests = {a.dest for a in p_toy._actions if a.dest.startswith("optimizer.")}
        assert dests == {f"optimizer.{k}" for keys in _OPTIMIZER_KEYS.values() for k in keys}
        assert set(TOY_VALUES) == {d.partition(".")[2] for d in dests}
        for action in p_toy._actions:
            if action.dest in dests:
                assert action.default is None and action.help.startswith(action.dest)

    @pytest.mark.parametrize("kind", ["adamw", "ademamix", "lion", "admeta_s", "aggmo",
                                      "ad3emamix"])
    def test_toy_equals_run_on_the_same_config(self, kind, tmp_path):
        from emx.config import _OPTIMIZER_KEYS
        from emx.optimizers import OPTIMIZERS

        keys = list(_OPTIMIZER_KEYS[kind])
        defaults = OPTIMIZERS[kind].defaults
        assert all(TOY_VALUES[k] != str(defaults.get(k)) for k in keys)
        flags = [f"--{k.replace('_', '-')}={TOY_VALUES[k]}" for k in keys]
        common = ["--optimizer", kind, "--steps", "12", "--lr", "0.0001", "--seed", "3"]
        toy, plain, run = (tmp_path / f"{n}.csv" for n in ("toy", "plain", "run"))
        assert main(["toy", "rosenbrock", *common, *flags, "--out", str(toy)]) == 0
        assert main(["toy", "rosenbrock", *common, "--out", str(plain)]) == 0
        cfg = tmp_path / "same.cfg"
        cfg.write_text(
            f"testbed.kind = rosenbrock\noptimizer.kind = {kind}\n"
            + "".join(f"optimizer.{k} = {TOY_VALUES[k]}\n" for k in keys)
            + "lr.kind = constant\nlr.value = 0.0001\nrun.steps = 12\nrun.seed = 3\n"
        )
        assert main(["run", str(cfg), "--out", str(run)]) == 0
        assert toy.read_bytes() == run.read_bytes()
        assert toy.read_bytes() != plain.read_bytes()  # the flags took effect
        assert len(toy.read_text().splitlines()) == 13


NONFINITE_BASE = {
    "toy": TOY_CFG,
    "mlp": MLP_CFG.replace("forget.t_b = 60\n", "")
                  .replace("lr.kind = constant\nlr.value = 0.01",
                           "lr.kind = lr_warmup_cosine\nlr.eta_max = 0.01"),
}


class TestNonFiniteIsConfigError:
    """A nan, inf, bool or text value is refused before any step, naming its
    key, not reported as a divergence."""

    @pytest.mark.parametrize("base,key,value", [
        ("mlp", "testbed.noise", "inf"),
        ("mlp", "testbed.noise", "nan"),
        ("toy", "testbed.x0", "inf, 1"),
        ("toy", "optimizer.alpha", "nan"),
        ("toy", "optimizer.eps", "nan"),
        ("toy", "optimizer.weight_decay", "inf"),
        ("toy", "optimizer.preseed", "nan, 0"),
        ("toy", "lr.value", "nan"),
        ("mlp", "lr.eta_max", "inf"),
        ("toy", "optimizer.beta_start", "nan"),
        ("toy", "optimizer.eps", "true"),
        ("toy", "optimizer.beta1", "abc"),
    ])
    def test_run_exits_three(self, base, key, value, tmp_path, capsys):
        lines = [ln for ln in NONFINITE_BASE[base].splitlines() if not ln.startswith(f"{key} =")]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join([*lines, f"{key} = {value}"]) + "\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        name = key if key.startswith(("testbed.", "lr.")) else key.partition(".")[2]
        assert err.startswith("config error: ") and f"{name} must be" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_toy_text_for_a_number_exits_three(self, capsys):
        assert main(["toy", "rosenbrock", "--steps", "5", "--beta1", "abc"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "beta1 must be a finite number" in err


class TestAnalyzeEmaRefusesOtherKindsFlags:
    @pytest.mark.parametrize("kind,flag", [
        ("single", ["--alpha", "7"]),
        ("single", ["--beta3", "0.5"]),
        ("single", ["--normalized"]),
        ("mixture", ["--beta", "0.5"]),
        ("mixture", ["--window", "3"]),
        ("nested", ["--beta1", "0.5"]),
        ("dema", ["--beta-inner", "0.5"]),
        ("single", ["--alpha", "5.0"]),  # at its default value
    ])
    def test_flag_of_another_kind_exits_three(self, kind, flag, capsys):
        assert main(["analyze-ema", "--kind", kind, "--horizon", "3", *flag]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {flag[0]} is not a parameter of --kind {kind}\n"

    def test_own_flags_given_explicitly_are_accepted(self, capsys):
        assert main(["analyze-ema", "--kind", "mixture", "--horizon", "3", "--beta1", "0.9",
                     "--beta3", "0.9999", "--alpha", "5", "--normalized"]) == 0
        explicit = capsys.readouterr().out
        assert main(["analyze-ema", "--kind", "mixture", "--horizon", "3", "--normalized"]) == 0
        assert capsys.readouterr().out == explicit
