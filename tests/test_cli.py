import argparse
import os

import pytest

from emx.cli import main

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
        monkeypatch.setenv("EMX_SEED", "not-a-number")
        assert main(["run", toy_cfg_file]) == 3

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

    def test_t_b_flag_overrides(self, mlp_cfg_file, tmp_path):
        outdir = tmp_path / "forget2"
        assert main(["forget", mlp_cfg_file, "--t-b", "80", "--out-dir", str(outdir)]) == 0
        normalized = (outdir / "normalized.csv").read_text().splitlines()
        assert int(normalized[1].split(",")[0]) == 79


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

    def test_resume_under_other_testbed_exits_3(self, toy_cfg_file, mlp_cfg_file, tmp_path, capsys):
        ck = tmp_path / "state.emx"
        main(["checkpoint", "save", toy_cfg_file, "--at-step", "5", "--out", str(ck)])
        assert main(["run", mlp_cfg_file, "--resume", str(ck)]) == 3
        assert "config error" in capsys.readouterr().err

    def test_resume_of_other_kind_exits_3(self, toy_cfg_file, tmp_path, capsys):
        lion = tmp_path / "lion.cfg"
        lion.write_text(TOY_CFG.replace("ademamix", "lion").replace("optimizer.beta3 = 0.999\n", "")
                        .replace("optimizer.alpha = 5.0\n", ""))
        ck = tmp_path / "state.emx"
        assert main(["checkpoint", "save", str(lion), "--at-step", "5", "--out", str(ck)]) == 0
        assert main(["run", toy_cfg_file, "--resume", str(ck)]) == 3
        assert "config error" in capsys.readouterr().err


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
            "--jsonl",
        )
    )
    assert sorted(k for k in flags if k.startswith("run ")) == [
        "run --jsonl", "run --out", "run --resume", "run -h --help"
    ]
