import pytest

from emx.config import _OPTIMIZER_KEYS, ConfigError, format_config, parse_config

TOY_TEXT = """
# two-speed momentum on the banana valley
testbed.kind = rosenbrock
testbed.x0 = -3.0, 5.0
optimizer.kind = ademamix
optimizer.beta1 = 0.9
optimizer.beta2 = 0.999
optimizer.beta3 = 0.9999
optimizer.alpha = 9.0
optimizer.t_alpha = 0
optimizer.t_beta3 = 0
lr.kind = constant
lr.value = 0.001
run.steps = 5000
run.seed = 7
run.cadence = 1
"""

MLP_TEXT = """
testbed.kind = mlp
testbed.input_dim = 8
testbed.hidden = 32, 32
testbed.batch_size = 16
testbed.noise = 0.05
optimizer.kind = adamw
optimizer.beta1 = 0.9
optimizer.beta2 = 0.999
lr.kind = lr_warmup_cosine
lr.eta_max = 0.01
lr.eta_min = 1e-05
lr.warmup = 100
lr.total = 2000
run.steps = 2000
run.seed = 3
switch.to = ademamix
switch.at = 1000
switch.alpha = 2.0
switch.beta3 = 0.9999
forget.t_b = 500
"""


class TestParsing:
    def test_parses_typed_values(self):
        cfg = parse_config(TOY_TEXT)
        assert cfg.testbed == "rosenbrock"
        assert cfg.testbed_params["x0"] == [-3.0, 5.0]
        assert cfg.optimizer_params["alpha"] == 9.0
        assert isinstance(cfg.optimizer_params["t_alpha"], int)
        assert cfg.lr.kind == "constant"
        assert cfg.steps == 5000 and cfg.seed == 7

    def test_round_trip_is_lossless(self):
        for text in (TOY_TEXT, MLP_TEXT):
            cfg = parse_config(text)
            assert parse_config(format_config(cfg)) == cfg

    def test_round_trip_twice_is_fixed_point(self):
        cfg = parse_config(MLP_TEXT)
        once = format_config(cfg)
        assert format_config(parse_config(once)) == once

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config(TOY_TEXT + "\n# trailing comment\n\n")
        assert cfg.steps == 5000

    def test_switch_and_forget_sections(self):
        cfg = parse_config(MLP_TEXT)
        assert cfg.switch.to == "ademamix" and cfg.switch.at == 1000
        assert cfg.switch.params == {"alpha": 2.0, "beta3": 0.9999}
        assert cfg.forget.t_b == 500


class TestDefaults:
    def test_toy_cadence_defaults_to_every_step(self):
        assert parse_config(TOY_TEXT).cadence == 1

    def test_mlp_cadence_defaults_to_ten(self):
        text = MLP_TEXT.replace("forget.t_b = 500\n", "")
        assert parse_config(text).cadence == 10

    def test_mlp_gets_default_weight_decay(self):
        cfg = parse_config(MLP_TEXT)
        assert cfg.optimizer_params["weight_decay"] == 0.1

    def test_toy_keeps_zero_weight_decay(self):
        cfg = parse_config(TOY_TEXT)
        assert "weight_decay" not in cfg.optimizer_params


class TestValidation:
    def test_missing_steps(self):
        with pytest.raises(ConfigError, match="run.steps"):
            parse_config("testbed.kind = rosenbrock\noptimizer.kind = adamw\nlr.kind = constant\nlr.value = 0.1\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(TOY_TEXT + "mystery.key = 1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(TOY_TEXT + "optimizer.gamma = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(TOY_TEXT + "run.steps = 10\n")

    def test_bad_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just words\n")

    def test_injection_step_must_precede_end(self):
        with pytest.raises(ConfigError, match="t_b"):
            parse_config(MLP_TEXT.replace("forget.t_b = 500", "forget.t_b = 2000"))

    def test_forgetting_needs_dataset_testbed(self):
        with pytest.raises(ConfigError, match="mlp"):
            parse_config(TOY_TEXT + "forget.t_b = 100\n")

    def test_schedule_horizon_exceeding_run_is_rejected(self):
        bad = TOY_TEXT.replace("optimizer.t_alpha = 0", "optimizer.t_alpha = 9000")
        with pytest.raises(ConfigError, match="t_alpha"):
            parse_config(bad)

    def test_constant_after_allows_long_horizons(self):
        ok = TOY_TEXT.replace(
            "optimizer.t_alpha = 0", "optimizer.t_alpha = 9000"
        ) + "run.constant_after = true\n"
        assert parse_config(ok).optimizer_params["t_alpha"] == 9000

    def test_switch_target_must_match_source(self):
        bad = """
testbed.kind = mlp
optimizer.kind = lion
lr.kind = constant
lr.value = 0.001
run.steps = 100
switch.to = ademamix
switch.at = 50
"""
        with pytest.raises(ConfigError, match="switch.to"):
            parse_config(bad)

    def test_negative_clip_rejected(self):
        with pytest.raises(ConfigError, match="clip"):
            parse_config(TOY_TEXT + "run.clip = -1.0\n")

    def test_unknown_optimizer(self):
        with pytest.raises(ConfigError, match="optimizer.kind"):
            parse_config(TOY_TEXT.replace("ademamix", "sgd"))


# the optimizer.* keys each kind accepted before the optimizer registry
KEYS_BEFORE_REGISTRY = {
    "adamw": {"beta1", "beta2", "weight_decay", "eps", "preseed"},
    "ademamix": {
        "beta1", "beta2", "beta3", "alpha", "weight_decay", "eps",
        "t_alpha", "t_beta3", "beta_start", "preseed",
    },
    "lion": {"alpha", "beta", "weight_decay", "preseed"},
    "admeta_s": {"beta1", "beta2"},
    "aggmo": {"betas"},
    "ad3emamix": {
        "beta1", "beta2", "beta3", "beta4", "alpha", "weight_decay", "eps",
        "t_alpha", "t_beta3", "beta_start", "preseed",
    },
}


class TestOptimizerKeys:
    def test_accepted_keys_unchanged(self):
        assert _OPTIMIZER_KEYS == KEYS_BEFORE_REGISTRY

    @pytest.mark.parametrize("kind", ["adamw", "ademamix", "ad3emamix"])
    @pytest.mark.parametrize("key", ["with_m1_buffer", "sched_offset", "slow"])
    def test_internal_keywords_are_not_config_keys(self, kind, key):
        text = (
            f"testbed.kind = rosenbrock\noptimizer.kind = {kind}\nlr.kind = constant\n"
            "lr.value = 0.001\nrun.steps = 10\n"
        )
        parse_config(text)
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(text + f"optimizer.{key} = 1\n")

    def test_mlp_weight_decay_default_follows_the_keys(self):
        for kind, keys in KEYS_BEFORE_REGISTRY.items():
            cfg = parse_config(
                f"testbed.kind = mlp\noptimizer.kind = {kind}\nlr.kind = constant\n"
                "lr.value = 0.01\nrun.steps = 10\n"
            )
            assert ("weight_decay" in cfg.optimizer_params) == ("weight_decay" in keys)

    def test_switch_keys(self):
        base = MLP_TEXT.replace("forget.t_b = 500\n", "")
        with pytest.raises(ConfigError, match="unknown key switch.beta1"):
            parse_config(base + "switch.beta1 = 0.8\n")
        back = base.replace("optimizer.kind = adamw", "optimizer.kind = ademamix")
        back = back.replace("switch.to = ademamix", "switch.to = adamw")
        with pytest.raises(ConfigError, match="unknown key switch.alpha"):
            parse_config(back)
        back = back.replace("switch.alpha = 2.0\nswitch.beta3 = 0.9999\n", "")
        assert parse_config(back).switch.params == {}
