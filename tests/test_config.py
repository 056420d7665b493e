import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emx.config import (
    _LR_KEYS,
    _OPTIMIZER_KEYS,
    _TESTBED_KEYS,
    LR_KINDS,
    ConfigError,
    ExperimentConfig,
    _format_value,
    config_from_sections,
    config_sections,
    format_config,
    parse_config,
)
from emx.harness import Experiment, _build_lr_schedule
from emx.optimizers import OPTIMIZERS, SWITCHES
from emx.testbeds import TESTBEDS

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

    def test_injection_step_leaves_fifty_steps(self):
        steps = parse_config(MLP_TEXT).steps
        ok = parse_config(MLP_TEXT.replace("forget.t_b = 500", f"forget.t_b = {steps - 50}"))
        assert ok.forget.t_b == steps - 50
        with pytest.raises(ConfigError, match=r"forget\.t_b \+ 50"):
            parse_config(MLP_TEXT.replace("forget.t_b = 500", f"forget.t_b = {steps - 49}"))

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


# the lr.* keys each kind accepted before the lr schedule registry
LR_KEYS_BEFORE_REGISTRY = {
    "constant": {"value"},
    "lr_warmup_cosine": {"eta_max", "eta_min", "warmup", "total"},
    "lr_warmup_constant_linear_decay": {
        "eta_max", "eta_min", "warmup", "decay_start", "decay_end",
    },
}


class TestLrKeys:
    def test_accepted_keys_unchanged(self):
        assert _LR_KEYS == LR_KEYS_BEFORE_REGISTRY
        assert LR_KINDS == tuple(LR_KEYS_BEFORE_REGISTRY)

    def test_unknown_lr_kind_message_lists_the_kinds(self):
        with pytest.raises(ConfigError, match=r"lr.kind must be one of \('constant', "):
            parse_config(TOY_TEXT.replace("lr.kind = constant", "lr.kind = step"))


def with_setting(text, key, value):
    """``text`` with the ``key`` line replaced by (or extended with) ``key = value``."""
    lines = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
    return "\n".join([*lines, f"{key} = {value}"]) + "\n"


class TestTypedErrors:
    @pytest.mark.parametrize(
        "base,key,value,match",
        [
            ("toy", "run.clip", "abc", "run.clip"),
            ("toy", "run.clip", "1, 2", "run.clip"),
            ("toy", "run.clip", "nan", "run.clip"),
            ("toy", "optimizer.t_alpha", "abc", "optimizer.t_alpha"),
            ("toy", "optimizer.t_beta3", "1, 2", "optimizer.t_beta3"),
            ("mlp", "lr.total", "abc", "lr.total"),
            ("toy", "run.constant_after", "7", "run.constant_after"),
            ("toy", "run.constant_after", "yes", "run.constant_after"),
            ("toy", "run.seed", "1.5", "run.seed"),
            ("toy", "run.seed", "-1", "run.seed"),
            ("toy", "optimizer.kind", "adamw, lion", "optimizer.kind"),
            ("toy", "run.bogus", "1", "unknown key run.bogus"),
            ("mlp", "forget.bogus", "1", "unknown key forget.bogus"),
        ],
    )
    def test_bad_value_is_config_error(self, base, key, value, match):
        text = {"toy": TOY_TEXT, "mlp": MLP_TEXT}[base]
        with pytest.raises(ConfigError, match=match):
            parse_config(with_setting(text, key, value))

    def test_horizon_type_checked_even_with_constant_after(self):
        text = with_setting(TOY_TEXT, "run.constant_after", "true")
        with pytest.raises(ConfigError, match="optimizer.t_alpha"):
            parse_config(with_setting(text, "optimizer.t_alpha", "abc"))

    @pytest.mark.parametrize(
        "key,value",
        [
            ("testbed.batch_size", "0"),
            ("testbed.input_dim", "0"),
            ("testbed.eval_size", "-4"),
            ("testbed.hidden", "0"),
            ("testbed.hidden", "32, 0"),
            ("testbed.batch_size", "1.5"),
        ],
    )
    def test_mlp_sizes_below_one_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config(with_setting(MLP_TEXT, key, value))

    def test_mlp_sizes_of_one_accepted(self):
        text = MLP_TEXT
        for key in ("testbed.batch_size", "testbed.input_dim", "testbed.eval_size", "testbed.hidden"):
            text = with_setting(text, key, "1")
        assert parse_config(text).testbed_params["hidden"] == 1


class TestBoolsAndInfinities:
    """A bool is no number and ``inf`` no clip: each is a config error naming its key."""

    @pytest.mark.parametrize(
        "base,key,value",
        [
            *[
                (base, key, value)
                for base, key in [
                    ("toy", "run.steps"),
                    ("toy", "run.seed"),
                    ("toy", "run.cadence"),
                    ("mlp", "switch.at"),
                    ("mlp", "forget.t_b"),
                    ("mlp", "testbed.batch_size"),
                ]
                for value in ("true", "false")
            ],
            ("toy", "run.clip", "true"),
            ("toy", "run.clip", "inf"),
            ("toy", "optimizer.preseed", "true, 1"),
        ],
    )
    def test_is_config_error_naming_the_key(self, base, key, value):
        text = with_setting({"toy": TOY_TEXT, "mlp": MLP_TEXT}[base], key, value)
        if key == "optimizer.preseed":  # a list to the parser; the optimizer reads its values
            cfg = parse_config(text)
            with pytest.raises(ConfigError, match="preseed must be finite numbers"):
                Experiment(cfg)
        else:
            with pytest.raises(ConfigError, match=re.escape(key)):
                parse_config(text)

    def test_numpy_integers_are_integers(self):
        sections = config_sections(parse_config(MLP_TEXT))
        for section, key in [("run", "steps"), ("run", "seed"), ("switch", "at")]:
            sections[section][key] = np.int64(sections[section][key])
        cfg = config_from_sections(sections)
        assert (cfg.steps, cfg.seed, cfg.switch.at) == (2000, 3, 1000)
        assert type(cfg.steps) is int and type(cfg.switch.at) is int


SETTING_VALUES = st.one_of(
    st.sampled_from([
        "abc", "1, 2", "a, b", "-1", "0", "1", "1.5", "true", "false", "none", "nan",
        "inf", "", "adamw", "ademamix", "lion", "mlp", "rosenbrock", "constant",
        "lr_warmup_cosine", "0.9, x", "1, 2.5",
    ]),
    st.integers(min_value=-10, max_value=3000).map(str),
    st.floats(allow_nan=True).map(repr),
)
KNOWN_KEYS = sorted(
    {f"testbed.{k}" for k in ("kind", "x0", "input_dim", "hidden", "batch_size", "noise",
                              "eval_size")}
    | {f"optimizer.{k}" for keys in _OPTIMIZER_KEYS.values() for k in keys | {"kind"}}
    | {f"lr.{k}" for keys in _LR_KEYS.values() for k in keys | {"kind"}}
    | {f"run.{k}" for k in ("steps", "seed", "cadence", "clip", "constant_after", "out")}
    | {"switch.to", "switch.at", "switch.alpha", "switch.beta3", "forget.t_b"}
)


def settings_of(text):
    pairs = (line.split("=", 1) for line in text.splitlines() if "=" in line)
    return {key.strip(): value.strip() for key, value in pairs}


class TestParseFuzz:
    @given(
        st.sampled_from([TOY_TEXT, MLP_TEXT]),
        st.dictionaries(st.sampled_from(KNOWN_KEYS), SETTING_VALUES, max_size=4),
    )
    @settings(max_examples=400, deadline=None)
    def test_mutated_config_parses_or_raises_config_error(self, base, changes):
        lines = {**settings_of(base), **changes}
        text = "".join(f"{key} = {value}\n" for key, value in lines.items())
        try:
            assert isinstance(parse_config(text), ExperimentConfig)
        except ConfigError:
            pass

    @given(st.text())
    @settings(max_examples=200, deadline=None)
    def test_any_text_parses_or_raises_config_error(self, text):
        try:
            parse_config(text)
        except ConfigError:
            pass


def format_config_before_section_view(cfg):
    """The hand-written renderer that :func:`format_config` replaced (reference)."""
    lines = [f"testbed.kind = {cfg.testbed}"]
    for key in sorted(cfg.testbed_params):
        lines.append(f"testbed.{key} = {_format_value(cfg.testbed_params[key])}")
    lines.append(f"optimizer.kind = {cfg.optimizer}")
    for key in sorted(cfg.optimizer_params):
        lines.append(f"optimizer.{key} = {_format_value(cfg.optimizer_params[key])}")
    lines.append(f"lr.kind = {cfg.lr.kind}")
    for key in sorted(cfg.lr.params):
        lines.append(f"lr.{key} = {_format_value(cfg.lr.params[key])}")
    lines.append(f"run.steps = {cfg.steps}")
    lines.append(f"run.seed = {cfg.seed}")
    lines.append(f"run.cadence = {cfg.cadence}")
    if cfg.clip is not None:
        lines.append(f"run.clip = {_format_value(cfg.clip)}")
    if cfg.constant_after:
        lines.append("run.constant_after = true")
    if cfg.out is not None:
        lines.append(f"run.out = {cfg.out}")
    if cfg.switch is not None:
        lines.append(f"switch.to = {cfg.switch.to}")
        lines.append(f"switch.at = {cfg.switch.at}")
        for key in sorted(cfg.switch.params):
            lines.append(f"switch.{key} = {_format_value(cfg.switch.params[key])}")
    if cfg.forget is not None:
        lines.append(f"forget.t_b = {cfg.forget.t_b}")
    return "\n".join(lines) + "\n"


FLOATS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
HORIZONS = ("t_alpha", "t_beta3", "total", "decay_end")


@st.composite
def valid_sections(draw):
    """Section views that :func:`config_from_sections` accepts."""
    testbed = draw(st.sampled_from(["rosenbrock", "valley", "mlp"]))
    kind = draw(st.sampled_from(sorted(OPTIMIZERS)))
    lr_kind = draw(st.sampled_from(LR_KINDS))
    steps = draw(st.integers(min_value=0, max_value=5000))

    def params(keys):
        chosen = draw(st.lists(st.sampled_from(sorted(keys)), unique=True)) if keys else []
        return {
            k: draw(st.integers(0, steps)) if k in HORIZONS
            else draw(st.lists(FLOATS, min_size=2, max_size=3)) if k in ("preseed", "x0")
            else draw(FLOATS)
            for k in chosen
        }

    if testbed == "mlp":
        sizes = st.integers(min_value=1, max_value=512)
        tb = {k: draw(sizes) for k in draw(st.lists(
            st.sampled_from(["input_dim", "batch_size", "eval_size"]), unique=True))}
        if draw(st.booleans()):
            tb["hidden"] = draw(st.one_of(sizes, st.lists(sizes, min_size=2, max_size=3)))
        if draw(st.booleans()):
            tb["noise"] = draw(FLOATS)
    else:
        tb = params({"x0"})
    run = {"steps": steps}
    for key, strategy in (
        ("seed", st.integers(min_value=0, max_value=2**32)),
        ("cadence", st.integers(min_value=1, max_value=50)),
        ("clip", st.floats(min_value=1e-6, max_value=1e6)),
        ("constant_after", st.booleans()),
        ("out", st.sampled_from(["run.csv", "out/run.jsonl"])),
    ):
        if draw(st.booleans()):
            run[key] = draw(strategy)
    sections = {
        "testbed": {"kind": testbed, **tb},
        "optimizer": {"kind": kind, **params(_OPTIMIZER_KEYS[kind])},
        "lr": {"kind": lr_kind, **params(_LR_KEYS[lr_kind])},
        "run": run,
    }
    target = SWITCHES.get(OPTIMIZERS[kind])
    if target is not None and draw(st.booleans()):
        switch_keys = _OPTIMIZER_KEYS[target.variant] - _OPTIMIZER_KEYS[kind]
        sections["switch"] = {
            "to": target.variant, "at": draw(st.integers(0, steps)), **params(switch_keys),
        }
    if testbed == "mlp" and steps >= 51 and draw(st.booleans()):
        sections["forget"] = {"t_b": draw(st.integers(1, steps - 50))}
    return sections


class TestSectionView:
    def test_parsed_configs_keep_their_sections(self):
        for text in (TOY_TEXT, MLP_TEXT):
            cfg = parse_config(text)
            assert config_from_sections(config_sections(cfg)) == cfg
            assert format_config(cfg) == format_config_before_section_view(cfg)

    def test_key_order_is_format_order(self):
        cfg = parse_config(MLP_TEXT)
        keys = [f"{s}.{k}" for s, names in config_sections(cfg).items() for k in names]
        assert keys == [line.split(" = ")[0] for line in format_config(cfg).splitlines()]

    def test_a_config_is_its_frozen_section_view(self):
        cfg = parse_config(MLP_TEXT)
        assert [f.name for f in dataclasses.fields(cfg)] == ["sections"]
        assert cfg.sections == config_sections(cfg)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.steps = 5
        with pytest.raises(AttributeError):
            cfg.lr.kind = "step"
        with pytest.raises(AttributeError):
            cfg.switch.at = 5

    def test_config_sections_is_a_copy_to_edit(self):
        cfg = parse_config(MLP_TEXT)
        text = format_config(cfg)
        sections = config_sections(cfg)
        sections["run"]["steps"] = 7
        sections["switch"].clear()
        sections["lr"] = {}
        assert format_config(cfg) == text and cfg == parse_config(text)
        assert (cfg.steps, cfg.switch.at) == (2000, 1000)

    @given(valid_sections())
    @example({"testbed": {"kind": "valley"}, "optimizer": {"kind": "ademamix", "beta_start": None},
              "lr": {"kind": "constant", "value": 0.1}, "run": {"steps": 3}})
    @settings(max_examples=300, deadline=None)
    def test_sections_round_trip(self, sections):
        cfg = config_from_sections(sections)
        assert config_from_sections(config_sections(cfg)) == cfg
        assert format_config(cfg) == format_config_before_section_view(cfg)
        assert parse_config(format_config(cfg)) == cfg


TESTBED_KEYS_BEFORE_REGISTRY = {
    "rosenbrock": {"x0"},
    "valley": {"x0"},
    "mlp": {"input_dim", "hidden", "batch_size", "noise", "eval_size"},
}


class TestTestbedKeys:
    def test_accepted_keys_unchanged(self):
        assert {kind: set(keys) for kind, keys in _TESTBED_KEYS.items()} == (
            TESTBED_KEYS_BEFORE_REGISTRY
        )

    def test_defaults_are_the_old_harness_constants(self):
        assert _TESTBED_KEYS["rosenbrock"]["x0"] == (-3.0, 5.0)
        assert _TESTBED_KEYS["valley"]["x0"] == (0.3, 1.5)
        mlp = _TESTBED_KEYS["mlp"]
        assert (mlp["input_dim"], list(mlp["hidden"]), mlp["batch_size"], mlp["noise"],
                mlp["eval_size"]) == (16, [64, 64], 32, 0.05, 256)

    def test_factories_apply_the_defaults(self):
        for kind, x0 in (("rosenbrock", [-3.0, 5.0]), ("valley", [0.3, 1.5])):
            testbed, dataset, theta0 = TESTBEDS[kind](0)
            assert dataset is None and theta0.tolist() == x0 and testbed.dim == 2
        net, data, theta0 = TESTBEDS["mlp"](5)
        assert net.layer_dims == (16, 64, 64, 1) and theta0.shape == (net.dim,)
        assert (data.input_dim, data.batch_size, data.seed, data.noise, data.eval_size) == (
            16, 32, 5, 0.05, 256
        )

    @pytest.mark.parametrize(
        "base,key,value",
        [
            ("toy", "testbed.x0", "abc"),
            ("toy", "testbed.x0", "a, b"),
            ("toy", "testbed.x0", "none"),
            ("toy", "testbed.x0", "true, 1"),
            ("mlp", "testbed.noise", "abc"),
            ("mlp", "testbed.noise", "none"),
            ("mlp", "testbed.noise", "true"),
            ("mlp", "testbed.noise", "0.1, 0.2"),
            ("mlp", "testbed.batch_size", "1, 2"),
            ("mlp", "testbed.eval_size", "1, 2"),
            ("mlp", "testbed.input_dim", "1, 2"),
            ("mlp", "testbed.hidden", "true"),
            ("mlp", "testbed.hidden", "16.0"),
        ],
    )
    def test_bad_value_is_config_error_naming_its_key(self, base, key, value):
        text = {"toy": TOY_TEXT, "mlp": MLP_TEXT}[base]
        with pytest.raises(ConfigError, match=key):
            parse_config(with_setting(text, key, value))

    def test_ints_accepted_for_float_keys(self):
        cfg = parse_config(with_setting(TOY_TEXT, "testbed.x0", "-3, 5"))
        assert cfg.testbed_params == {"x0": [-3, 5]}
        cfg = parse_config(with_setting(MLP_TEXT, "testbed.noise", "0"))
        assert cfg.testbed_params["noise"] == 0

    def test_x0_length_is_checked_when_the_experiment_is_built(self):
        cfg = parse_config(with_setting(TOY_TEXT, "testbed.x0", "1, 2, 3"))
        with pytest.raises(ConfigError, match="initial point"):
            Experiment(cfg)


class TestExperimentFuzz:
    @given(st.sampled_from([TOY_TEXT, MLP_TEXT]), st.sampled_from(KNOWN_KEYS), SETTING_VALUES)
    @example(TOY_TEXT, "testbed.x0", "abc")
    @example(MLP_TEXT, "testbed.noise", "abc")
    @example(MLP_TEXT, "testbed.noise", "none")
    @example(MLP_TEXT, "testbed.batch_size", "1, 2")
    @example(MLP_TEXT, "lr.warmup", "inf")
    @settings(max_examples=300, deadline=None)
    def test_one_hostile_key_builds_or_raises_config_error(self, base, key, value):
        try:
            cfg = parse_config(with_setting(base, key, value))
            assert isinstance(Experiment(cfg), Experiment)
        except ConfigError:
            pass


DECAY_TEXT = TOY_TEXT.replace(
    "lr.kind = constant\nlr.value = 0.001\n",
    "lr.kind = lr_warmup_constant_linear_decay\nlr.eta_max = 0.01\nlr.eta_min = 0.0\n"
    "lr.warmup = 10\nlr.decay_start = 100\nlr.decay_end = 200\n",
)


class TestWholeNumberHorizons:
    @pytest.mark.parametrize(
        "base,key,value",
        [
            ("mlp", "lr.warmup", "1.5"),
            ("mlp", "lr.warmup", "inf"),
            ("mlp", "lr.total", "1999.5"),
            ("decay", "lr.decay_start", "100.5"),
            ("decay", "lr.decay_end", "200.5"),
            ("toy", "optimizer.t_alpha", "2.7"),
            ("toy", "optimizer.t_beta3", "2.7"),
            ("mlp", "switch.t_alpha", "2.7"),
            ("mlp", "switch.t_beta3", "2.7"),
        ],
    )
    def test_fractional_horizon_is_config_error(self, base, key, value):
        text = {"toy": TOY_TEXT, "mlp": MLP_TEXT, "decay": DECAY_TEXT}[base]
        cfg = parse_config(with_setting(text, key, value))
        with pytest.raises(ConfigError, match=f"{key.split('.')[1]} must be a whole number"):
            Experiment(cfg)

    def test_integral_floats_accepted(self):
        schedule = _build_lr_schedule(parse_config(with_setting(MLP_TEXT, "lr.warmup", "100.0")))
        assert schedule.warmup == 100 and type(schedule.warmup) is int
        exp = Experiment(parse_config(with_setting(TOY_TEXT, "optimizer.t_alpha", "100.0")))
        assert exp.opt.t_alpha == 100 and type(exp.opt.t_alpha) is int
        assert _build_lr_schedule(parse_config(DECAY_TEXT)).decay_end == 200


class TestRunOut:
    @pytest.mark.parametrize("value", ["987", "1.5", "true", "a.csv, b.csv"])
    def test_non_string_is_config_error(self, value):
        with pytest.raises(ConfigError, match="run.out"):
            parse_config(with_setting(TOY_TEXT, "run.out", value))

    def test_path_accepted(self):
        assert parse_config(with_setting(TOY_TEXT, "run.out", "out/run.csv")).out == "out/run.csv"


class TestSwitchHorizons:
    @pytest.mark.parametrize("key", ["switch.t_alpha", "switch.t_beta3"])
    def test_longer_than_the_run_is_refused(self, key):
        with pytest.raises(ConfigError, match=f"{key} = 90000 exceeds run.steps = 2000"):
            parse_config(with_setting(MLP_TEXT, key, "90000"))

    @pytest.mark.parametrize("key", ["switch.t_alpha", "switch.t_beta3"])
    def test_constant_after_allows_it(self, key):
        text = with_setting(with_setting(MLP_TEXT, key, "90000"), "run.constant_after", "true")
        assert parse_config(text).switch.params[key.split(".")[1]] == 90000

    def test_within_the_run_is_accepted(self):
        cfg = parse_config(with_setting(MLP_TEXT, "switch.t_alpha", "2000"))
        assert cfg.switch.params["t_alpha"] == 2000


class TestNegativeHorizons:
    @pytest.mark.parametrize(
        "base,key",
        [
            (TOY_TEXT, "optimizer.t_alpha"),
            (TOY_TEXT, "optimizer.t_beta3"),
            (MLP_TEXT, "switch.t_alpha"),
            (MLP_TEXT, "switch.t_beta3"),
            (MLP_TEXT, "lr.total"),
        ],
    )
    def test_is_refused_naming_the_key(self, base, key):
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be >= 0, got -3$"):
            parse_config(with_setting(base, key, "-3"))


HUGE = "9" * 400
HUGE_KEYS = [
    key
    for key in KNOWN_KEYS
    if not key.endswith((".kind", ".to", ".constant_after", ".out")) and key != "run.seed"
]


class TestHugeIntegers:
    """An int beyond float64 range is a ConfigError naming its key, never an OverflowError."""

    @pytest.mark.parametrize("key", HUGE_KEYS)
    @pytest.mark.parametrize("base", [TOY_TEXT, MLP_TEXT], ids=["toy", "mlp"])
    def test_is_config_error_naming_the_key(self, base, key):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            Experiment(parse_config(with_setting(base, key, HUGE)))

    @pytest.mark.parametrize("key", ["testbed.x0", "optimizer.preseed", "testbed.hidden"])
    def test_in_a_list(self, key):
        base = MLP_TEXT if key == "testbed.hidden" else TOY_TEXT
        with pytest.raises(ConfigError, match=key):
            parse_config(with_setting(base, key, f"1, {HUGE}"))

    def test_too_many_digits_to_parse(self):
        with pytest.raises(ConfigError, match="lr.value"):
            parse_config(with_setting(TOY_TEXT, "lr.value", "9" * 5000))

    def test_a_huge_seed_is_still_a_seed(self):
        assert parse_config(with_setting(TOY_TEXT, "run.seed", HUGE)).seed == int(HUGE)

    def test_largest_float_range_int_accepted(self):
        cfg = parse_config(with_setting(TOY_TEXT, "lr.value", str(int(1.7e308))))
        assert cfg.lr.params["value"] == int(1.7e308)
