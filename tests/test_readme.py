"""The README's examples work as written: every ``ini`` block parses and builds
an :class:`~emx.harness.Experiment`, every ``python`` block runs, and every
backticked ``emx.<module>[.<name>]`` it names exists."""

import importlib
import re
from pathlib import Path

import pytest

from emx.config import parse_config
from emx.harness import Experiment

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


INI, PYTHON = _blocks("ini"), _blocks("python")


def test_the_readme_has_both_kinds_of_example():
    assert INI and PYTHON


@pytest.mark.parametrize("text", INI, ids=range(len(INI)))
def test_ini_block_builds_an_experiment(text):
    exp = Experiment(parse_config(text))
    assert exp.cfg.testbed == "mlp" and exp.opt.t == 0


@pytest.mark.parametrize("code", PYTHON, ids=range(len(PYTHON)))
def test_python_block_runs(code):
    exec(compile(code, "README.md", "exec"), {})


# `emx.numerics`, `emx.optimizers.OPTIMIZERS`, `emx.schedules.typed(name, ...)`
NAMES = sorted(set(re.findall(r"`(emx(?:\.\w+)+)[`(]", README)))


def test_the_readme_names_emx_modules():
    assert "emx.cli" in NAMES and "emx.optimizers.OPTIMIZERS" in NAMES


@pytest.mark.parametrize("dotted", NAMES)
def test_each_emx_name_exists(dotted):
    module, *attrs = dotted.split(".")[1:]
    found = importlib.import_module(f"emx.{module}")
    for attr in attrs:
        found = getattr(found, attr)
