"""The README's examples work as written: every ``ini`` block parses and builds
an :class:`~emx.harness.Experiment`, and every ``python`` block runs."""

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
