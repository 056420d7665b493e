"""The README's examples work as written: every ``ini`` block parses and builds
an :class:`~emx.harness.Experiment`, every ``python`` block runs, and every
backticked ``emx.<module>[.<name>]`` it names exists."""

import ast
import importlib
import re
from pathlib import Path

import pytest

from emx.config import parse_config
from emx.harness import Experiment
from emx.optimizers import OPTIMIZERS
from emx.schedules import LR_SCHEDULES
from emx.testbeds import TESTBEDS

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


# the README's lists of kinds and its tables of defaults and slots follow the
# registries; values are compared parsed (the README writes eps=1e-8)
KIND_LISTS = {"testbed": TESTBEDS, "optimizer": OPTIMIZERS, "lr": LR_SCHEDULES}


def _table(header: str) -> list:
    """The cells of each row of the README table under ``header``."""
    body = README.split(header + "\n|---", 1)[1].split("\n\n", 1)[0]
    return [row.strip("| ").split(" | ") for row in body.splitlines()[1:]]


def _names(cell: str) -> list:
    return re.findall(r"`(\w+)`", cell)


@pytest.mark.parametrize("section", sorted(KIND_LISTS))
def test_each_kind_list_names_the_registry_in_order(section):
    (listed,) = re.findall(rf"^# {section}\.kind: (.*)$", README, flags=re.MULTILINE)
    assert listed.split(" | ") == list(KIND_LISTS[section])


def test_the_defaults_table_matches_each_class():
    rows = _table("| kind | class | `defaults` |")
    assert [_names(kind) for kind, _, _ in rows] == [[kind] for kind in OPTIMIZERS]
    for kind, name, defaults in rows:
        cls = OPTIMIZERS[kind.strip("`")]
        call = ast.parse(f"f({defaults.strip('`')})", mode="eval").body
        assert _names(name) == [cls.__name__]
        assert [(kw.arg, ast.literal_eval(kw.value)) for kw in call.keywords] == list(
            cls.defaults.items()
        )


def test_the_slot_names_table_matches_each_class():
    rows = dict(_table("| class | `slot_names` |"))
    assert sorted(rows) == sorted(f"`{cls.__name__}`" for cls in OPTIMIZERS.values())
    for cls in OPTIMIZERS.values():
        cell = rows[f"`{cls.__name__}`"]
        if " ... " in cell:  # `m0` ... `m{K-1}`, one per beta
            assert cell == "`m0` ... `m{K-1}`, one per beta"
            for k in (1, 3, 11):
                assert cls(1, betas=[i / 11 for i in range(k)]).slot_names == tuple(
                    f"m{i}" for i in range(k)
                )
            continue
        full, _, lean = cell.partition("; lean")
        assert _names(full) == list(cls(1).slot_names)
        if lean:  # lean (`beta1 == 0`, ...): its slots
            assert _names(lean.rpartition(":")[2]) == list(cls(1, beta1=0.0).slot_names)
