"""tools/ab_pairs.py against two stub checkouts whose benchmark prints fixed numbers."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent

# a stand-in for perfbench/run.py: steps_per_s is the tree's base plus the
# seed (plus 1000 for wide_state), and every run appends "<tree> <workload>
# <seed>" to ../order.log
STUB = """
import json, sys
from pathlib import Path
here = Path.cwd()
seed = int(sys.argv[sys.argv.index("--seed") + 1])
workload = sys.argv[sys.argv.index("--workload") + 1]
with open(here.parent / "order.log", "a") as fh:
    fh.write(f"{here.name} {workload} {seed}\\n")
base = {"parent": 100.0, "change": 110.0}[here.name] + 1000.0 * (workload == "wide_state")
print("env " + json.dumps({"tree": here.name, "seed": seed}))
print(json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": {
    "steps_per_s": {"value": base + seed, "unit": "1/s"},
    "setup_s": {"value": 0.5 if here.name == "parent" else 0.4, "unit": "s"},
    "peak_rss_mb": {"value": 40.0, "unit": "MB"}}}))
"""


def stub_trees(tmp_path):
    for name in ("parent", "change"):
        tree = tmp_path / name
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text(STUB)
        (tree / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())


def test_alternated_pairs_written_in_the_bench_layout(tmp_path):
    stub_trees(tmp_path)
    out = tmp_path / "BENCH.json"
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_pairs.py"), str(tmp_path / "parent"),
         str(tmp_path / "change"), "--workload", "toy_sweep,wide_state", "--seeds", "1-4",
         "--seconds", "1", "--claimed", "toy_sweep.steps_per_s", "--out", str(out),
         "--section", "toy"],
        check=True, capture_output=True, timeout=120,
    )
    order = (tmp_path / "order.log").read_text().split("\n")[:-1]
    # each workload's pair back to back within its seed
    sides = {1: ("parent", "change"), 0: ("change", "parent")}
    assert order == [f"{side} {w} {seed}" for seed in range(1, 5)
                     for w in ("toy_sweep", "wide_state") for side in sides[seed % 2]]
    bench = json.loads(out.read_text())["toy"]
    assert bench["pairs"] == 4 and bench["seeds"] == [1, 2, 3, 4]
    assert bench["all_runs_correct"] and bench["failed_operations"] == 0
    assert json.loads(bench["env"]["p"][4:]) == {"tree": "parent", "seed": 1}
    steps = bench["metrics"]["toy_sweep.steps_per_s"]
    assert steps["runs"] == {"parent": [101.0, 102.0, 103.0, 104.0],
                             "change": [111.0, 112.0, 113.0, 114.0]}
    q1, median, q3 = np.percentile(steps["runs"]["parent"], [25, 50, 75])
    assert steps["parent"] == {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}
    assert steps["change_wins"] == 4
    wide = bench["metrics"]["wide_state.steps_per_s"]["runs"]
    assert wide == {"parent": [1101.0, 1102.0, 1103.0, 1104.0],
                    "change": [1111.0, 1112.0, 1113.0, 1114.0]}
    assert bench["command"] == "; ".join(
        f"python3 perfbench/run.py --workload {w} --seed i --seconds 1"
        for w in ("toy_sweep", "wide_state")
    )
    assert bench["metrics"]["toy_sweep.setup_s"]["change_wins"] == 4  # lower is better
    assert bench["metrics"]["toy_sweep.peak_rss_mb"]["change_wins"] == 0  # ties count for neither


def test_the_sides_alternate_by_position_in_the_seed_list(tmp_path):
    stub_trees(tmp_path)
    out = tmp_path / "BENCH.json"
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_pairs.py"), str(tmp_path / "parent"),
         str(tmp_path / "change"), "--workload", "mlp_train", "--seeds", "1,3,5,8,7",
         "--seconds", "1", "--out", str(out)],
        check=True, capture_output=True, timeout=120,
    )
    order = (tmp_path / "order.log").read_text().split("\n")[:-1]
    firsts = ["parent", "change", "parent", "change", "parent"]
    assert order == [f"{side} mlp_train {seed}" for seed, first in zip((1, 3, 5, 8, 7), firsts)
                     for side in (first, "change" if first == "parent" else "parent")]
    bench = json.loads(out.read_text())
    assert bench["seeds"] == [1, 3, 5, 8, 7]
    assert bench["order"].startswith("parent first for the 1st, 3rd, ... seed of the list, "
                                     "change first for the 2nd, 4th, ...")
    assert bench["metrics"]["mlp_train.steps_per_s"]["runs"]["parent"] == [
        101.0, 103.0, 105.0, 108.0, 107.0]


def test_a_workload_list_refuses_unknown_and_repeated_names():
    for text in ("toy_sweep,nope", "toy_sweep,toy_sweep", ""):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "ab_pairs.py"), "a", "b", "--workload", text,
             "--seeds", "1-2", "--out", "x.json"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2 and "want distinct names" in proc.stderr


@pytest.mark.parametrize(
    "workload, seeds, message",
    [
        ("all,toy_sweep", "1-2", "all runs every workload: give it alone"),
        ("mlp_train,all", "1-2", "all runs every workload: give it alone"),
        ("toy_sweep", "1,1", "seed repeated in 1,1"),
        ("toy_sweep", "1,2,3,2", "seed repeated in 1,2,3,2"),
    ],
)
def test_a_list_that_would_repeat_a_pair_or_a_key_is_refused(workload, seeds, message):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_pairs.py"), "a", "b", "--workload", workload,
         "--seeds", seeds, "--out", "x.json"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and message in proc.stderr
