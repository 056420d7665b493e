"""Alternated A/B pairs of the emx benchmark between two checkouts.

    python3 tools/ab_pairs.py PARENT CHANGE --workload toy_sweep,wide_state \
        --seeds 1-10 --seconds 20 --claimed toy_sweep.steps_per_s \
        --describe "what changed" --out BENCH_20.json [--section pairs]

For each seed ``i`` and each workload ``W`` of the comma list, in its order,
it runs ``python3 perfbench/run.py --workload W --seed i --seconds S`` in
each checkout, one run after the other, with no ``PYTHONPATH``: the parent
first for the 1st, 3rd, ... seed of the list, the change first for the 2nd,
4th, ... (so the sides alternate whatever the seeds are). So the two runs of
a pair are back to back, however many workloads a seed runs. A repeated
seed, and ``all`` beside another workload (whose metrics would share keys),
are refused. It writes the end-to-end metrics of ``BENCHMARK.json`` in the
layout of ``BENCH_15.json``: per metric (``<workload>.<metric>``) the runs of each
side in seed order, their median and quartiles (linear interpolation, as
``numpy.percentile``), and the number of pairs the change won; plus the ``env`` stamp of each side's
first run, whether every run was correct and the failed operations.
``--section`` puts the results under that key of ``--out`` (kept if it
exists) instead of at its top level.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
WORKLOADS = ("toy_sweep", "mlp_train", "wide_state", "all")


def seed_list(text: str) -> list[int]:
    """``"1-10"`` or ``"1,4,7"`` as a list of distinct seeds."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    seeds = [int(s) for s in text.split(",")]
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"seed repeated in {text}")
    return seeds


def workload_list(text: str) -> list[str]:
    """``"toy_sweep,wide_state"`` as a list of distinct workloads."""
    names = text.split(",")
    if not set(names) <= set(WORKLOADS) or len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"want distinct names among {', '.join(WORKLOADS)}")
    if "all" in names and len(names) > 1:
        raise argparse.ArgumentTypeError("all runs every workload: give it alone")
    return names


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    """One benchmark run in ``tree``: its result object and its ``env`` line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, env=env, capture_output=True, text=True, timeout=3600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{tree} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    stamp = next((line for line in lines if line.startswith("env ")), None)
    return json.loads(lines[-1]), stamp


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", type=workload_list, required=True,
                        help="e.g. toy_sweep or toy_sweep,wide_state")
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--claimed", default=None, help="the metric the change claims, if any")
    parser.add_argument("--describe", default="", help="one line on what the change does")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--section", default=None)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("need at least two seeds for quartiles")

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    trees = dict(zip(SIDES, (args.parent, args.change)))
    results = {w: {side: [] for side in SIDES} for w in args.workload}
    stamps = {}
    for position, seed in enumerate(args.seeds):
        for workload in args.workload:
            for side in SIDES[::-1] if position % 2 else SIDES:
                result, stamp = run_once(trees[side], workload, seed, args.seconds)
                results[workload][side].append(result)
                stamps.setdefault(side, stamp)
                print(f"seed {seed} {workload} {side}: correct={result['correct']} "
                      f"failed={result['failed']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      flush=True)

    metrics = {}
    for workload, sides in results.items():
        for key, first in sides["parent"][0]["metrics"].items():
            name = key if workload == "all" else f"{workload}.{key}"
            runs = {side: [r["metrics"][key]["value"] for r in sides[side]] for side in SIDES}
            sign = 1 if better[key.rsplit(".", 1)[-1]] == "higher" else -1
            metrics[name] = {
                "unit": first["unit"],
                **{side: summary(runs[side]) for side in SIDES},
                "change_wins": sum(
                    sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"])
                ),
                "runs": runs,
            }
    every = [r for sides in results.values() for side in SIDES for r in sides[side]]
    record = {
        "change": args.describe,
        "command": "; ".join(f"python3 perfbench/run.py --workload {w} --seed i "
                             f"--seconds {args.seconds:g}" for w in args.workload),
        "pairs": len(args.seeds),
        "seeds": args.seeds,
        "order": "parent first for the 1st, 3rd, ... seed of the list, change first for "
                 "the 2nd, 4th, ...; within a seed, each workload's pair back to back, "
                 "in the order given",
        "seconds_per_workload": args.seconds,
        "trees": "separate checkouts, run without PYTHONPATH",
        "claimed": args.claimed,
        "all_runs_correct": all(r["correct"] for r in every),
        "failed_operations": sum(r["failed"] for r in every),
        "quartiles": "numpy.percentile, linear interpolation, over the runs of each side; "
                     "runs are listed in seed order",
        "env": {side[0]: stamps[side] for side in SIDES},
        "metrics": metrics,
    }
    if args.section is None:
        out = record
    else:
        out = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        out[args.section] = record
    args.out.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
