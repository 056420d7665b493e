"""emx benchmark: run one workload, check its output bytes, print its metrics.

    python3 perfbench/run.py --workload toy_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in a process of its own. A run first does one round at
the golden seed and compares every emitted byte string with
``golden.json``, then repeats rounds at ``--seed`` for ``--seconds``. At the
golden seed those rounds are compared with ``golden.json`` too; at any other
seed every round must repeat the bytes of the first. Between rounds it
measures ``setup_s`` in fresh child processes (interpreter start to the
first optimizer step). With ``--trace 1`` untraced rounds alternate with
rounds that have spans around emx's public calls, and the per-layer metrics
are printed instead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import bench_env

bench_env.prepare()

SETUP_PROBES = 9


class Checker:
    """Counts operations checked and failed against expected digests.

    With no expected digests, the first round checked becomes the reference.
    """

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, out) -> None:
        if self.expected is None:
            self.expected = out.artifacts
        else:
            for name in sorted(out.artifacts.keys() | self.expected.keys()):
                self.attempted += 1
                got, want = out.artifacts.get(name), self.expected.get(name)
                if got != want:
                    self.failed += 1
                    self.problems.append(f"{name}: got {got}, expected {want}")
        for name, ok in out.checks.items():
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.problems.append(f"{name}: not bit-exact")


def run_rounds(workload, state, clock, seconds: float, checker: Checker, min_rounds: int,
               between=None):
    """Repeat rounds for at least ``seconds``; returns each round's Output.

    ``between(fraction)`` is called after every round with the share of
    ``seconds`` used so far.
    """
    from workloads import Output

    outs = []
    start = time.perf_counter()
    while len(outs) < min_rounds or time.perf_counter() - start < seconds:
        out = Output(clock)
        out.steps = workload.round(state, out)
        checker.check(out)
        outs.append(out)
        if between is not None:
            between((time.perf_counter() - start) / seconds)
    return outs


def best_round_s(outs) -> float:
    """Seconds of a round put together from each unit's fastest repeat.

    On a shared machine other tenants slow every process by up to 1.5x for
    seconds at a time. Each unit only has to meet one quiet moment across
    the rounds, so this is steady where a mean or median over rounds is not.
    """
    return sum(min(out.unit_ns[name] for out in outs) for name in outs[0].unit_ns) / 1e9


def probe_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its first optimizer step."""
    start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=bench_env.ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return (int(proc.stdout.split()[-1]) - start) / 1e9


def _spread(values) -> str:
    return f"n={len(values)} min={min(values):.6g} max={max(values):.6g}"


def run_workload(args, spec: dict) -> dict:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    print("env " + json.dumps(bench_env.stamp(args.seed), sort_keys=True), flush=True)
    with open(bench_env.ROOT / "perfbench" / "golden.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    clock = workloads.Clock()
    checkers = [Checker(golden["workloads"][workload.name])]
    state = workload.setup(golden["seed"])
    run_rounds(workload, state, clock, 0.0, checkers[0], min_rounds=1)
    if args.seed != golden["seed"]:
        checkers.append(Checker(None))
        state = workload.setup(args.seed)

    if args.trace:
        import tracing

        # untraced and traced rounds alternate, so both meet the same spells
        # of a shared machine and their ratio is the tracing overhead
        tracer = tracing.Tracer(clock)
        untraced, traced = [], []
        start = time.perf_counter()
        while len(traced) < 2 or time.perf_counter() - start < args.seconds:
            untraced += run_rounds(workload, state, clock, 0.0, checkers[-1], 1)
            tracer.install()
            try:
                traced += run_rounds(workload, state, clock, 0.0, checkers[-1], 1)
            finally:
                tracer.uninstall()
        copy_dim = max(
            int(n.rsplit(".", 1)[1]) for n in tracer.stats if n.startswith("optimizers.step.")
        )
        metrics = tracing.layer_metrics(
            tracer,
            rounds=len(traced),
            traced_ns=sum(sum(out.unit_ns.values()) for out in traced),
            overhead_ratio=best_round_s(traced) / best_round_s(untraced),
            copy_rate=tracing.copy_gbps(copy_dim, clock),
        )
        if tracer.missing:
            print("absent boundaries (metrics read 0): " + ", ".join(sorted(tracer.missing)))
        print(f"traced rounds: {len(traced)}, untraced rounds: {len(untraced)}; "
              f"copy bandwidth measured at dim {copy_dim}")
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        # probes are spread over the run, between rounds, so that they meet
        # the machine's slow and quiet spells in the same share as the rounds
        setup = []

        def between(fraction):
            if len(setup) < SETUP_PROBES and fraction >= len(setup) / SETUP_PROBES:
                setup.append(probe_setup(workload.name, args.seed))

        outs = run_rounds(workload, state, clock, args.seconds, checkers[-1], 2, between)
        while len(setup) < SETUP_PROBES:
            setup.append(probe_setup(workload.name, args.seed))
        metrics = {
            "steps_per_s": outs[0].steps / best_round_s(outs),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        rates = [out.steps / (sum(out.unit_ns.values()) / 1e9) for out in outs]
        print(f"steps_per_s from each unit's fastest of {len(outs)} rounds; whole rounds: "
              f"median={statistics.median(rates):.6g} {_spread(rates)}")
        print(f"setup_s median of fresh processes: {_spread(setup)}")
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    if sorted(metrics) != sorted(names):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    for name in names:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    attempted = sum(c.attempted for c in checkers)
    failed = sum(c.failed for c in checkers)
    for problem in [p for c in checkers for p in c.problems][:20]:
        print(f"MISMATCH {problem}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} operations)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }


def run_all(args) -> int:
    """Every workload, each in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("toy_sweep", "mlp_train", "wide_state"):
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            timeout=900,
            cwd=bench_env.ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("toy_sweep", "mlp_train", "wide_state", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        bench_env.import_emx()
    except ImportError as exc:
        print(f"cannot import emx from {bench_env.SRC}: {exc}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        import workloads

        workloads.WORKLOADS[args.workload].setup(args.seed)
        print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
        return 0

    with open(bench_env.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run_workload(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
