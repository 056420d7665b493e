"""Pin the SHA-256 of every byte string each workload emits at the golden seed.

    python3 perfbench/pin_golden.py

Writes ``perfbench/golden.json``. Run it only on a commit whose output is
known to be right: every later run is compared with these digests. It runs
two rounds per workload and refuses to pin when they disagree or when a
bit-exactness check fails. The MLP digests depend on the BLAS build, so the
file records the environment it was made in.
"""

from __future__ import annotations

import json
import sys

import bench_env

bench_env.prepare()


def main() -> int:
    bench_env.import_emx()
    import workloads

    clock = workloads.Clock()
    pinned = {}
    for name, workload in workloads.WORKLOADS.items():
        state = workload.setup(workloads.GOLDEN_SEED)
        outs = []
        for _ in range(2):
            out = workloads.Output(clock)
            workload.round(state, out)
            outs.append(out)
        if outs[0].artifacts != outs[1].artifacts:
            print(f"{name}: two rounds emitted different bytes", file=sys.stderr)
            return 1
        failed = [check for out in outs for check, ok in out.checks.items() if not ok]
        if failed:
            print(f"{name}: checks failed: {failed}", file=sys.stderr)
            return 1
        pinned[name] = outs[0].artifacts
        print(f"{name}: {len(pinned[name])} digests")
    seed = workloads.GOLDEN_SEED
    golden = {"seed": seed, "env": bench_env.stamp(seed), "workloads": pinned}
    with open(bench_env.ROOT / "perfbench" / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
