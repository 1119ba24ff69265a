"""Run-to-run spread of the end-to-end metrics (steadiness check).

    python3 perfbench/prove.py [--workload NAME ...] [--runs 10] [--seconds 10]

Runs ``run.py --trace 0`` once per seed of :data:`common.SEEDS` (one at
a time, never in parallel), then prints for every workload and metric
the median and the distance between the first and third quartile as a
share of the median, next to the metric's bound in ``BENCHMARK.json``.
A steady benchmark keeps every spread but ``setup_s``'s below a third
of its bound.  The per-run results go to
``.bench_build/perfbench/prove-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import common


def main(argv=None) -> int:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=len(common.SEEDS))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload or names:
        runs = []
        for seed in common.SEEDS[: args.runs]:
            proc = subprocess.run(
                [sys.executable, str(common.ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=str(common.ROOT),
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED\n{proc.stderr[-2000:]}")
                steady = False
            runs.append({"seed": seed, **result})
        common.write_record(f"prove-{workload}.json", runs)
        print(f"\n{workload} ({len(runs)} runs)")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            mid = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = mid
            spread = (q3 - q1) / mid if mid else float("inf")
            ok = name == "setup_s" or spread < bound / 3
            steady &= ok
            print(f"  {name:26s} median {mid:12.5g}  spread {spread:7.4f}  "
                  f"bound {bound:5.3f}  {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
