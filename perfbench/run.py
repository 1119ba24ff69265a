"""The repository benchmark: one command, two workloads (see README.md).

    python3 perfbench/run.py --workload engine-worstcase-m256 --seed 1 --seconds 10 --trace 0

Prints the environment record, then as its last stdout line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The full record (every percentile, the closure checks and, for a
traced run, the spans) is written to
``.bench_build/perfbench/<workload>-seed<n>-trace<t>.json``.
Exits 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import subprocess
import sys
import time

import common
import engine_workload

WORKLOADS = ("engine-worstcase-m256", "served-fixed-m36")

#: name -> unit of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "throughput_steps_per_s": "steps/s",
    "step_latency_p50_ms": "ms",
    "step_latency_p75_ms": "ms",
    "slo_attainment": "ratio",
    "peak_rss_mb": "MB",
    "release_error_km_mean": "km",
    "release_budget_mean": "eps",
}

#: name -> unit of the per-layer metrics, in BENCHMARK.json order.  A
#: layer a workload does not run reports 0 (README.md, "Per-layer").
PER_LAYER = {
    "two_world.propagate_front.ms_per_step": "ms",
    "two_world.propagate_front.calls_per_step": "count",
    "joint.candidate_bc.ms_per_step": "ms",
    "joint.candidate_bc.calls_per_step": "count",
    "joint.commit.ms_per_step": "ms",
    "theorem.sufficient_safe.ms_per_step": "ms",
    "theorem.sufficient_safe.cleared_ratio": "ratio",
    "qp.solve_conditions_batch.ms_per_step": "ms",
    "qp.conditions_per_step": "count",
    "engine.step_many.self_ms_per_step": "ms",
    "engine.open.ms_per_session": "ms",
    "engine.finish.ms_per_session": "ms",
    "engine.calibration.attempts_per_release": "count",
    "service.request_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.batch_wait_ms": "ms",
    "service.solve_ms": "ms",
    "service.serialize_ms": "ms",
    "service.wire_ms": "ms",
    "service.batch_mean_size": "count",
    "service.cpu_ms_per_step": "ms",
    "service.marginal_ms_per_step": "ms",
    "service.shed_total": "count",
    "loadgen.late_p99_ms": "ms",
    "loadgen.cpu_share": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: A child never gets longer than this.
CHILD_TIMEOUT_S = 150.0
#: A run that is still going after this long stops with an error, so it
#: always ends (and stops its children) within 180 s.
RUN_TIMEOUT_S = 170


def _overrun(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_TIMEOUT_S} s")


def _engine_child(args, setup_only: bool) -> dict:
    command = [
        sys.executable, str(common.ROOT / "perfbench" / "engine_workload.py"),
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    proc = subprocess.run(
        command, capture_output=True, text=True, cwd=str(common.ROOT),
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"engine child failed ({proc.returncode}): {proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_engine(args) -> dict:
    """Set up in fresh processes; the last one also measures."""
    setups = [
        _engine_child(args, setup_only=True)["setup_s"]
        for _ in range(engine_workload.SETUP_REPEATS - 1)
    ]
    result = _engine_child(args, setup_only=False)
    setups.append(result["setup_s"])
    result.update(
        setup_s=common.median(setups),
        setups_s=setups,
        kernel=result["env"]["kernel"],
        failed=len(result["problems"]),  # one per failed gate check
    )
    return result


def run_served(args) -> dict:
    import asyncio

    import served_workload

    return asyncio.run(
        served_workload.run_served(
            args.seed, args.seconds, bool(args.trace), args.workload
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    common.prepare_environment()
    # Loads the kernel -- compiling it into the cache on a fresh
    # checkout -- before anything is timed.
    env = common.environment_record()
    problem = common.check_kernel(env)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 3
    print(json.dumps({"perfbench_env": env}))

    signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(RUN_TIMEOUT_S)
    started = time.perf_counter()
    if args.workload == "engine-worstcase-m256":
        result = run_engine(args)
    else:
        result = run_served(args)
    signal.alarm(0)
    problems = list(result["problems"])
    if result["kernel"] != common.EXPECTED_KERNEL:
        problems.append(f"measured process used the {result['kernel']!r} kernel")

    values = {
        "setup_s": result["setup_s"],
        "throughput_steps_per_s": result["throughput"],
        "step_latency_p50_ms": result["p50_ms"],
        "step_latency_p75_ms": result["p75_ms"],
        "slo_attainment": result["slo"],
        "peak_rss_mb": result["peak_rss_mb"],
        "release_error_km_mean": result["error_km"],
        "release_budget_mean": result["budget"],
    }
    for name, value in values.items():
        if not math.isfinite(value):
            problems.append(f"{name} is {value}")
            values[name] = -1.0
    if args.trace:
        layers = result.get("layers", {})
        metrics = {
            name: {"value": float(layers.get(name, (0.0,))[0]), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    failed = int(result["failed"])
    attempted = int(result["steps"]) + int(result.get("gate_checks", 0))
    correct = not problems and failed == 0
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "env": env,
        "values": values,
        "problems": problems,
    }
    common.write_record(
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record
    )
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
