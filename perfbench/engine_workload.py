"""``engine-worstcase-m256``: the release engine called in-process.

Run as a child of ``run.py`` so every set-up starts in a fresh
interpreter (the native kernel load, the mechanism ladder and the first
fleet's lazy state are per process)::

    python3 perfbench/engine_workload.py --seed 7 --seconds 10 --trace 0 [--setup-only]

It prints one JSON object on its last stdout line.  One *fleet* opens
100 sessions, steps them through T=4 lockstep waves of
``SessionManager.step_many`` and finishes them; closed loop, one
caller.  The warm-up fleet ends the set-up; measured fleets follow
until ``--seconds`` of fleet time has passed.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

import common  # noqa: E402

SESSIONS = 100
HORIZON = 4
#: Fleets whose releases feed the utility metrics: a fixed, seed-only
#: set, so a bit-identical change leaves those metrics unchanged.
UTILITY_FLEETS = 12
#: Latency limit of one ``step_many`` wave (100 sessions) for
#: ``slo_attainment``.
WAVE_LIMIT_MS = 1500.0
#: Sessions of one sampled fleet replayed solo by the correctness gate;
#: the first ``VERIFIED_SESSIONS`` of them also pass the exact
#: Theorem IV.1 re-check of their released streams.
SOLO_SESSIONS = 12
VERIFIED_SESSIONS = 4
#: Set-ups per run, each in a fresh process; ``setup_s`` is their median.
SETUP_REPEATS = 3


def fleet_inputs(compiled, seed: int, fleet: int):
    """Trajectories and per-session RNG seeds of one fleet (seed only)."""
    import numpy as np

    rng = np.random.default_rng([seed, fleet])
    cells = common.trajectories(compiled, SESSIONS, HORIZON, rng)
    seeds = [int(s) for s in rng.integers(0, 2**62, size=SESSIONS)]
    return cells, seeds


def run_fleet(manager, fleet: int, cells, seeds, waves: list[float]):
    """Open, step and finish one fleet; returns (seconds, records)."""
    started = time.perf_counter()
    ids = [manager.open(f"f{fleet}s{i}", rng=seeds[i]) for i in range(SESSIONS)]
    for t in range(HORIZON):
        wave = time.perf_counter()
        manager.step_many({sid: cell[t] for sid, cell in zip(ids, cells)})
        waves.append(time.perf_counter() - wave)
    logs = [manager.finish(sid) for sid in ids]
    elapsed = time.perf_counter() - started
    return elapsed, [[r.to_json() for r in log.records] for log in logs]


def gate(compiled, spec, fleet: int, cells, seeds, served_records) -> list[str]:
    """Solo replay and exact privacy re-check of one sampled fleet."""
    import dataclasses

    from repro.core.quantify import verify_event_privacy
    from repro.core.qp import SolverStatus
    from repro.engine import ReleaseSession

    config = dataclasses.replace(compiled.engine_config, record_emissions=True)
    problems = []
    for i in range(SOLO_SESSIONS):
        session = ReleaseSession(config, rng=seeds[i])
        records = [session.step(cell).to_json() for cell in cells[i]]
        log = session.finish()
        solo = [common.strip_record(r) for r in records]
        batched = [common.strip_record(r) for r in served_records[i]]
        if solo != batched:
            problems.append(f"fleet {fleet} session {i}: step_many != solo step")
            continue
        if i < VERIFIED_SESSIONS:
            check = verify_event_privacy(
                compiled.chain,
                compiled.events[0],
                log.emission_matrices,
                log.released_cells,
                spec.epsilon,
                horizon=HORIZON,
            )
            if any(s is not SolverStatus.SAFE for s in check.statuses):
                problems.append(
                    f"fleet {fleet} session {i}: released stream fails "
                    f"Theorem IV.1 at eps={spec.epsilon}: {check.statuses}"
                )
    return problems


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    common.prepare_environment()
    from repro.engine import SessionManager

    import layers

    spec = common.engine_spec()
    inputs_started = time.perf_counter()
    compiled = spec.compile()
    warm_inputs = fleet_inputs(compiled, args.seed, 0)
    inputs_s = time.perf_counter() - inputs_started

    manager = SessionManager(spec)
    run_fleet(manager, 0, *warm_inputs, [])
    setup_s = time.perf_counter() - _STARTED - inputs_s
    result = {"setup_s": setup_s, "env": common.environment_record()}
    if args.setup_only:
        return result

    # Measured fleets.  In the traced run every second fleet records
    # spans, so the same run also gives the tracing overhead.
    recorder = layers.SpanRecorder()
    fleets = []  # (fleet, seconds, traced, records)
    fleet_waves: list[list[float]] = []  # wave ms of each untraced fleet
    measured = 0.0
    fleet = 1
    while measured < args.seconds or fleet <= UTILITY_FLEETS:
        cells, seeds = fleet_inputs(compiled, args.seed, fleet)
        # At least two timed fleets: one untraced, one traced.
        timed = measured < args.seconds or fleet <= 2
        traced = bool(args.trace) and timed and fleet % 2 == 0
        waves: list[float] = []
        if traced:
            recorder.group = fleet
            with recorder:
                elapsed, records = run_fleet(manager, fleet, cells, seeds, waves)
        else:
            elapsed, records = run_fleet(manager, fleet, cells, seeds, waves)
            if timed:
                fleet_waves.append([w * 1e3 for w in waves])
        if timed:
            measured += elapsed
        fleets.append((fleet, elapsed if timed else None, traced, records))
        fleet += 1

    steps_per_fleet = SESSIONS * HORIZON
    rates = [steps_per_fleet / s for _, s, traced, _ in fleets
             if s is not None and not traced]
    utility = [r for f, _, _, recs in fleets if f <= UTILITY_FLEETS
               for rs in recs for r in rs]
    grid = compiled.grid
    error_km = grid.trajectory_error_km(
        [r["true_cell"] for r in utility], [r["released_cell"] for r in utility]
    )
    budget = sum(r["budget"] for r in utility) / len(utility)
    wave_ms = [w for waves in fleet_waves for w in waves]
    result.update(
        throughput=common.median(rates),
        fleet_rates=rates,
        wave_ms=common.percentile_table(wave_ms),
        # A fleet's four waves differ by timestamp (t=2..3 carry the
        # event), so a percentile over all waves sits on a step between
        # wave kinds; the median over fleets of each fleet's percentile
        # does not, and a host stall moves only the fleets it hits.
        p50_ms=common.median([common.percentile(w, 50) for w in fleet_waves]),
        p75_ms=common.median([common.percentile(w, 75) for w in fleet_waves]),
        slo=sum(w <= WAVE_LIMIT_MS for w in wave_ms) / len(wave_ms),
        waves=len(wave_ms),
        error_km=error_km,
        budget=budget,
        steps=steps_per_fleet * sum(1 for _, s, _, _ in fleets if s is not None),
        peak_rss_mb=common.peak_rss_mb(os.getpid()),
    )

    if args.trace:
        traced = [(f, s, recs) for f, s, t, recs in fleets if t and s is not None]
        steps = steps_per_fleet * len(traced)
        attempts = sum(r["n_attempts"] for _, _, recs in traced
                       for rs in recs for r in rs)
        metrics, closure = layers.engine_layer_metrics(
            recorder, steps, SESSIONS * len(traced), attempts
        )
        traced_rates = [steps_per_fleet / s for _, s, _ in traced]
        metrics["trace.overhead_ratio"] = (
            common.median(traced_rates) / common.median(rates), "ratio"
        )
        result.update(layers=metrics, closure=closure, spans=recorder.as_json())

    # Correctness gate, outside the timed region: one sampled fleet
    # (chosen by the seed) replayed solo and re-verified.
    timed_fleets = [entry for entry in fleets if entry[1] is not None]
    sampled = timed_fleets[args.seed % len(timed_fleets)]
    cells, seeds = fleet_inputs(compiled, args.seed, sampled[0])
    result["problems"] = gate(compiled, spec, sampled[0], cells, seeds, sampled[3])
    result["gate_checks"] = SOLO_SESSIONS * HORIZON + VERIFIED_SESSIONS
    return result


if __name__ == "__main__":
    print(json.dumps(main(), default=float))
