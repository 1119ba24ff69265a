"""Shared constants and helpers of the benchmark (see README.md).

Importing this module changes nothing outside it: call
:func:`prepare_environment` first thing in an entry point, before NumPy
is imported, so the BLAS thread count and the kernel cache location are
fixed for this process and every child it starts.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import statistics
import sys
from pathlib import Path

#: Root of the checkout: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives here (ignored by git).
OUT = ROOT / ".bench_build" / "perfbench"
KERNEL_CACHE = ROOT / ".bench_build" / "repro-native"

#: The solver kernel every run must resolve to.  A run whose kernel
#: differs (no compiler, ``REPRO_SOLVER_KERNEL=numpy``) is rejected
#: instead of being compared against native-kernel figures.
EXPECTED_KERNEL = "native"

#: BLAS threads in this process and in every child (engine child,
#: server): the same on both sides of a comparison, and one thread per
#: process keeps the server and the load generator from oversubscribing
#: two cores.
BLAS_THREADS = "1"
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: The ten seeds of a proving pass (``prove.py``): a fixed list, so
#: every pass measures the same inputs.
SEEDS = (1, 293, 287844, 2902, 944, 9573, 102903, 193, 456, 71)
#: Percentiles of every latency distribution kept in the result record.
PERCENTILES = (1, 5, 10, 25, 50, 75, 90, 95, 99)


def prepare_environment() -> None:
    """Pin BLAS threads and the kernel cache; put ``src`` on the path.

    Child processes inherit the result through ``os.environ``.

    Exits with code 2 when the checkout holds no program to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    for name in _BLAS_ENV:
        os.environ[name] = BLAS_THREADS
    os.environ["REPRO_NATIVE_CACHE"] = str(KERNEL_CACHE)
    os.environ.pop("REPRO_NATIVE_DISABLE", None)
    os.environ.pop("REPRO_SOLVER_KERNEL", None)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# scenarios: one definition shared by the engine, the server flags and
# the in-process replays, so served and in-process streams are comparable
# ----------------------------------------------------------------------
EPSILON = 0.4
ALPHA = 0.5
SIGMA = 1.0


def engine_spec():
    """``engine-worstcase-m256``: 16x16 map, worst-case prior, T=4."""
    from repro.scenario.spec import (
        CalibrationSpec,
        ChainSpec,
        EventSpec,
        GridSpec,
        MechanismSpec,
        ScenarioSpec,
    )

    return ScenarioSpec(
        grid=GridSpec(rows=16, cols=16),
        chain=ChainSpec.gaussian(sigma=SIGMA),
        events=(EventSpec.presence_range(0, 9, start=2, end=3),),
        mechanism=MechanismSpec("planar_laplace", {"alpha": ALPHA}),
        epsilon=EPSILON,
        horizon=4,
        calibration=CalibrationSpec("halving"),
        prior_mode="worst_case",
    )


#: Served scenario: 6x6 map, fixed prior, presence event on cells 0-9
#: at t=4..8 (the ``repro serve`` defaults for the event).
SERVED_GRID = 6
SERVED_EVENT_CELLS = (0, 9)
SERVED_EVENT_WINDOW = (4, 8)


def served_spec(horizon: int):
    """The ScenarioSpec ``repro serve`` builds from :func:`served_flags`."""
    from repro.scenario.spec import (
        CalibrationSpec,
        ChainSpec,
        EventSpec,
        GridSpec,
        MechanismSpec,
        ScenarioSpec,
    )

    return ScenarioSpec(
        grid=GridSpec(rows=SERVED_GRID, cols=SERVED_GRID),
        chain=ChainSpec.gaussian(sigma=SIGMA),
        events=(
            EventSpec.presence_range(
                *SERVED_EVENT_CELLS,
                start=SERVED_EVENT_WINDOW[0],
                end=SERVED_EVENT_WINDOW[1],
            ),
        ),
        mechanism=MechanismSpec("planar_laplace", {"alpha": ALPHA}),
        epsilon=EPSILON,
        horizon=horizon,
        calibration=CalibrationSpec("halving"),
        prior_mode="fixed",
    )


def served_flags(horizon: int) -> list[str]:
    """``repro serve`` engine flags equal to :func:`served_spec`."""
    return [
        "--rows", str(SERVED_GRID), "--cols", str(SERVED_GRID),
        "--sigma", str(SIGMA), "--alpha", str(ALPHA),
        "--epsilon", str(EPSILON), "--horizon", str(horizon),
        "--event-cells", *map(str, SERVED_EVENT_CELLS),
        "--event-window", *map(str, SERVED_EVENT_WINDOW),
        "--prior-mode", "fixed", "--calibration", "halving",
    ]


def trajectories(compiled, n: int, length: int, rng) -> list[list[int]]:
    """``n`` chain-sampled true trajectories of ``length`` cells."""
    from repro.markov.simulate import sample_trajectory

    return [
        [int(c) for c in sample_trajectory(
            compiled.chain, length, initial=compiled.initial, rng=rng
        )]
        for _ in range(n)
    ]


def strip_record(record: dict) -> tuple:
    """A release record without its timing field, for stream equality."""
    return tuple(sorted((k, v) for k, v in record.items() if k != "elapsed_s"))


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    data = sorted(values)
    if not data:
        return float("nan")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def percentile_table(values) -> dict:
    """The fixed percentile array of ``values``, keyed ``p1`` .. ``p99``."""
    return {f"p{q}": percentile(values, q) for q in PERCENTILES}


def median(values) -> float:
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# /proc readers (Linux)
# ----------------------------------------------------------------------
_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one process."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid: int) -> float:
    """High-water resident set size of one process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------
def _blas_threads_in_process() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps") as handle:
            paths = {
                path
                for path in (line.split()[-1] for line in handle)
                if "openblas" in path.lower() and ".so" in path
            }
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment_record() -> dict:
    """Host, interpreter, NumPy/BLAS and kernel facts for the result."""
    import numpy as np

    from repro.core import native
    from repro.core.qp import resolve_kernel

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = dict(config.get("Build Dependencies", {}).get("blas", {}))
    except (TypeError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "env_threads": BLAS_THREADS,
            "threads": _blas_threads_in_process(),
        },
        "kernel": resolve_kernel(),
        "native": native.native_detail(),
    }


def check_kernel(record: dict) -> str | None:
    """Why a recorded kernel state disqualifies the run (``None`` = fine)."""
    if record.get("kernel") != EXPECTED_KERNEL:
        return (
            f"solver kernel resolved to {record.get('kernel')!r}, the "
            f"benchmark is defined on {EXPECTED_KERNEL!r}"
        )
    return None


def write_record(name: str, payload: dict) -> Path:
    """Write one JSON record under the benchmark's output directory."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(payload, indent=1, default=float))
    return path
