"""Paths, input grids and statistics shared by the benchmark scripts."""

from __future__ import annotations

import importlib
import math
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"
DATA_DIR = BENCH_DIR / "data"
OUT_DIR = BENCH_DIR / "out"

#: Every centre scan_curve runs: the README's scan curve, 300-5000 m/s in 100 m/s steps.
REFERENCE_CENTRES = [300.0 + 100.0 * i for i in range(48)]
SCAN_ARGS = ["--v-min", "300", "--v-max", "5000", "--v-step", "100"]
#: The census sweep: the 1 m/s grid from 300 to 5000 m/s.
SWEEP_VELOCITIES = [float(v) for v in range(300, 5001)]


CLI_CODE = "from mwmono.cli import run; run()"
#: Iterations of the calibration loop, about 2 ms of pure Python on a 2-core x86-64 host.
CAL_LOOPS = 30_000
#: The calibration loop's time that defines the reference host speed.
REF_CAL_S = 0.002


def scan_ops(seed: int):
    """Endless `mwmono scan` argv lists over the README curve, in a seeded output format."""
    rng = random.Random(seed)
    while True:
        fmt = rng.choice(["csv", "json"])
        yield fmt, ["scan", *SCAN_ARGS, "--format", fmt]


def sweep_order(seed: int, sweep: int) -> list[float]:
    """The census sweep's velocities in the seeded order of one sweep."""
    velocities = SWEEP_VELOCITIES[:]
    random.Random(seed * 1_000_003 + sweep).shuffle(velocities)
    return velocities


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop: the yardstick of the host's current speed.

    The host runs the same code up to twice as fast at one moment as at another.
    An operation's wall time divided by this loop's, timed around the operation,
    follows the program rather than the host; see at_ref_speed.
    """
    start = time.perf_counter()
    total = 0
    for i in range(CAL_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def at_ref_speed(wall_s: float, cal_s: float) -> float:
    """Wall time scaled to the reference host speed, given the calibration time around it."""
    return wall_s * REF_CAL_S / cal_s


class BenchmarkError(Exception):
    """The benchmark cannot run here, e.g. the package sources are missing."""


def require_sources() -> None:
    if not (SRC / "mwmono" / "cli.py").is_file():
        raise BenchmarkError(f"package sources not found under {SRC}")


def import_mwmono():
    """Import the package from the checkout's src/ directory."""
    require_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("mwmono")


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  With fewer than eleven samples no such
    percentile exists and the maximum is returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def rel_err(value, reference):
    if value is None or not math.isfinite(value):
        return math.inf
    return abs(value - reference) / abs(reference)
