"""In-process half of the benchmark, run by run.py in a fresh interpreter.

    python3 perfbench/worker.py census --seed N --seconds S
    python3 perfbench/worker.py trace --workload W --seed N

``census`` is the census_sweep workload's timed loop.  ``trace`` runs a
fixed list of one workload's operations in process, once untraced and once
traced, and reports the per-layer metrics; scan_curve calls
``mwmono.cli.entrypoint`` with the same arguments as its subprocesses.
Each mode prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import sys
import time

from checks import Accuracy, OutputError, check_scan, load_census_table, load_reference
from common import (OUT_DIR, REFERENCE_CENTRES, at_ref_speed, calibration_s, import_mwmono, median,
                    scan_ops, sweep_order, tail)
from tracer import Tracer

#: Blocks of a census sweep; the calibration loop runs before each, so that the
#: calibration spans the same stretch of host speed as the sweep.
CAL_BLOCKS = 10


class Census:
    """path_census and select_path at one velocity, checked against the stored table."""

    def __init__(self, mw):
        self.mw = mw
        cfg = mw.RunConfig.from_dict({})
        self.cfg = cfg
        self.args = (cfg.setting(), cfg.particle(), cfg.grating())
        self.device = cfg.device()
        self.table = load_census_table()

    def run(self, v: float):
        census = self.mw.path_census(*self.args, v)
        try:
            orders = self.mw.select_path(*self.args, v, self.device).orders
        except self.mw.EmptyTransmissionError:
            orders = None
        return census, orders

    def matches(self, v: float, outcome) -> bool:
        return self.table[v] == (tuple(outcome[0]), outcome[1])

    def accuracy(self) -> Accuracy:
        """Library speed-ratio scan at the reference centres (untimed)."""
        cfg, mw = self.cfg, self.mw
        rows = mw.scan_speed_ratio(
            REFERENCE_CENTRES, cfg.beam().full_width, cfg.beamline(), cfg.particle(), cfg.grating(),
            velocity_bins=cfg.velocity_bins, offset_samples=cfg.offset_samples,
            baseline_theta_inc=cfg.baseline_theta_inc, baseline_order=cfg.baseline_order,
        )
        acc = Accuracy(load_reference())
        for r in rows:
            acc.add(r.v_center, speed_ratio=r.final_ratio, throughput=r.throughput,
                    baseline_ratio=r.baseline_ratio)
        return acc


def census_loop(seed: int, seconds: float) -> dict:
    census = Census(import_mwmono())
    walls: list[float] = []
    cals: list[float] = []
    failed, errors = 0, []
    clock = time.perf_counter
    start = clock()
    for sweep in itertools.count():
        velocities = sweep_order(seed, sweep)
        block = -(-len(velocities) // CAL_BLOCKS)
        outcomes, wall, cal = [], 0.0, 0.0
        for first in range(0, len(velocities), block):
            cal += calibration_s()
            t0 = clock()
            outcomes += [census.run(v) for v in velocities[first:first + block]]
            wall += clock() - t0
        walls.append(wall)
        cals.append(cal)
        wrong = [v for v, o in zip(velocities, outcomes) if not census.matches(v, o)]
        if wrong:
            failed += 1
            errors.append(f"sweep {sweep}: census or selected path differs at {sorted(wrong)[:5]} m/s")
        if clock() - start >= seconds:
            break
    loop_wall = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    acc = census.accuracy()
    tail_value, tail_pct = tail(walls)
    return {
        "ops": len(walls), "failed": failed, "errors": errors[:5], "loop_wall_s": loop_wall,
        "items": (len(walls) - failed) * len(velocities),
        "op_wall_p50_ref_s": median([at_ref_speed(w, c / CAL_BLOCKS) for w, c in zip(walls, cals)]),
        "cal_p50_ms": 1000 * median(cals) / CAL_BLOCKS,
        "op_wall_p50_s": median(walls), "op_wall_tail_s": tail_value, "tail_percentile": tail_pct,
        "peak_rss_mb": peak_rss_mb,
        **acc.report(),
    }


def _cli_runner(cli):
    def run(op):
        _, argv = op
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.entrypoint(argv)
        return rc, out.getvalue().encode()

    def verify(op, outcome):
        rc, stdout = outcome
        if rc != 0:
            raise OutputError(f"exit code {rc}")
        check_scan(stdout, op[0])

    return run, verify


def trace_run(workload: str, seed: int) -> dict:
    mw = import_mwmono()
    if workload == "census_sweep":
        census = Census(mw)
        ops = sweep_order(seed, 0)
        run = census.run

        def verify(v, outcome):
            if not census.matches(v, outcome):
                raise OutputError(f"census at {v} differs from the table")
    else:
        import mwmono.cli as cli
        ops = list(itertools.islice(scan_ops(seed), 1))
        run, verify = _cli_runner(cli)

    def untraced_wall():
        start = time.perf_counter()
        for op in ops:
            run(op)
        return time.perf_counter() - start

    run(ops[0])  # warm-up: lazy imports and caches, untimed
    untraced_before = untraced_wall()
    tracer = Tracer()
    outcomes = []
    with tracer.installed(mw):
        start = time.perf_counter()
        for i, op in enumerate(ops):
            tracer.op = i
            outcomes.append(run(op))
        traced = time.perf_counter() - start
    # Untraced passes on both sides of the traced one, so drift in machine speed cancels.
    untraced = (untraced_before + untraced_wall()) / 2

    failed, errors = 0, []
    for op, outcome in zip(ops, outcomes):
        try:
            verify(op, outcome)
        except OutputError as exc:
            failed += 1
            errors.append(str(exc))
    metrics = tracer.layer_metrics()
    metrics["cli.stdout_bytes"] = sum(len(o[1]) for o in outcomes) if workload != "census_sweep" else 0
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.traced_wall_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.spans"] = len(tracer.spans)
    spans_file = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(spans_file)
    return {"ops": len(ops), "failed": failed, "errors": errors[:5], "metrics": metrics,
            "spans_file": str(spans_file)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["census", "trace"])
    parser.add_argument("--workload", default="census_sweep")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    if args.mode == "census":
        result = census_loop(args.seed, args.seconds)
    else:
        result = trace_run(args.workload, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
