"""mwmono benchmark: end-to-end and per-layer metrics for two workloads.

    python3 perfbench/run.py --workload scan_curve --seed 1 --seconds 50 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's src/ directory, nothing needs installing.  Workloads (each a
closed loop, one client, one operation in flight):

- scan_curve: `mwmono scan` subprocesses over the README's 300-5000 m/s
  curve (48 centres, 96 kernel calls each), output format seeded.
- census_sweep: path_census and select_path in process at each velocity of
  a seeded permutation of the 1 m/s grid from 300 to 5000 m/s.

--trace 0 measures the end-to-end metrics with tracing off.  The host runs
the same code up to twice as fast at one moment as at another, so every
operation's wall time is scaled to a reference host speed: multiplied by
REF_CAL_S over the time of a fixed pure-Python calibration loop timed
around it (op_wall_p50_ref_s).  The raw wall times, the tail and the item
rate follow the host and are printed but not gated.  setup_s is the plain
median of the set-up interpreters' wall times.

--trace 1 runs a fixed list of the workload's operations in process,
untraced and then traced, and reports the per-layer metrics; its counts
repeat exactly for a seed.  Metric names, units and bounds come from
BENCHMARK.json; the design (why each workload, which metrics each layer
should move) is in perfbench/design.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it list every
metric with its unit and sample count; the full result, with machine
information and the seed, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time

from checks import Accuracy, OutputError, check_scan, load_reference
from common import (CLI_CODE, OUT_DIR, ROOT, SRC, BenchmarkError, at_ref_speed, calibration_s,
                    median, require_sources, scan_ops, tail)

WORKLOADS = ["scan_curve", "census_sweep"]
#: Fresh interpreters timed for set-up before and again after the timed loop, so
#: that the median spans the run rather than one stretch of machine speed.
SETUP_REPS = 6
#: Fresh interpreters per import breakdown; the median is reported.
IMPORT_REPS = 5
#: Calibration loops before and again after each scan_curve operation.
CAL_REPS = 10
CHILD_TIMEOUT_S = 60.0
TRACE_TIMEOUT_S = 120.0
SETUP_CODE = (
    "import mwmono.cli\n"
    "from mwmono.config import RunConfig\n"
    "cfg = RunConfig.from_dict({})\n"
    "cfg.particle(); cfg.grating(); cfg.setting(); cfg.device(); cfg.beamline(); cfg.beam()\n"
)
IMPORT_MODULES = {"numpy": "import.numpy_ms", "jsonschema": "import.jsonschema_ms",
                  "yaml": "import.yaml_ms", "click": "import.click_ms"}


class Child:
    """Outcome of one subprocess: wall time, exit code, output and peak RSS."""

    def __init__(self, args: list[str], timeout: float = CHILD_TIMEOUT_S):
        # Bytecode caches on, as for an installed package, whatever the caller's environment says.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        env["PYTHONPATH"] = str(SRC)
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, cwd=ROOT, env=env)
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        watchdog = threading.Timer(timeout, proc.kill)
        reader.start()
        watchdog.start()
        try:
            self.stdout = proc.stdout.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            proc.stdout.close()
            proc.stderr.close()
        self.wall_s = time.perf_counter() - start
        self.returncode = proc.returncode = os.waitstatus_to_exitcode(status)
        self.stderr = err[0] if err else b""
        self.peak_rss_mb = usage.ru_maxrss / 1024

    def require_ok(self, what: str) -> "Child":
        if self.returncode != 0:
            raise BenchmarkError(f"{what} exited {self.returncode}: "
                                 f"{self.stderr.decode(errors='replace')[-2000:]}")
        return self


def setup_walls() -> list[float]:
    """Wall times of fresh interpreters importing the CLI and building the default config."""
    return [Child(["-c", SETUP_CODE]).require_ok("set-up").wall_s for _ in range(SETUP_REPS)]


def import_breakdown() -> dict[str, float]:
    """Medians of `-X importtime` for `import mwmono.cli` in fresh interpreters, in ms."""
    runs = []
    for _ in range(IMPORT_REPS):
        child = Child(["-X", "importtime", "-c", "import mwmono.cli"]).require_ok("import")
        total_us, found = 0, {}
        for line in child.stderr.decode().splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            _, cumulative, field = line[len("import time:"):].split("|")
            name = field.strip()
            if field[1:2] != " " and (name == "mwmono" or name.startswith("mwmono.")):
                total_us += int(cumulative)
            if name in IMPORT_MODULES and name not in found:
                found[name] = int(cumulative)
        run = {"import.total_ms": total_us / 1000}
        run.update({metric: found.get(mod, 0) / 1000 for mod, metric in IMPORT_MODULES.items()})
        runs.append(run)
    return {key: median([r[key] for r in runs]) for key in runs[0]}


class Loop:
    """Closed-loop CLI operations with per-op wall time, peak RSS and output checks."""

    def __init__(self):
        self.walls: list[float] = []
        self.cals: list[float] = []
        self.rss: list[float] = []
        self.attempted = self.failed = self.items = 0
        self.errors: list[str] = []

    def op(self, argv: list[str], check, items: int) -> None:
        cal = [calibration_s() for _ in range(CAL_REPS)]
        child = Child(["-c", CLI_CODE, *argv])
        cal += [calibration_s() for _ in range(CAL_REPS)]
        self.attempted += 1
        self.walls.append(child.wall_s)
        self.cals.append(sum(cal) / len(cal))
        self.rss.append(child.peak_rss_mb)
        try:
            if child.returncode != 0:
                raise OutputError(f"exit code {child.returncode}: "
                                  f"{child.stderr.decode(errors='replace')[-500:]}")
            check(child.stdout)
            self.items += items
        except OutputError as exc:
            self.failed += 1
            self.errors.append(f"{' '.join(argv)}: {exc}")


def scan_workload(seed: int, seconds: float) -> dict:
    acc = Accuracy(load_reference())
    loop = Loop()
    ops, items = scan_ops(seed), len(load_reference())

    def check(fmt):
        return lambda out: [acc.add(v, **values) for v, values in check_scan(out, fmt)]

    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        fmt, argv = next(ops)
        loop.op(argv, check(fmt), items)
    loop_wall = time.perf_counter() - start
    tail_value, tail_pct = tail(loop.walls)
    out = {
        "ops": loop.attempted, "failed": loop.failed, "errors": loop.errors[:5],
        "loop_wall_s": loop_wall, "items": loop.items,
        "op_wall_p50_ref_s": median([at_ref_speed(w, c) for w, c in zip(loop.walls, loop.cals)]),
        "cal_p50_ms": 1000 * median(loop.cals),
        "op_wall_p50_s": median(loop.walls), "op_wall_tail_s": tail_value,
        "tail_percentile": tail_pct, "peak_rss_mb": median(loop.rss), "rss_samples": len(loop.rss),
    }
    if acc.errors:
        out.update(acc.report())
    return out


def census_workload(seed: int, seconds: float) -> dict:
    child = Child(["perfbench/worker.py", "census", "--seed", str(seed), "--seconds", str(seconds)],
                  timeout=seconds + CHILD_TIMEOUT_S).require_ok("census worker")
    out = json.loads(child.stdout.decode().splitlines()[-1])
    out["rss_samples"] = 1
    return out


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    Child(["-c", SETUP_CODE]).require_ok("set-up")  # writes bytecode caches, untimed
    setup = setup_walls()
    if workload == "census_sweep":
        res = census_workload(seed, seconds)
    else:
        res = scan_workload(seed, seconds)
    setup += setup_walls()
    n = res["ops"]
    values = {
        "setup_s": median(setup),
        "op_wall_p50_ref_s": res["op_wall_p50_ref_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        **res.get("accuracy", {}),
    }
    samples = {"setup_s": len(setup), "op_wall_p50_ref_s": n, "peak_rss_mb": res["rss_samples"],
               **{name: res["accuracy_centres"] for name in res.get("accuracy", {})}}
    # Printed with the metrics but not gated: raw times follow the host's speed.
    info = {"op_wall_p50_s": (res["op_wall_p50_s"], "s", n), "op_wall_tail_s": (res["op_wall_tail_s"], "s", n),
            "items_per_s": (res["items"] / res["loop_wall_s"], "1/s", n),
            "cal_p50_ms": (res["cal_p50_ms"], "ms", n),
            "failed_ops_frac": (res["failed"] / n, "ratio", n)}
    return values, samples, {**res, "info": info, "failed_ops_frac": res["failed"] / n}


def traced(workload: str, seed: int) -> tuple[dict, dict, dict]:
    child = Child(["perfbench/worker.py", "trace", "--workload", workload, "--seed", str(seed)],
                  timeout=TRACE_TIMEOUT_S).require_ok("trace worker")
    res = json.loads(child.stdout.decode().splitlines()[-1])
    values = {**import_breakdown(), **res["metrics"]}
    samples = {name: (IMPORT_REPS if name.startswith("import.") else res["ops"]) for name in values}
    return values, samples, res


def machine_info() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "platform": platform.platform()}


def run_one(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    wanted = spec["per_layer" if trace else "end_to_end"]
    if trace:
        values, samples, detail = traced(workload, seed)
    else:
        values, samples, detail = end_to_end(workload, seed, seconds)
    missing = [m["name"] for m in wanted if not math.isfinite(values.get(m["name"], math.nan))]
    if missing:
        raise BenchmarkError(f"metrics not measured or not finite: {missing}")
    attempted = detail["ops"]
    failed = detail["failed"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"# workload={workload} seed={seed} trace={trace} seconds={seconds} {machine_info()}")
    for m in wanted:
        n = samples.get(m["name"], attempted)
        print(f"{m['name']:<44} {values[m['name']]:>14.6g} {m['unit']:<6} n={n}")
    for name, (value, unit, n) in detail.get("info", {}).items():
        extra = f" (p{detail['tail_percentile']:.3f})" if name == "op_wall_tail_s" else ""
        print(f"{name:<44} {value:>14.6g} {unit:<6} n={n} not gated{extra}")
    if "accuracy" in detail:
        worst = ", ".join(f"{k} at {v:g} m/s" for k, v in detail["accuracy_worst_centre"].items())
        print(f"# largest errors: {worst}; at 1000 m/s: {detail['accuracy_by_centre'].get('1000')}")
    for err in detail.get("errors", []):
        print(f"# failed: {err}")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine_info(), "metrics": metrics, "samples": samples, "detail": detail}
    (OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        require_sources()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        results = [run_one(w, args.seed, args.seconds, args.trace, spec) for w in workloads]
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{k}": v for w, r in zip(workloads, results) for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
