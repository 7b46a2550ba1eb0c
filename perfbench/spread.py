"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload scan_curve --seeds 1-10 [--seconds S]

Runs run.py once per seed with tracing off and prints, per metric, the
median and the interquartile range as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json.  A benchmark is steady when every spread except setup_s is
within its bound; aim for under a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import ROOT


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
    ok = True
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        steady = spread <= metric["bound"] / 3
        ok &= steady or metric["name"] == "setup_s"
        print(f"{metric['name']:<28} median {med:<12.6g} {metric['unit']:<6} spread {spread:7.4f} "
              f"bound {metric['bound']:.3f} {'ok' if steady else 'WIDE'}  "
              f"min {min(values):.6g} max {max(values):.6g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
