"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py [--workload W ...]

Checks that BENCHMARK.json keeps the benchmark contract's shape; that a
short untraced run prints exactly the end_to_end metrics and a traced run
exactly the per_layer metrics, each with its unit; that two traced runs
with the same seed give identical per-layer counts; and that the benchmark
exits non-zero without a result in a directory holding only BENCHMARK.json
and perfbench/.  Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys

from common import BENCH_DIR, OUT_DIR, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
#: Per-layer metrics that must repeat exactly for a seed.
COUNTS = re.compile(r"(\.calls|grid_cells|nonzero_bin_frac|surviving_frac|ray_pass_frac|errors_frac|stdout_bytes)$")
SEED = 7


def check_spec(spec: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    cmd = spec["command"]
    if not (1 <= len(cmd) <= 32 and all(isinstance(a, str) and len(a) <= 200 for a in cmd)):
        problems.append("command must be 1-32 strings of at most 200 characters")
    if any(a.startswith("/") or ".." in a.split("/") for a in cmd):
        problems.append("command leaves the checkout")
    if not 1 <= len(spec["paths"]) <= 16 or not all(PATH.match(p) for p in spec["paths"]):
        problems.append("paths must be 1-16 relative paths")
    for p in spec["paths"]:
        for f in (ROOT / p).rglob("*"):
            if f.is_symlink():
                problems.append(f"{f} is a link")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("2 to 8 workloads")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w.get('name')}: exactly name and a one-line why of <= 200 chars")
    e2e, layer = spec["end_to_end"], spec["per_layer"]
    if not 1 <= len(e2e) <= 16 or not 1 <= len(layer) <= 128:
        problems.append("1-16 end_to_end and 1-128 per_layer metrics")
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"end_to_end {m.get('name')}: keys or bound")
    for m in layer:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per_layer {m.get('name')}: keys")
    names = [x["name"] for x in spec["workloads"] + e2e + layer]
    for m in e2e + layer:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append(f"{m['name']}: unit or better")
    if len(set(names)) != len(names) or not all(NAME.match(n) for n in names):
        problems.append("names must be unique and well formed")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" \
            or setup[0]["bound"] != max(m["bound"] for m in e2e):
        problems.append("setup_s must be in s, lower is better, with the largest bound")
    if len(json.dumps(spec)) > 64 * 1024:
        problems.append("BENCHMARK.json over 64 KiB")
    return problems


def run(spec, cwd, workload, trace, seconds=1) -> tuple[int, str]:
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(SEED), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


def check_result(stdout: str, wanted: list[dict]) -> tuple[list[str], dict]:
    result = json.loads(stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["attempted"] < 1 or result["failed"] != 0 or not result["correct"]:
        problems.append(f"attempted {result['attempted']} failed {result['failed']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in wanted}:
        problems.append(f"metrics or units differ from BENCHMARK.json: {got}")
    for m in wanted:
        if not any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in stdout.splitlines()[:-1]):
            problems.append(f"{m['name']} not printed with its unit")
    return problems, {k: v["value"] for k, v in result["metrics"].items()}


def check_bare(spec) -> list[str]:
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, stdout = run(spec, bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    if code == 0 or stdout.strip():
        return [f"bare directory: exit {code}, stdout {stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    problems = check_spec(spec) + check_bare(spec)
    for workload in args.workload or names:
        code, stdout = run(spec, ROOT, workload, 0)
        problems += [f"{workload} trace 0: {p}" for p in
                     (check_result(stdout, spec["end_to_end"])[0] if code == 0 else [f"exit {code}"])]
        counts = []
        for _ in range(2):
            code, stdout = run(spec, ROOT, workload, 1)
            if code != 0:
                problems.append(f"{workload} trace 1: exit {code}")
                break
            found, values = check_result(stdout, spec["per_layer"])
            problems += [f"{workload} trace 1: {p}" for p in found]
            counts.append({k: v for k, v in values.items() if COUNTS.search(k)})
        if len(counts) == 2 and counts[0] != counts[1]:
            diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
            problems.append(f"{workload}: per-layer counts differ between two traced runs: {diff}")
        print(f"{workload}: checked", file=sys.stderr)
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
