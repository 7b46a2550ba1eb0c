"""Build the stored tables the benchmark checks outputs against.

    python3 perfbench/make_reference.py --commit <sha of the measured tree>

Writes two files under perfbench/data/:

- reference.json: the converged speed ratio, throughput and baseline ratio
  at every centre a CLI workload can run (300-5000 m/s, step 100), computed
  at 8001 x 801 (4x finer per axis than the default 2001 x 201), together
  with each value's relative change from the 4001 x 401 grid.  A centre
  whose change exceeds CONVERGED_RTOL is kept and marked not converged.
- census_table.json: the (considered, surviving, groups) census and the
  orders of the selected path at every velocity of the 1 m/s grid from
  300 to 5000 m/s, run-length encoded.

Benchmark runs only read these files; they never recompute them, so a
kernel change cannot move its own yardstick.  Rebuilding them is a change
to the benchmark.  The fine grid peaks at about 450 MB of memory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from common import DATA_DIR, REFERENCE_CENTRES, SWEEP_VELOCITIES, import_mwmono

FINE = (8001, 801)
CHECK = (4001, 401)
#: A third of the default grid's ~1.4 % error at 1000 m/s, which the table must resolve.
CONVERGED_RTOL = 0.005


def _figures(mw, cfg, v, grid):
    nv, nu = grid
    spec = mw.BeamSpec(center_velocity=v, full_width=cfg.beam().full_width)
    args = (spec, cfg.beamline(), cfg.particle(), cfg.grating())
    result = mw.simulate_beam(*args, velocity_bins=nv, offset_samples=nu)
    baseline = mw.single_reflection_baseline(
        *args, theta_inc=cfg.baseline_theta_inc, order=cfg.baseline_order,
        velocity_bins=nv, offset_samples=nu,
    )
    return {
        "speed_ratio": result.speed_ratio,
        "throughput": result.throughput,
        "baseline_ratio": baseline.speed_ratio,
    }


def build_reference(mw, commit: str) -> dict:
    cfg = mw.RunConfig.from_dict({})
    rows = []
    for v in REFERENCE_CENTRES:
        fine = _figures(mw, cfg, v, FINE)
        check = _figures(mw, cfg, v, CHECK)
        change = {k: abs(fine[k] - check[k]) / abs(fine[k]) for k in fine}
        rows.append({
            "v_center_mps": v,
            **fine,
            "change_from_check_grid": change,
            "converged": all(c <= CONVERGED_RTOL for c in change.values()),
        })
        print(f"{v:7.1f} m/s  {fine}  change {change}", file=sys.stderr)
    return {
        "commit": commit,
        "config": "RunConfig.from_dict({}) defaults",
        "grid": {"velocity_bins": FINE[0], "offset_samples": FINE[1]},
        "check_grid": {"velocity_bins": CHECK[0], "offset_samples": CHECK[1]},
        "converged_rtol": CONVERGED_RTOL,
        "centres": rows,
    }


def build_census_table(mw, commit: str) -> dict:
    cfg = mw.RunConfig.from_dict({})
    setting, particle, grating, device = cfg.setting(), cfg.particle(), cfg.grating(), cfg.device()
    runs: list[list] = []
    for v in SWEEP_VELOCITIES:
        census = list(mw.path_census(setting, particle, grating, v))
        try:
            orders = list(mw.select_path(setting, particle, grating, v, device).orders)
        except mw.EmptyTransmissionError:
            orders = None
        if runs and runs[-1][2:] == [census, orders] and runs[-1][1] == v - 1.0:
            runs[-1][1] = v
        else:
            runs.append([v, v, census, orders])
    return {
        "commit": commit,
        "config": "RunConfig.from_dict({}) defaults",
        "columns": ["v_first_mps", "v_last_mps", "census", "selected_orders"],
        "runs": runs,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="commit the tables are computed at")
    args = parser.parse_args()
    mw = import_mwmono()
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    census = build_census_table(mw, args.commit)
    (DATA_DIR / "census_table.json").write_text(json.dumps(census, indent=1) + "\n")
    reference = build_reference(mw, args.commit)
    (DATA_DIR / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    unconverged = [r["v_center_mps"] for r in reference["centres"] if not r["converged"]]
    print(f"wrote tables in {time.perf_counter() - start:.1f} s; "
          f"{len(census['runs'])} census runs; not converged: {unconverged}")
    return 0 if all(math.isfinite(r["speed_ratio"]) for r in reference["centres"]) else 1


if __name__ == "__main__":
    sys.exit(main())
