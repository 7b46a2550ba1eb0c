"""The one table of CLI expectations: every case's exit code, stdout and stderr.

Each case of ``CASES`` gives the arguments of one command, the name of the
file under ``tests/golden/`` holding its stdout, and its exit code.  The
stderr expected of it is ``tests/golden/<name>.err`` when that file exists,
and nothing otherwise.  The test runs each case in process and compares all
three byte for byte.  Run as a script, this file prints the cases, one per
line: the name, the exit code, then the arguments, tab-separated; CI replays
them through the installed ``mwmono`` console script.
Regenerate a file only for an intended change of output, e.g.
``mwmono scan --v-min 300 --v-max 5000 --v-step 100 > tests/golden/scan.csv``.
"""

from pathlib import Path

import pytest

from mwmono.cli import entrypoint

GOLDEN = Path(__file__).parent / "golden"
README_SCAN = ["scan", "--v-min", "300", "--v-max", "5000", "--v-step", "100"]


#: (arguments, golden file name, exit code) of every stored output.
CASES = [
    (README_SCAN, "scan.csv", 0),
    (README_SCAN + ["--format", "json"], "scan.json", 0),
    (["simulate", "--v-center", "1000"], "simulate_1000.json", 0),
    (["incidence-table", "--orders", "1,2,3", "--v-min", "300", "--v-max", "5000",
      "--v-step", "100"], "incidence_table.csv", 0),
    (["divergence-table", "--orders", "1,2,3"], "divergence_table.csv", 0),
    (["paths", "--v", "1000"], "paths_1000.csv", 0),
    (["paths", "--v", "300"], "paths_300.csv", 0),
    (["paths", "--v", "5000", "--format", "json"], "paths_5000.json", 0),
    # Near grazing exit the rounded third-bounce sine rejects 3 paths.
    (["paths", "--v", "572", "--theta-out-deg", "89.9999999", "--format", "json"],
     "paths_572_grazing.json", 0),
    (["--dump-default-config"], "default_config.yaml", 0),
    # One populated bin, and a wide baseline passband.
    (["simulate", "--v-center", "300"], "simulate_300.json", 0),
    (["simulate", "--v-center", "5000"], "simulate_5000.json", 0),
    # 4001 x 401 grid where the 2 mm exit pinhole at 300 mm is the tightest.
    (["simulate", "--config", str(GOLDEN / "tight_pinhole.yaml")],
     "simulate_tight_pinhole.json", 0),
    # The same grid at every README centre: pins the kernels' traced rows.
    (README_SCAN + ["--config", str(GOLDEN / "tight_pinhole.yaml")],
     "scan_tight_pinhole.csv", 0),
    # A baseline at 60 degrees and order -2, evanescent at 300 m/s.
    (README_SCAN + ["--config", str(GOLDEN / "baseline_60deg.yaml")],
     "scan_baseline_60deg.csv", 0),
    # No centre exceeds half the 500 m/s width: every row flagged, then one line why.
    (["scan", "--v-min", "100", "--v-max", "200"], "scan_100_200.csv", 3),
    # Below the first-order cutoff: the header alone, then the cutoff.
    (["paths", "--v", "250"], "paths_250.csv", 3),
    (["--version"], "version.txt", 0),
]


# The ids pytest gives (arguments, name) alone: the exit code stays out of the test names.
@pytest.mark.parametrize("args, name, code", CASES,
                         ids=[f"args{i}-{name}" for i, (_, name, _) in enumerate(CASES)])
def test_cli_output_matches_golden(capsysbinary, args, name, code):
    err = GOLDEN / f"{name}.err"
    assert entrypoint(args) == code
    assert capsysbinary.readouterr() == (
        (GOLDEN / name).read_bytes(), err.read_bytes() if err.exists() else b"")


if __name__ == "__main__":
    for args, name, code in CASES:
        print("\t".join([name, str(code), *args]))
