"""The CLI reproduces stored outputs of the README commands byte for byte.

Each case of ``CASES`` runs one command in process and compares its stdout
with a file under ``tests/golden/``.  Run as a script, this file prints the
cases, one per line: the file's name, then the arguments, tab-separated;
CI replays them through the installed ``mwmono`` console script.
Regenerate a file only for an intended change of output, e.g.
``mwmono scan --v-min 300 --v-max 5000 --v-step 100 > tests/golden/scan.csv``.
"""

from pathlib import Path

import pytest

from mwmono.cli import entrypoint

GOLDEN = Path(__file__).parent / "golden"
README_SCAN = ["scan", "--v-min", "300", "--v-max", "5000", "--v-step", "100"]


#: (arguments, golden file name) of every stored output.
CASES = [
    (README_SCAN, "scan.csv"),
    (README_SCAN + ["--format", "json"], "scan.json"),
    (["simulate", "--v-center", "1000"], "simulate_1000.json"),
    (["incidence-table", "--orders", "1,2,3", "--v-min", "300", "--v-max", "5000",
      "--v-step", "100"], "incidence_table.csv"),
    (["divergence-table", "--orders", "1,2,3"], "divergence_table.csv"),
    (["paths", "--v", "1000"], "paths_1000.csv"),
    (["paths", "--v", "300"], "paths_300.csv"),
    (["paths", "--v", "5000", "--format", "json"], "paths_5000.json"),
    # Near grazing exit the rounded third-bounce sine rejects 3 paths.
    (["paths", "--v", "572", "--theta-out-deg", "89.9999999", "--format", "json"],
     "paths_572_grazing.json"),
    (["--dump-default-config"], "default_config.yaml"),
    # One populated bin, and a wide baseline passband.
    (["simulate", "--v-center", "300"], "simulate_300.json"),
    (["simulate", "--v-center", "5000"], "simulate_5000.json"),
    # 4001 x 401 grid where the 2 mm exit pinhole at 300 mm is the tightest.
    (["simulate", "--config", str(GOLDEN / "tight_pinhole.yaml")],
     "simulate_tight_pinhole.json"),
    # The same grid at every README centre: pins the kernels' traced rows.
    (README_SCAN + ["--config", str(GOLDEN / "tight_pinhole.yaml")], "scan_tight_pinhole.csv"),
    # A baseline at 60 degrees and order -2, evanescent at 300 m/s.
    (README_SCAN + ["--config", str(GOLDEN / "baseline_60deg.yaml")], "scan_baseline_60deg.csv"),
]


@pytest.mark.parametrize("args, name", CASES)
def test_cli_output_matches_golden(capsysbinary, args, name):
    assert entrypoint(args) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for args, name in CASES:
        print("\t".join([name, *args]))
