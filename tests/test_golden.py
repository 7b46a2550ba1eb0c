"""The CLI reproduces stored outputs of the README commands byte for byte.

The scan and simulate files under ``tests/golden/`` were written by the
full-grid kernels before rows were settled from their end columns, and the
further simulate files (``simulate_300``, ``simulate_5000`` and the
``tight_pinhole.yaml`` run) by the settled kernels before rows were counted
from their cut intervals; the table, path and default-config files by the
CLI before its config layer was reduced to one merge and one validation;
the further path files (JSON prints every float in full) before the path
records became named tuples.  ``default_config.yaml`` was regenerated once,
on purpose, when the source pinhole's unused ``distance_mm`` was deleted; it
lost that one line.  Regenerate one only for
an intended change of output, e.g.
``mwmono scan --v-min 300 --v-max 5000 --v-step 100 > tests/golden/scan.csv``.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from mwmono.cli import main

GOLDEN = Path(__file__).parent / "golden"
README_SCAN = ["scan", "--v-min", "300", "--v-max", "5000", "--v-step", "100"]


@pytest.mark.parametrize("args, name", [
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
])
def test_cli_output_matches_golden(args, name):
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0
    assert result.stdout_bytes == (GOLDEN / name).read_bytes()
