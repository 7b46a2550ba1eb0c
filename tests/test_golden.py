"""The one table of CLI expectations: every case's exit code, stdout and stderr.

Each case of ``CASES`` gives the arguments of one command, the name of the file
under ``tests/golden/`` holding its stdout, and its exit code; its stderr is
``tests/golden/<name>.err`` when that file exists, and nothing otherwise.  Each
row of ``FAILURES`` gives a rejected or infeasible input inline: its arguments,
a config text or None, its exit code, stdout and stderr.  The config text is
written to a file whose path replaces ``{config}`` in the arguments and the
stderr.  The tests run each case in process and compare all three outputs byte
for byte, except that a ``Prefix`` stderr need only start with the prefix and
be one line.  ``python tests/test_golden.py DIR`` writes the configs and
expected outputs of the exact rows under DIR and prints every case but the
prefix rows: the exit code, the expected stdout and stderr files, then the
arguments, each field ended by ``\\x1f`` so that an empty argument survives;
CI replays them through the installed ``mwmono`` console script.
Regenerate a file only for an intended change of output, e.g.
``mwmono scan --v-min 300 --v-max 5000 --v-step 100 > tests/golden/scan.csv``.
"""

import os
import sys
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


class Prefix(str):
    """A stderr known up to text that argparse, PyYAML or Python's integer parser
    writes, whose wording differs between Python versions."""


SIM = ["simulate", "--config", "{config}"]
PATHS = ["paths", "--v", "1000"]
INVALID = "config error: invalid config at "
HUGE = "9" * 400  # an integer too large for a float
SPLIT = "config error: beam width 1e-300 m/s cannot be split into 2001 distinct velocity bins at "
SCAN_HEADER = "v_center_mps,speed_ratio_in,speed_ratio_out,speed_ratio_baseline,throughput,flag\n"
ORDERS_1001 = ",".join(["1"] * 1001)

#: (config text with a slot for the value, key) of every float field.
FLOAT_FIELDS = [
    ("device: {separation_mm: %s}", "device/separation_mm"),
    ("device: {length_mm: %s}", "device/length_mm"),
    ("setting: {theta_out_deg: %s}", "setting/theta_out_deg"),
    ("beamline: {source_pinhole: {diameter_mm: %s}}", "beamline/source_pinhole/diameter_mm"),
    ("beamline: {exit_pinholes: [{diameter_mm: %s, distance_mm: 500}]}",
     "beamline/exit_pinholes/0/diameter_mm"),
    ("beamline: {exit_pinholes: [{diameter_mm: 10, distance_mm: %s}]}",
     "beamline/exit_pinholes/0/distance_mm"),
    ("particle: {mass_kg: %s}", "particle/mass_kg"),
    ("material: {period_angstrom: %s, reflection_probabilities: {'1': 0.03}}",
     "material/period_angstrom"),
    ("material: {period_angstrom: 3.383, reflection_probabilities: {'1': %s}}",
     "material/reflection_probabilities/1"),
    ("beam: {v_center_mps: %s}", "beam/v_center_mps"),
    ("beam: {v_width_mps: %s}", "beam/v_width_mps"),
    ("baseline: {theta_inc_deg: %s}", "baseline/theta_inc_deg"),
]

#: (arguments, config text or None, exit code, stdout, stderr) of every rejected
#: or infeasible input.
FAILURES = [
    # A config names the key or, for a range a domain object rejects, the section.
    (SIM, "beam:\n  v_center_mps: -5\n", 2, "",
     f"{INVALID}beam: center_velocity must exceed half the width (-5 vs 250.0)\n"),
    (SIM, "bogus: 1", 2, "", f"{INVALID}<root>: unknown key 'bogus'\n"),
    (SIM, "setting: {bogus: 1}", 2, "", f"{INVALID}setting: unknown key 'bogus'\n"),
    (SIM, "beamline: {exit_pinholes: [{diameter_mm: 10, distance_mm: 500, bogus: 1}]}", 2, "",
     f"{INVALID}beamline/exit_pinholes/0: unknown key 'bogus'\n"),
    (SIM, "device: {separation_mm: five}", 2, "",
     f"{INVALID}device/separation_mm: expected a number, got 'five'\n"),
    (SIM, "device: {length_mm: true}", 2, "",
     f"{INVALID}device/length_mm: expected a number, got True\n"),
    (SIM, "beam: {v_width_mps: 0}", 2, "", f"{INVALID}beam: full_width must be positive, got 0\n"),
    (SIM, "device: {separation_mm: -1.0}", 2, "",
     f"{INVALID}device: separation must be positive, got -0.001\n"),
    (SIM, "setting: {theta_out_deg: 90}", 2, "",
     f"{INVALID}setting: theta_out must be in (0, pi/2), got 1.5707963267948966\n"),
    (SIM, "baseline: {theta_inc_deg: 0}", 2, "",
     f"{INVALID}baseline/theta_inc_deg: theta_inc_deg must be in (0, 90), got 0\n"),
    (SIM, "beamline: {exit_pinholes: []}", 2, "",
     f"{INVALID}beamline/exit_pinholes: expected a non-empty list, got []\n"),
    (SIM, "beamline: {exit_pinholes: [{diameter_mm: 10}]}", 2, "",
     f"{INVALID}beamline/exit_pinholes/0: missing key 'distance_mm'\n"),
    (SIM, "material: {period_angstrom: 3.383, reflection_probabilities: {x: 0.5}}", 2, "",
     f"{INVALID}material/reflection_probabilities: unknown key 'x'\n"),
    (SIM, "material: {period_angstrom: 3.383, reflection_probabilities: {'1': 1.5}}", 2, "",
     f"{INVALID}material: reflection probability for order 1 not in (0, 1]: 1.5\n"),
    # "1" and "01" both name order 1; keeping either would change the throughput.
    (SIM, "material: {period_angstrom: 3.383,"
     " reflection_probabilities: {'0': 0.06, '1': 0.03, '01': 0.5, '2': 0.015}}", 2, "",
     f"{INVALID}material: two reflection probability keys name |order| = 1\n"),
    (SIM, "sampling: {velocity_bins: 2}", 2, "",
     f"{INVALID}sampling: grid 2 x 201 is below 3 x 1\n"),
    # One past each sampling limit.
    (SIM, "sampling: {velocity_bins: 100002}", 2, "",
     f"{INVALID}sampling: grid 100002 x 201 exceeds the limit 100001 x 10001\n"),
    (SIM, "sampling: {offset_samples: 10002}", 2, "",
     f"{INVALID}sampling: grid 2001 x 10002 exceeds the limit 100001 x 10001\n"),
    # Values that a JSON-schema type and range check lets through.
    (SIM, "sampling: {velocity_bins: 201.0}", 2, "",
     f"{INVALID}sampling/velocity_bins: expected an integer, got 201.0\n"),
    (SIM, "beam: {v_center_mps: .nan}", 2, "",
     f"{INVALID}beam/v_center_mps: expected a finite number, got nan\n"),
    (SIM, "beam: {v_center_mps: .inf}", 2, "",
     f"{INVALID}beam/v_center_mps: expected a finite number, got inf\n"),
    (SIM, "beamline: {exit_pinholes: [{diameter_mm: 10, distance_mm: 1000},"
     " {diameter_mm: 10, distance_mm: 500}]}", 2, "",
     f"{INVALID}beamline: exit pinholes must be ordered by increasing distance\n"),
    # The source aperture has a width only, and a custom particle a mass only.
    (SIM, "beamline: {source_pinhole: {diameter_mm: 1.0, distance_mm: 100.0}}", 2, "",
     f"{INVALID}beamline/source_pinhole: unknown key 'distance_mm'\n"),
    (SIM, "particle: {mass_kg: 6.6e-27, name: x}", 2, "",
     f"{INVALID}particle: unknown key 'name'\n"),
    (SIM, "beamline: {source_pinhole: {diameter_mm: 0}}", 2, "",
     f"{INVALID}beamline: source diameter must be positive, got 0.0\n"),
    (SIM, "- 1\n- 2\n", 2, "", "config error: config {config} must be a mapping\n"),
    # A float field takes integers too, but 400 digits overflow a float.
    *[([*command, "--config", "{config}"], text % HUGE, 2, "",
       f"{INVALID}{key}: expected a finite number, got {HUGE}\n")
      for text, key in FLOAT_FIELDS for command in (["simulate"], PATHS)],
    # The YAML parser recurses once per level, past Python's recursion limit.
    *[([*command, "--config", "{config}"], text, 2, "",
       Prefix("config error: cannot read config {config}: "))
      for text in ("[" * 50_000 + "]" * 50_000, "{b: " * 50_000 + "1" + "}" * 50_000)
      for command in (["simulate"], PATHS)],
    # The file's shape is checked before the flags are merged over it.
    ([*PATHS, "--config", "{config}"], "setting: 5", 2, "",
     f"{INVALID}setting: expected a mapping, got 5\n"),
    ([*PATHS, "--config", "{config}", "--theta-out-deg", "80"], "setting: 5", 2, "",
     f"{INVALID}setting: expected a mapping, got 5\n"),
    (SIM, "beam: [1, 2]", 2, "", f"{INVALID}beam: expected a mapping, got [1, 2]\n"),
    ([*SIM, "--v-center", "2000", "--v-width", "100"], "beam: [1, 2]", 2, "",
     f"{INVALID}beam: expected a mapping, got [1, 2]\n"),
    ([*PATHS, "--particle", "nope"], None, 2, "",
     f"{INVALID}particle: unknown particle preset 'nope'; known: ['helium-3', 'helium-4']\n"),
    ([*PATHS, "--config", "{config}"], "material: nope", 2, "",
     f"{INVALID}material: unknown material preset 'nope'; known: ['si111-h1x1']\n"),
    # A baseline order the material has no probability for, even where no row reaches it.
    *[([*command, "--config", "{config}"], "baseline: {order: -3}", 2, "",
       f"{INVALID}baseline/order: no reflection probability for |order| = 3\n")
      for command in (["simulate"], ["scan", "--v-min", "1000", "--v-max", "1000"],
                      ["scan", "--v-min", "100", "--v-max", "200", "--v-step", "100"])],
    # Orders beyond +-1e9, and past 4300 digits, which Python refuses to parse at all.
    ([*PATHS, "--order", HUGE], None, 2, "",
     "error: argument --order: every |order| must be at most 1000000000\n"),
    (["incidence-table", "--orders", HUGE], None, 2, "",
     "error: argument --orders: every |order| must be at most 1000000000\n"),
    (["divergence-table", "--orders", f"1,-{HUGE}"], None, 2, "",
     "error: argument --orders: every |order| must be at most 1000000000\n"),
    (SIM, f"setting: {{total_order: {HUGE}}}", 2, "",
     f"{INVALID}setting: |total_order| must be at most 1000000000, got {HUGE}\n"),
    (SIM, f"baseline: {{order: -{HUGE}}}", 2, "",
     f"{INVALID}baseline/order: |order| must be at most 1000000000, got -{HUGE}\n"),
    (SIM, "setting: {total_order: %s}" % ("9" * 5000), 2, "",
     Prefix("config error: cannot read config {config}: ")),
    # Usage errors: one line each.
    (["paths"], None, 2, "", Prefix("error: ")),
    ([*PATHS, "--format", "xml"], None, 2, "", Prefix("error: argument --format: ")),
    (["bogus"], None, 2, "", Prefix("error: ")),
    ([*PATHS, "--order", "1000000001"], None, 2, "",
     "error: argument --order: every |order| must be at most 1000000000\n"),
    *[(["incidence-table", "--orders", orders], None, 2, "",
       f"error: argument --orders: expected an integer, got {orders.split(',')[-1]!r}\n")
      for orders in ("x", "1,x", "1.5", "nan")],
    (["incidence-table", "--orders", ","], None, 2, "",
     "error: argument --orders: expected at least one order\n"),
    (["divergence-table", "--orders", ""], None, 2, "",
     "error: argument --orders: expected at least one order\n"),
    (["simulate", "--config", "missing.yaml"], None, 2, "", "config error: cannot read config "
     "missing.yaml: [Errno 2] No such file or directory: 'missing.yaml'\n"),
    ([*PATHS, "foo"], None, 2, "", "error: unexpected argument 'foo'\n"),
    # A flag that a command does not read.
    *[(args, None, 2, "", f"error: No such option: {args[1]}\n") for args in (
        ["simulate", "--format", "csv"], ["incidence-table", "--order", "2"],
        ["divergence-table", "--order", "2"], ["paths", "--v-center", "2000", "--v", "1000"],
        ["incidence-table", "--v-width", "100"], ["divergence-table", "--v-center", "2000"],
        ["simulate", "--material", "si111-h1x1"], ["scan", "--v-center", "1500"])],
    # Velocity flags must be positive and finite.
    (["paths", "--v", "0"], None, 2, "",
     "config error: --v must be a positive finite velocity, got 0.0\n"),
    (["paths", "--v", "nan"], None, 2, "",
     "config error: --v must be a positive finite velocity, got nan\n"),
    (["incidence-table", "--v-min", "-100"], None, 2, "", "config error: velocity grid -100.0:"
     "5000.0:100.0 needs finite 0 < v_min <= v_max, v_step > 0 and at most 1000000 points\n"),
    (["divergence-table", "--v-min", "0"], None, 2, "", "config error: velocity grid 0.0:"
     "5000.0:100.0 needs finite 0 < v_min <= v_max, v_step > 0 and at most 1000000 points\n"),
    # 1,001 orders x 1,000 velocities, refused before any row is computed.
    *[([command, "--orders", ORDERS_1001, "--v-min", "1000", "--v-max", "1999", "--v-step", "1"],
       None, 2, "", "config error: 1001 orders x 1000 velocities exceed the limit of 1000000 "
       "table rows\n") for command in ("incidence-table", "divergence-table")],
    # A table with no ok row prints every row, then counts them by status.
    (["incidence-table", "--orders", "1", "--v-min", "100", "--v-max", "200", "--v-step", "50"],
     None, 3, "velocity_mps,order,theta_inc_deg,status\n100.0,1,,below_cutoff\n"
     "150.0,1,,below_cutoff\n200.0,1,,below_cutoff\n", "infeasible: no row ok (3 below_cutoff)\n"),
    (["incidence-table", "--orders", "1", "--v-min", "100", "--v-max", "200"], None, 3,
     "velocity_mps,order,theta_inc_deg,status\n100.0,1,,below_cutoff\n200.0,1,,below_cutoff\n",
     "infeasible: no row ok (2 below_cutoff)\n"),
    (["divergence-table", "--orders", "1,2", "--v-min", "100", "--v-max", "1000",
      "--v-step", "900", "--theta-out-deg", "89.9999999"], None, 3,
     "velocity_mps,order,dtheta_dv_rad_per_mps,status\n100.0,1,,below_cutoff\n"
     "1000.0,1,,GrazingSingularityError\n100.0,2,,below_cutoff\n"
     "1000.0,2,,GrazingSingularityError\n",
     "infeasible: no row ok (2 below_cutoff, 2 GrazingSingularityError)\n"),
    # At a grazing exit the derivative's arcsin argument is too close to 1.
    (["divergence-table", "--orders", "1", "--v-min", "1000", "--v-max", "1000",
      "--theta-out-deg", "89.9999999"], None, 3,
     "velocity_mps,order,dtheta_dv_rad_per_mps,status\n1000.0,1,,GrazingSingularityError\n",
     "infeasible: no row ok (1 GrazingSingularityError)\n"),
    # Below the 295.8 m/s first-order cutoff.
    (["simulate", "--v-center", "290", "--v-width", "20"], None, 3, "",
     "infeasible: velocity 290.0 m/s below cutoff for |order| = 1 (cutoff 295.8 m/s)\n"),
    (["simulate", "--v-center", "200", "--v-width", "100"], None, 3, "",
     "infeasible: velocity 200.0 m/s below cutoff for |order| = 1 (cutoff 295.8 m/s)\n"),
    # The top of the velocity axis, 1e308 + 8e307, overflows to Infinity.
    (["simulate", "--v-center", "1e308", "--v-width", "1.6e308", "--theta-out-deg", "75"], None,
     2, "", f"{INVALID}beam: center_velocity 1e+308 + half the width overflows\n"),
    # All 2001 bins round to one velocity; the zero FWHM printed an infinite speed ratio.
    (["simulate", "--v-center", "1000", "--v-width", "1e-300", "--theta-out-deg", "75"], None,
     2, "", f"{SPLIT}1000.0 m/s\n"),
    (["scan", "--v-min", "1000", "--v-max", "1000", "--v-width", "1e-300", "--theta-out-deg",
      "75"], None, 2, "", f"{SPLIT}1000.0 m/s\n"),
    # 200 m/s is below the cutoff, but the width is checked first.
    (["simulate", "--v-center", "200", "--v-width", "1e-300"], None, 2, "", f"{SPLIT}200.0 m/s\n"),
    (["scan", "--v-min", "200", "--v-max", "200", "--v-width", "1e-300"], None, 2, "",
     f"{SPLIT}200.0 m/s\n"),
    # The rises of a 1e300 mm gap overflow to infinity inside the kernel.
    (["simulate", "--v-center", "300", "--config", "{config}"], "device: {separation_mm: 1.0e+300}",
     3, "", "infeasible: central ray blocked inside the device\n"),
    # simulate rejects the centre whose baseline is evanescent; scan leaves its cell empty.
    (["simulate", "--config", str(GOLDEN / "baseline_60deg.yaml"), "--v-center", "300"], None, 3,
     "", "infeasible: baseline centre velocity evanescent\n"),
    # An --out file under a missing directory.
    ([*PATHS, "--out", "missing/out.txt"], None, 2, "",
     "config error: cannot write missing/out.txt: No such file or directory\n"),
    (["scan", "--v-min", "1000", "--v-max", "1000", "--format", "json", "--out",
      "missing/out.txt"], None, 2, "",
     "config error: cannot write missing/out.txt: No such file or directory\n"),
    # A centre plus half the width that overflows is flagged, not simulated.
    (["scan", "--v-min", "1.5e308", "--v-max", "1.5e308", "--v-width", "1e308"], None, 3,
     f"{SCAN_HEADER}1.5e+308,1.5,,,,invalid_center\n",
     "infeasible: no centre simulated (1 invalid_center)\n"),
    # The sine step 2 pi hbar / (m a) / v overflows here; with order 0 the shift
    # 0 * inf is NaN.  Every row is evanescent either way, and nothing warns.
    *[(["scan", "--config", "{config}", "--v-min", "1e-307", "--v-max", "1e-307", "--v-width",
        "1e-307"], f"baseline: {{order: {order}}}", 3, f"{SCAN_HEADER}1e-307,1.0,,,,below_cutoff\n",
       "infeasible: no centre simulated (1 below_cutoff)\n") for order in (-1, 0)],
    # At 1e-299 m/s the sine step is finite, but 1e9 steps overflow.
    (["scan", "--config", "{config}", "--v-min", "1e-299", "--v-max", "1e-299", "--v-width",
      "1e-299"], "material: {period_angstrom: 3.383, reflection_probabilities:"
     " {'0': 0.06, '1': 0.03, '1000000000': 0.01}}\nbaseline: {order: 1000000000}\n", 3,
     f"{SCAN_HEADER}1e-299,1.0,,,,below_cutoff\n",
     "infeasible: no centre simulated (1 below_cutoff)\n"),
]


# The ids pytest gives (arguments, name) alone: the exit code stays out of the test names.
@pytest.mark.parametrize("args, name, code", CASES,
                         ids=[f"args{i}-{name}" for i, (_, name, _) in enumerate(CASES)])
def test_cli_output_matches_golden(capsysbinary, args, name, code):
    err = GOLDEN / f"{name}.err"
    assert entrypoint(args) == code
    assert capsysbinary.readouterr() == (
        (GOLDEN / name).read_bytes(), err.read_bytes() if err.exists() else b"")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args, config, code, out, err", FAILURES,
                         ids=[f"row{i}-{row[0][0]}" for i, row in enumerate(FAILURES)])
def test_cli_failure_matches(tmp_path, monkeypatch, capsysbinary, args, config, code, out, err):
    monkeypatch.chdir(tmp_path)  # where missing.yaml and missing/out.txt do not exist
    path = str(tmp_path / "config.yaml")
    if config is not None:
        (tmp_path / "config.yaml").write_text(config)
    assert entrypoint([arg.replace("{config}", path) for arg in args]) == code
    got_out, got_err = capsysbinary.readouterr()
    expected = err.replace("{config}", path).encode()
    if isinstance(err, Prefix):
        assert got_out == out.encode() and got_err.startswith(expected)
        assert got_err.count(b"\n") == 1 and got_err.endswith(b"\n")
    else:
        assert (got_out, got_err) == (out.encode(), expected)


if __name__ == "__main__":
    directory = Path(sys.argv[1])
    directory.mkdir(parents=True, exist_ok=True)
    for args, name, code in CASES:
        err = GOLDEN / f"{name}.err"
        print(code, GOLDEN / name, err if err.exists() else os.devnull, *args,
              sep="\x1f", end="\x1f\n")
    for i, (args, config, code, out, err) in enumerate(FAILURES):
        if not isinstance(err, Prefix):
            path = str(directory / f"{i}.yaml")
            if config is not None:
                Path(path).write_text(config)
            (directory / f"{i}.out").write_text(out)
            (directory / f"{i}.err").write_text(err.replace("{config}", path))
            print(code, directory / f"{i}.out", directory / f"{i}.err",
                  *[arg.replace("{config}", path) for arg in args], sep="\x1f", end="\x1f\n")
