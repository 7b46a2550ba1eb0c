import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import mwmono
from mwmono import RunConfig, velocity_divergence, incidence_for_output
from mwmono.cli import _COMMANDS, _velocity_grid, entrypoint
from mwmono.config import DEFAULT_CONFIG, _merge
from mwmono.geometry import (
    BASELINE_ORDER, BASELINE_THETA_INC, MAX_OFFSET_SAMPLES, MAX_VELOCITY_BINS,
)
from test_golden import CASES, FAILURES


class Result(NamedTuple):
    exit_code: int
    output: str
    stdout_bytes: bytes


def invoke(args):
    """Run the CLI in process on ``args``, capturing its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = entrypoint(args)
    return Result(code, out.getvalue(), out.getvalue().encode())


class TestConfig:
    def test_default_round_trip(self):
        result = invoke(["--dump-default-config"])
        assert result.exit_code == 0
        reloaded = RunConfig.from_dict(yaml.safe_load(result.output))
        assert reloaded.data == RunConfig.from_dict({}).data

    def test_default_baseline_is_the_kernel_default(self):
        cfg = RunConfig.from_dict({})
        assert cfg.baseline_theta_inc == BASELINE_THETA_INC
        assert cfg.baseline_order == BASELINE_ORDER

    def test_json_config_accepted(self, tmp_path):
        # json.dump writes 5e-27 and 1e-05 without a dot, which YAML 1.1 reads as strings.
        cfg, decimals = tmp_path / "run.json", tmp_path / "run.yaml"
        cfg.write_text(json.dumps({"particle": {"mass_kg": 5e-27}, "beam": {"v_center_mps": 800.0},
                                   "beamline": {"source_pinhole": {"diameter_mm": 1e-05}}}))
        decimals.write_text("particle: {mass_kg: 0.000000000000000000000000005}\n"
                            "beam: {v_center_mps: 800.0}\n"
                            "beamline: {source_pinhole: {diameter_mm: 0.00001}}\n")
        assert RunConfig.from_file(cfg).beam().center_velocity == 800.0
        result = invoke(["simulate", "--config", str(cfg)])
        assert result.exit_code == 0
        assert result.stdout_bytes == invoke(["simulate", "--config", str(decimals)]).stdout_bytes

    def test_empty_file_is_the_defaults(self, tmp_path):
        cfg = tmp_path / "empty.yaml"
        cfg.write_text("")
        result = invoke(["simulate", "--config", str(cfg)])
        assert result.exit_code == 0
        assert result.stdout_bytes == invoke(["simulate"]).stdout_bytes

    def test_config_shares_no_data_with_the_defaults(self):
        saved, dumped = copy.deepcopy(DEFAULT_CONFIG), invoke(["--dump-default-config"]).output
        try:
            cfg = RunConfig.from_dict({})
            cfg.data["device"]["length_mm"] = 1.0
            cfg.data["beamline"]["exit_pinholes"][0]["diameter_mm"] = 2.0
            assert DEFAULT_CONFIG == saved
            assert invoke(["--dump-default-config"]).output == dumped
            assert RunConfig.from_dict({}).data == saved
        finally:
            DEFAULT_CONFIG.clear()
            DEFAULT_CONFIG.update(saved)

    def test_config_shares_no_data_with_its_layers(self):
        layer = {"particle": {"mass_kg": 5e-27},
                 "beamline": {"exit_pinholes": [{"diameter_mm": 2.0, "distance_mm": 300.0}]}}
        pristine = copy.deepcopy(layer)
        cfg = RunConfig.from_dict(layer)
        layer["particle"]["mass_kg"] = 1.0
        layer["beamline"]["exit_pinholes"][0]["diameter_mm"] = 4.0
        layer["beamline"]["exit_pinholes"].append({"diameter_mm": 2.0, "distance_mm": 600.0})
        expected = RunConfig.from_dict(pristine)
        assert cfg.data == expected.data
        assert cfg.beamline() == expected.beamline()
        assert cfg.particle() == expected.particle()

    def test_every_config_key_changes_the_outcome(self, tmp_path, capsys):
        # A key that no computation reads is dead config.  Each value is valid
        # and should move the simulate outcome away from the base's.
        def leaves(node, path=""):
            if not isinstance(node, (dict, list)):
                yield path
                return
            for key, item in node.items() if isinstance(node, dict) else enumerate(node):
                yield from leaves(item, f"{path}/{key}" if path else key)

        def outcome(config):
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(config))
            code = entrypoint(["simulate", "--config", str(cfg)])
            return code, capsys.readouterr().out

        assert set(leaves(DEFAULT_CONFIG)) == set(LIVE_VALUES)
        # The first exit pinhole binds only when it is the tightest, as in
        # tight_pinhole.yaml; then both pinholes have a value that binds.
        base = _merge(DEFAULT_CONFIG, {"beamline": {"exit_pinholes": [
            {"diameter_mm": 2.0, "distance_mm": 300.0},
            {"diameter_mm": 10.0, "distance_mm": 1000.0}]}})
        base_outcome = outcome(base)
        assert base_outcome[0] == 0
        for path, value in LIVE_VALUES.items():
            config = copy.deepcopy(base)
            *parents, last = path.split("/")
            node = config
            for key in parents:
                node = node[int(key) if isinstance(node, list) else key]
            node[last] = value
            code, out = outcome(config)
            assert code != 2, path
            assert (code, out) != base_outcome, path


#: A valid value for every leaf of the default config that should change the
#: simulate outcome.  Changes of 10 % to the device or to the first exit
#: pinhole move nothing at 1000 m/s, so these are larger.
LIVE_VALUES = {
    "particle": "helium-3",
    "material": {"period_angstrom": 3.0,
                 "reflection_probabilities": {"0": 0.06, "1": 0.03, "2": 0.015}},
    "setting/theta_out_deg": 80.0,
    "setting/total_order": -2,
    "device/separation_mm": 2.0,
    "device/length_mm": 100.0,
    "beamline/source_pinhole/diameter_mm": 2.0,
    "beamline/exit_pinholes/0/diameter_mm": 3.0,
    "beamline/exit_pinholes/0/distance_mm": 500.0,
    "beamline/exit_pinholes/1/diameter_mm": 1.0,
    "beamline/exit_pinholes/1/distance_mm": 5000.0,
    "beam/v_center_mps": 1500.0,
    "beam/v_width_mps": 300.0,
    "sampling/velocity_bins": 1001,
    "sampling/offset_samples": 101,
    "baseline/theta_inc_deg": 40.0,
    "baseline/order": -2,
}


class TestIncidenceTable:
    def test_zero_order_constant(self):
        result = invoke([
            "incidence-table", "--orders", "0",
            "--v-min", "500", "--v-max", "1000", "--v-step", "100",
        ])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "velocity_mps,order,theta_inc_deg,status"
        angles = {line.split(",")[2] for line in lines[1:]}
        assert angles == {"85.0"}

    def test_single_row(self):
        result = invoke([
            "incidence-table", "--orders", "1",
            "--v-min", "1000", "--v-max", "1000", "--v-step", "100",
        ])
        lines = result.output.strip().split("\n")
        assert len(lines) == 2
        v, n, theta, status = lines[1].split(",")
        assert status == "ok"
        assert float(theta) == pytest.approx(44.548, abs=1e-3)

    def test_cutoff_onsets(self):
        result = invoke([
            "incidence-table", "--orders", "1,2,3",
            "--v-min", "100", "--v-max", "1200", "--v-step", "10",
        ])
        first_ok = {}
        for line in result.output.strip().split("\n")[1:]:
            v, n, theta, status = line.split(",")
            if status == "ok" and int(n) not in first_ok:
                first_ok[int(n)] = float(v)
        assert first_ok[1] == pytest.approx(300.0, abs=10.0)
        assert first_ok[2] == pytest.approx(600.0, abs=10.0)
        assert first_ok[3] == pytest.approx(890.0, abs=10.0)

    def test_zero_order_at_underflowed_momentum(self):
        # m * v underflows to 0, so the wavelength is inf; order 0 stays specular.
        result = invoke([
            "incidence-table", "--orders", "0,1", "--v-min", "1e-309", "--v-max", "1e-309",
        ])
        assert result.exit_code == 0
        assert result.output.split("\n")[1:3] == [
            "1e-309,0,85.0,ok", "1e-309,1,,below_cutoff",
        ]


class TestDivergenceTable:
    def test_zero_order_rows_are_zero(self):
        result = invoke([
            "divergence-table", "--orders", "0",
            "--v-min", "500", "--v-max", "700", "--v-step", "100",
        ])
        for line in result.output.strip().split("\n")[1:]:
            assert float(line.split(",")[2]) == 0.0

    def test_higher_order_more_sensitive(self):
        result = invoke([
            "divergence-table", "--orders", "1,2,3",
            "--v-min", "1000", "--v-max", "1000", "--v-step", "100",
        ])
        magnitudes = {}
        for line in result.output.strip().split("\n")[1:]:
            v, n, d, status = line.split(",")
            magnitudes[int(n)] = abs(float(d))
        assert magnitudes[1] < magnitudes[2] < magnitudes[3]

    def test_matches_library_bit_exact(self, helium, grating, setting):
        result = invoke([
            "divergence-table", "--orders", "1",
            "--v-min", "1000", "--v-max", "1000", "--v-step", "100",
        ])
        emitted = float(result.output.strip().split("\n")[1].split(",")[2])
        theta = incidence_for_output(setting, helium, grating, 1000.0)
        assert emitted == velocity_divergence(theta, 1, helium, grating, 1000.0)

    def test_signed_orders_give_equal_rows(self):
        grid = ["--v-min", "500", "--v-max", "3000", "--v-step", "500"]
        pos = invoke(["divergence-table", "--orders", "1,2,3"] + grid).output
        neg = invoke(["divergence-table", "--orders", "-1,-2,-3"] + grid).output
        pos_rows = [line.split(",") for line in pos.strip().split("\n")[1:]]
        neg_rows = [line.split(",") for line in neg.strip().split("\n")[1:]]
        assert len(pos_rows) == len(neg_rows) == 18
        for (v, n, d, status), (v_neg, n_neg, d_neg, status_neg) in zip(pos_rows, neg_rows):
            assert (v_neg, int(n_neg), d_neg, status_neg) == (v, -int(n), d, status)
        assert any(row[3] == "ok" for row in pos_rows)


class TestPaths:
    def test_census_columns_and_groups(self):
        result = invoke(["paths", "--v", "1000"])
        lines = result.output.strip().split("\n")
        assert lines[0].split(",") == [
            "n1", "n2", "n3", "alpha1_deg", "alpha2_deg", "d_over_s",
            "band_low", "band_high", "transmission_percent", "group_id",
        ]
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 17
        assert len({row[9] for row in rows}) == 12

    def test_transmission_percent(self):
        result = invoke(["paths", "--v", "1000"])
        rows = [line.split(",") for line in result.output.strip().split("\n")[1:]]
        by_orders = {(int(r[0]), int(r[1]), int(r[2])): r for r in rows}
        assert float(by_orders[(0, 1, 0)][8]) == pytest.approx(0.0108, rel=1e-9)
        # Paths beyond the grating's tabulated orders carry no rate.
        assert by_orders[(-2, -2, 5)][8] == ""

    def test_json_format(self):
        result = invoke(["paths", "--v", "1000", "--format", "json"])
        rows = json.loads(result.output)
        assert len(rows) == 17
        assert {"n1", "d_over_s", "group_id"} <= set(rows[0])

    def test_zero_order_at_underflowed_momentum(self):
        result = invoke(["paths", "--v", "1e-320", "--order", "0"])
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.output.strip().split("\n")[1:]]
        assert len(rows) == 1
        n1, n2, n3, alpha1, alpha2 = rows[0][:5]
        assert (n1, n2, n3) == ("0", "0", "0")
        assert float(alpha1) == float(alpha2) == pytest.approx(85.0, abs=1e-12)

    def test_order_conservation_in_output(self):
        result = invoke(["paths", "--v", "2000", "--order", "-1"])
        for line in result.output.strip().split("\n")[1:]:
            n1, n2, n3 = (int(x) for x in line.split(",")[:3])
            assert n1 + n2 + n3 == 1


class TestSimulateAndScan:
    def test_simulate_json_payload(self, tmp_path):
        out = tmp_path / "result.json"
        result = invoke([
            "simulate", "--v-center", "1000", "--out", str(out),
        ])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["speed_ratio"] > payload["input_speed_ratio"]
        assert payload["speed_ratio"] / payload["baseline_speed_ratio"] > 5.0
        assert 0.0 < payload["throughput"] < 1.0
        assert len(payload["histogram"]) == 2001

    def test_simulate_matches_scan_row(self):
        sim = json.loads(invoke(["simulate", "--v-center", "1000"]).output)
        scan = invoke([
            "scan", "--v-min", "1000", "--v-max", "1000", "--v-step", "100",
        ]).output.strip().split("\n")
        v, s_in, s_out, s_base, thr, flag = scan[1].split(",")
        assert float(s_out) == sim["speed_ratio"]
        assert float(thr) == sim["throughput"]
        assert flag == ""

    def test_scan_flags_below_cutoff(self, tmp_path):
        cfg = tmp_path / "narrow.yaml"
        cfg.write_text("beam:\n  v_width_mps: 20.0\nsampling:\n  velocity_bins: 201\n  offset_samples: 21\n")
        result = invoke([
            "scan", "--config", str(cfg),
            "--v-min", "260", "--v-max", "360", "--v-step", "100",
        ])
        lines = result.output.strip().split("\n")
        assert lines[1].endswith("below_cutoff")
        assert lines[2].endswith(",")  # ok row, empty flag

    def test_byte_identical_reruns(self):
        args = ["scan", "--v-min", "800", "--v-max", "1200", "--v-step", "200"]
        first = invoke(args).output
        second = invoke(args).output
        assert first == second

    def test_huge_velocities_give_valid_json(self):
        # Squared deviations of about 1e159 m/s once overflowed to Infinity.
        result = invoke(["simulate", "--v-center", "1e160", "--v-width", "1e159",
                         "--theta-out-deg", "75"])
        assert result.exit_code == 0

        def reject(constant):
            raise ValueError(f"not valid JSON: {constant}")

        payload = json.loads(result.output, parse_constant=reject)
        assert math.isfinite(payload["delta_v_std_mps"])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_pinhole_bounds_pass_every_ray(self, tmp_path):
        # A 1e300 mm pinhole 1e-300 mm from the exit passes every ray the default pinholes pass.
        cfg = tmp_path / "huge_pinhole.yaml"
        cfg.write_text("beamline:\n  exit_pinholes:\n"
                       "  - {diameter_mm: 1.0e+300, distance_mm: 1.0e-300}\n"
                       "  - {diameter_mm: 10.0, distance_mm: 500.0}\n"
                       "  - {diameter_mm: 10.0, distance_mm: 1000.0}\n")
        huge = invoke(["simulate", "--v-center", "300", "--config", str(cfg)])
        assert huge.exit_code == 0
        assert huge.stdout_bytes == invoke(["simulate", "--v-center", "300"]).stdout_bytes

    def test_scan_keeps_rows_beside_unsplittable_centres(self):
        # At 5e19 and 1e20 m/s the 500 m/s beam rounds onto too few distinct bins.
        result = invoke(["scan", "--v-min", "1000", "--v-max", "1e20",
                         "--v-step", "5e19", "--theta-out-deg", "75"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert len(lines) == 4
        assert lines[1].startswith("1000.0,2.0,") and lines[1].endswith(",")
        assert lines[2:] == ["5e+19,1e+17,,,,invalid_center", "1e+20,2e+17,,,,invalid_center"]

    @pytest.mark.parametrize("text, flag", [
        ("particle: {mass_kg: 5.0082343e-27}", ["--particle", "helium-3"]),
        ("material: {period_angstrom: 3.383,"
         " reflection_probabilities: {'0': 0.06, '1': 0.03, '2': 0.015}}",
         ["--config", "material: si111-h1x1"]),
    ], ids=["particle", "material"])
    def test_mapping_matches_its_preset(self, tmp_path, text, flag):
        cfg = tmp_path / "mapping.yaml"
        cfg.write_text(text + "\n")
        if flag[0] == "--config":
            named = tmp_path / "preset.yaml"
            named.write_text(flag[1] + "\n")
            flag = ["--config", str(named)]
        custom = invoke(["simulate", "--config", str(cfg)])
        preset = invoke(["simulate", *flag])
        assert custom.exit_code == preset.exit_code == 0
        assert custom.stdout_bytes == preset.stdout_bytes

    def test_every_flag_changes_the_outcome(self, capsys):
        # A flag that cannot change a command's output is a dead flag.  A flag
        # added to a command fails here until it is given a value below.
        def outcome(name, args):
            code = entrypoint([name, *(token for item in args.items() for token in item)])
            return code, capsys.readouterr().out

        for name, (base, values) in FLAG_VALUES.items():
            flags = set(_COMMANDS[name][1])
            assert flags - {"--config", "--out"} == set(values), name
            base_code, base_out = outcome(name, base)
            assert base_code == 0, name
            for flag, value in values.items():
                code, out = outcome(name, {**base, flag: value})
                assert code == 0, (name, flag)
                assert out != base_out, (name, flag)

    def test_scan_validates_the_width_without_a_centre(self):
        # The configured 1000 m/s centre is at most half the 2500 m/s width, but no row reads it.
        result = invoke(["scan", "--v-width", "2500", "--v-min", "2000", "--v-max", "3000"])
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.output.strip().split("\n")[1:]]
        assert len(rows) == 11 and all(row[2] and row[5] == "" for row in rows)


#: Per command, its base arguments and, for each of its flags, a valid value
#: that should change the base run's stdout.
TABLE_FLAG_VALUES = (
    {"--orders": "1,2", "--v-min": "1000", "--v-max": "1200", "--v-step": "100"},
    {"--particle": "helium-3", "--theta-out-deg": "80", "--format": "json", "--orders": "3",
     "--v-min": "1100", "--v-max": "1100", "--v-step": "200"},
)
FLAG_VALUES = {
    "incidence-table": TABLE_FLAG_VALUES,
    "divergence-table": TABLE_FLAG_VALUES,
    "paths": ({"--v": "1000"}, {"--particle": "helium-3", "--theta-out-deg": "80",
                                "--order": "-2", "--format": "json", "--v": "2000"}),
    "simulate": ({}, {"--particle": "helium-3", "--theta-out-deg": "80", "--v-center": "1500",
                      "--v-width": "300", "--order": "-2"}),
    "scan": ({"--v-min": "1000", "--v-max": "1200", "--v-step": "100"},
             {"--particle": "helium-3", "--theta-out-deg": "80", "--v-width": "300",
              "--order": "-2", "--format": "json", "--v-min": "1100", "--v-max": "1100",
              "--v-step": "200"}),
}


class TestGridBounds:
    @pytest.mark.parametrize("command", ["incidence-table", "divergence-table", "scan"])
    def test_tiny_step_exits_2_without_allocating(self, command):
        tracemalloc.start()
        try:
            code = entrypoint([command, "--v-step", "1e-9"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 5_000_000

    @pytest.mark.parametrize("args, grid", [
        (["incidence-table", "--orders", "1", "--v-min", "300", "--v-max", "1080", "--v-step",
          "300"], ["300.0", "600.0", "900.0"]),
        (["scan", "--v-min", "1000", "--v-max", "1080", "--v-step", "100"], ["1000.0"]),
    ])
    def test_grid_never_passes_v_max(self, capsys, args, grid):
        assert entrypoint(args) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert [row.split(",")[0] for row in rows] == grid

    def test_grid_keeps_an_endpoint_lost_to_rounding(self):
        # (0.3 - 0.1) / 0.1 is 1.9999999999999996 steps; the last point is kept.
        assert _velocity_grid(0.1, 0.3, 0.1) == [0.1, 0.2, 0.30000000000000004]

    @pytest.mark.parametrize("command", ["incidence-table", "divergence-table"])
    def test_order_table_may_fill_the_row_limit(self, monkeypatch, capsys, command):
        monkeypatch.setattr("mwmono.cli.MAX_GRID_POINTS", 6)
        grid = ["--v-min", "1000", "--v-max", "1200", "--v-step", "100"]
        assert entrypoint([command, "--orders", "1,2", *grid]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 6
        assert entrypoint([command, "--orders", "1,2,3", *grid]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "3 orders x 3 velocities exceed the limit of 6 table rows" in err

    @pytest.mark.parametrize("key, limit", [
        ("velocity_bins", MAX_VELOCITY_BINS), ("offset_samples", MAX_OFFSET_SAMPLES),
    ])
    def test_sampling_may_reach_its_limit(self, tmp_path, key, limit):
        cfg = tmp_path / "big.yaml"
        cfg.write_text(f"sampling:\n  {key}: {limit}\n")
        assert RunConfig.from_file(cfg).data["sampling"][key] == limit


class TestOrderBound:
    def test_large_total_order_builds_a_small_table(self):
        # Only the orders a bounce can take are tabulated, not every order up
        # to the total.
        tracemalloc.start()
        try:
            result = invoke(["paths", "--v", "1e300", "--order", "1000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0
        assert peak < 5_000_000


#: Orders: small ones, and integers beyond the float range.
order_values = (st.integers(min_value=-4, max_value=4)
                | st.integers(min_value=2 ** 1024, max_value=10 ** 400).flatmap(
                    lambda n: st.sampled_from([n, -n])))

#: Flag values: anything a float flag parses to, and a band of plausible velocities.
flag_values = st.floats() | st.floats(min_value=50.0, max_value=6000.0)


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "small.yaml"
    path.write_text("sampling: {velocity_bins: 201, offset_samples: 21}\n")
    return str(path)


class TestArguments:
    @pytest.mark.parametrize("name", [None, *_COMMANDS])
    def test_help_lists_each_flag_of_the_command(self, capsys, name):
        assert entrypoint([name, "--help"] if name else ["--help"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        listed = set(re.findall(r"--[a-z][a-z-]*", out))
        if name is None:
            assert listed == {"--help", "--version", "--dump-default-config"}
            assert all(command in out for command in _COMMANDS)
        else:
            assert listed == {"--help", *_COMMANDS[name][1]}


class TestInputContract:
    def test_scan_flags_invalid_centres(self, small_config):
        result = invoke([
            "scan", "--config", small_config, "--v-min", "100", "--v-max", "300",
        ])
        assert result.exit_code == 0
        rows = [line.split(",") for line in result.output.strip().split("\n")[1:]]
        assert [row[5] for row in rows] == ["invalid_center", "invalid_center", ""]
        assert rows[0] == ["100.0", "0.2", "", "", "", "invalid_center"]

    @settings(max_examples=300, deadline=None)
    @given(command=st.sampled_from(["simulate", "paths", "incidence-table",
                                    "divergence-table", "scan"]),
           a=flag_values, b=flag_values, theta=st.none() | flag_values,
           order=st.none() | order_values,
           orders=st.lists(order_values.map(str)
                           | st.sampled_from(["", " ", "x", "1.5", "nan", "-", "0x1"]),
                           min_size=1, max_size=3).map(",".join))
    # Regressions: an infinite step makes the grid point 1 + 0 * inf = nan, a
    # subnormal velocity underflows the momentum m * v to zero, and a
    # non-integer --orders token once ended in a traceback.
    @example(command="incidence-table", a=1.0, b=math.inf, theta=None, order=None, orders="1")
    @example(command="simulate", a=2.2e-309, b=2.2e-309, theta=None, order=None, orders="1")
    @example(command="incidence-table", a=1000.0, b=1.0, theta=None, order=None, orders="x")
    def test_every_flag_value_exits_0_2_or_3(self, small_config, command, a, b, theta, order,
                                             orders):
        argv = {
            "simulate": ["simulate", f"--v-center={a!r}", f"--v-width={b!r}"],
            "paths": ["paths", f"--v={a!r}"],
            "incidence-table": ["incidence-table", f"--orders={orders}", f"--v-min={a!r}",
                                f"--v-max={a!r}", f"--v-step={b!r}"],
            "divergence-table": ["divergence-table", f"--orders={orders}", f"--v-min={a!r}",
                                 f"--v-max={a!r}", f"--v-step={b!r}"],
            "scan": ["scan", f"--v-min={a!r}", f"--v-max={a!r}", f"--v-width={b!r}"],
        }[command]
        if theta is not None:
            argv.append(f"--theta-out-deg={theta!r}")
        if order is not None and command in {"paths", "simulate", "scan"}:
            argv.append(f"--order={order}")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = entrypoint(argv + ["--config", small_config])
        assert code in {0, 2, 3}
        # Exit 0 writes no stderr; exit 2 or 3 writes one line saying which kind of failure.
        err = err.getvalue()
        if code == 0:
            assert err == ""
        else:
            prefixes = ("infeasible: ",) if code == 3 else ("error: ", "config error: ")
            assert err.startswith(prefixes) and err.count("\n") == 1 and err.endswith("\n")

    def test_underflowing_mass_times_period_exits_0_2_or_3(self, tmp_path, capsys):
        # m * a underflows to 0, the divisor of the cutoff velocity and of the
        # kernels' sine step; both take the quotient as infinite.
        cfg = tmp_path / "tiny_period.yaml"
        cfg.write_text("material: {period_angstrom: 1.0e-300,"
                       " reflection_probabilities: {'0': 0.06, '1': 0.03}}\n")
        for args in (["simulate"], ["scan"], ["paths", "--v", "1000"],
                     ["incidence-table", "--orders", "0,1"], ["divergence-table", "--orders", "0,1"]):
            assert entrypoint([*args, "--config", str(cfg)]) in {0, 2, 3}, args
            out, err = capsys.readouterr()
            assert out or err, args
        assert entrypoint(["simulate", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.endswith("(cutoff inf m/s)\n")


GOLDEN = Path(__file__).parent / "golden"


def run_python(code, *args, **variables):
    """Run ``code`` in a fresh interpreter that imports this checkout's mwmono.

    Each keyword sets that variable of the child's environment, or removes it if None.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(mwmono.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])])
    for name, value in variables.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          timeout=60)


class TestLazyImports:
    """Commands that run no kernel load neither numpy nor, without a file, yaml; and none
    loads dataclasses."""

    @pytest.mark.parametrize("args, expected, blocked", [
        (["--version"], b"mwmono, version 0.1.0\n", ["numpy", "yaml", "dataclasses"]),
        (["paths", "--v", "1000"], "paths_1000.csv", ["numpy", "yaml", "dataclasses"]),
        (["paths", "--v", "5000", "--format", "json"], "paths_5000.json",
         ["numpy", "yaml", "dataclasses"]),
        (["incidence-table", "--orders", "1,2,3", "--v-min", "300", "--v-max", "5000",
          "--v-step", "100"], "incidence_table.csv", ["numpy", "yaml", "dataclasses"]),
        (["divergence-table", "--orders", "1,2,3"], "divergence_table.csv",
         ["numpy", "yaml", "dataclasses"]),
        (["paths", "--v", "1000", "--config", str(GOLDEN / "default_config.yaml")],
         "paths_1000.csv", ["numpy", "dataclasses"]),
        (["--dump-default-config"], "default_config.yaml", ["numpy", "dataclasses"]),
        # numpy loads inspect but not dataclasses.
        (["simulate", "--v-center", "1000"], "simulate_1000.json", ["yaml", "dataclasses"]),
    ], ids=["version", "paths-1000", "paths-5000-json", "incidence-table", "divergence-table",
            "config-file", "dump-default-config", "simulate-1000"])
    def test_command_runs_with_modules_blocked(self, args, expected, blocked):
        # A None entry in sys.modules makes importing that module raise ImportError.
        code = (f"import sys; sys.modules.update(dict.fromkeys({blocked!r})); "
                "sys.argv[0] = 'mwmono'; from mwmono.cli import run; run()")
        proc = run_python(code, *args)
        assert proc.returncode == 0, proc.stderr.decode()
        if isinstance(expected, str):
            expected = (GOLDEN / expected).read_bytes()
        assert proc.stdout == expected

    def test_config_validation_loads_neither(self):
        code = ("import sys, mwmono.cli; from mwmono.config import RunConfig; "
                "cfg = RunConfig.from_dict({}); "
                "cfg.particle(); cfg.grating(); cfg.setting(); cfg.device(); cfg.beamline(); "
                "cfg.beam(); print(sorted({'numpy', 'yaml', 'dataclasses', 'inspect'} "
                "& set(sys.modules)))")
        proc = run_python(code)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == b"[]\n"

    def test_cli_import_loads_only_the_standard_library(self):
        # Compared with the modules loaded before the import, since site may load others.
        code = ("import json, sys; before = set(sys.modules); import mwmono.cli; "
                "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
        proc = run_python(code)
        assert proc.returncode == 0, proc.stderr.decode()
        loaded = set(json.loads(proc.stdout))
        assert "mwmono" in loaded
        assert loaded - {"mwmono"} <= set(sys.stdlib_module_names)

    def test_path_selection_runs_without_numpy(self):
        code = ("import sys, mwmono\n"
                "cfg = mwmono.RunConfig.from_dict({})\n"
                "args = cfg.setting(), cfg.particle(), cfg.grating()\n"
                "for v in (300.0, 443.0, 591.0, 739.0, 1000.0, 5000.0):\n"
                "    path = mwmono.select_path(*args, v, cfg.device())\n"
                "    print(v, path.orders, mwmono.path_census(*args, v))\n"
                "print(sys.modules.get('numpy'))\n")
        blocked = run_python("import sys; sys.modules['numpy'] = None\n" + code)
        free = run_python(code)
        assert blocked.returncode == 0, blocked.stderr.decode()
        assert free.returncode == 0, free.stderr.decode()
        assert blocked.stdout == free.stdout
        assert len(free.stdout.splitlines()) == 7 and free.stdout.endswith(b"\nNone\n")


RUN = "from mwmono.cli import run; run()"


class TestProcessEntry:
    """``run()``, the console script's entry, in a process of its own: the same bytes and
    exit codes as ``entrypoint``, with one OpenBLAS thread unless the caller sets a pool."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_simulate_holds_one_thread_at_exit(self):
        # Registered before run(), the handler runs after the command, with numpy loaded.
        code = ("import atexit, os, sys\n"
                "atexit.register(lambda: print(len(os.listdir('/proc/self/task')),"
                " os.environ.get('OPENBLAS_NUM_THREADS'), file=sys.stderr))\n" + RUN)
        proc = run_python(code, "simulate", "--v-center", "1000", OPENBLAS_NUM_THREADS=None)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == (GOLDEN / "simulate_1000.json").read_bytes()
        assert proc.stderr == b"1 1\n"

    def test_a_pool_size_the_caller_sets_is_kept(self):
        code = ("import atexit, os, sys\n"
                "atexit.register(lambda: print(os.environ['OPENBLAS_NUM_THREADS'],"
                " file=sys.stderr))\n" + RUN)
        proc = run_python(code, "simulate", "--v-center", "1000", OPENBLAS_NUM_THREADS="2")
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == (GOLDEN / "simulate_1000.json").read_bytes()
        assert proc.stderr == b"2\n"

    @pytest.mark.parametrize("args, name, code", [
        pytest.param(*case, id=case[1]) for case in CASES
        if case[1] in ("scan.csv", "paths_250.csv")])
    def test_golden_case_through_run(self, args, name, code):
        err = GOLDEN / f"{name}.err"
        proc = run_python(RUN, *args)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, (GOLDEN / name).read_bytes(), err.read_bytes() if err.exists() else b"")

    def test_config_error_through_run(self, tmp_path):
        args, config, code, out, err = next(row for row in FAILURES if row[1] == "bogus: 1")
        path = tmp_path / "config.yaml"
        path.write_text(config)
        proc = run_python(RUN, *[arg.replace("{config}", str(path)) for arg in args])
        assert code == 2
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, out.encode(), err.replace("{config}", str(path)).encode())
