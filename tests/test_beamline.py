import math
import tracemalloc

import numpy as np
import pytest

from mwmono import (
    BeamSpec,
    Beamline,
    ConfigurationError,
    DeviceGeometry,
    DiffractionPath,
    EmptyTransmissionError,
    Pinhole,
    RunConfig,
    enumerate_paths,
    incidence_for_output,
    scan_speed_ratio,
    select_path,
    simulate_beam,
    single_reflection_baseline,
    trace_velocity,
    velocity_divergence,
)
from mwmono.beamline import _fwhm
from mwmono.geometry import MAX_OFFSET_SAMPLES, MAX_VELOCITY_BINS


@pytest.fixture()
def beamline(default_config):
    return default_config.beamline()


@pytest.fixture()
def objs(default_config, beamline):
    return default_config.particle(), default_config.grating(), beamline


def with_exit_pinholes(beamline, pinholes):
    return Beamline(beamline.source_diameter, tuple(pinholes), beamline.device, beamline.setting)


class TestTraceVelocity:
    def test_central_ray_exits_at_theta_out(self, setting, objs):
        helium, grating, beamline = objs
        vbar = 1000.0
        theta_inc = incidence_for_output(setting, helium, grating, vbar)
        path = select_path(setting, helium, grating, vbar, beamline.device)
        ray = trace_velocity(vbar, path, beamline, helium, grating, theta_inc)
        assert ray is not None
        assert abs(ray.angle - setting.theta_out) <= 1e-12

    def test_exit_angle_deviation_matches_dispersion(self, setting, objs):
        helium, grating, beamline = objs
        vbar = 1000.0
        theta_inc = incidence_for_output(setting, helium, grating, vbar)
        path = select_path(setting, helium, grating, vbar, beamline.device)
        up = trace_velocity(vbar + 1.0, path, beamline, helium, grating, theta_inc)
        down = trace_velocity(vbar - 1.0, path, beamline, helium, grating, theta_inc)
        predicted = velocity_divergence(
            theta_inc, abs(setting.total_order), helium, grating, vbar
        )
        assert (up.angle - down.angle) / 2.0 == pytest.approx(predicted, rel=0.01)

    def test_below_cutoff_is_blocked(self, setting, objs):
        helium, grating, beamline = objs
        vbar = 1000.0
        theta_inc = incidence_for_output(setting, helium, grating, vbar)
        path = select_path(setting, helium, grating, vbar, beamline.device)
        # Far below the order cutoff the exit order is evanescent.
        assert trace_velocity(200.0, path, beamline, helium, grating, theta_inc) is None

    def test_offset_outside_entry_window_is_blocked(self, setting, objs):
        helium, grating, beamline = objs
        vbar = 1000.0
        theta_inc = incidence_for_output(setting, helium, grating, vbar)
        path = select_path(setting, helium, grating, vbar, beamline.device)
        assert trace_velocity(vbar, path, beamline, helium, grating, theta_inc, offset=1.0) is None


class TestSimulateBeam:
    def test_weight_conservation(self, objs):
        helium, grating, beamline = objs
        result = simulate_beam(BeamSpec(1000.0), beamline, helium, grating)
        assert 0.0 <= result.throughput <= 1.0
        assert np.all(result.weights >= 0.0)
        assert result.weights.sum() == pytest.approx(result.throughput)

    def test_selection_narrows_distribution(self, objs):
        helium, grating, beamline = objs
        spec = BeamSpec(1000.0)
        result = simulate_beam(spec, beamline, helium, grating)
        assert 0.0 < result.delta_v <= spec.full_width
        assert result.speed_ratio > result.input_speed_ratio

    def test_support_subset_of_input(self, objs):
        helium, grating, beamline = objs
        spec = BeamSpec(1000.0, 500.0)
        result = simulate_beam(spec, beamline, helium, grating)
        populated = result.velocities[result.weights > 0]
        assert populated.min() >= 750.0
        assert populated.max() <= 1250.0

    def test_central_ray_always_transmitted(self, objs):
        # Pinholes are centred on the central ray by construction, so even a
        # nanometre-sized final pinhole passes it (odd grids hit it exactly).
        helium, grating, beamline = objs
        tiny = with_exit_pinholes(
            beamline,
            [Pinhole(diameter=1e-9, distance=ph.distance) for ph in beamline.exit_pinholes],
        )
        result = simulate_beam(BeamSpec(1000.0), tiny, helium, grating,
                               velocity_bins=201, offset_samples=21)
        centre = np.argmin(np.abs(result.velocities - 1000.0))
        assert result.weights[centre] > 0.0

    def test_huge_pinholes_select_nothing_beyond_the_device(self, objs):
        helium, grating, beamline = objs
        huge = with_exit_pinholes(
            beamline,
            [Pinhole(diameter=1e3, distance=ph.distance) for ph in beamline.exit_pinholes],
        )
        spec = BeamSpec(1000.0)
        open_result = simulate_beam(spec, huge, helium, grating)
        closed_result = simulate_beam(spec, beamline, helium, grating)
        # Without apertures the device window alone survives: a flat top
        # with a soft edge where rays graze the plate's trailing edge.
        assert open_result.delta_v > closed_result.delta_v
        populated = open_result.weights[open_result.weights > 0]
        at_top = populated >= 0.99 * populated.max()
        assert at_top.mean() > 0.8

    def test_shrinking_final_pinhole_narrows_delta_v(self, objs):
        helium, grating, beamline = objs
        spec = BeamSpec(1000.0)
        widths = []
        for diameter in (20e-3, 10e-3, 5e-3, 2e-3, 1e-3):
            bl = with_exit_pinholes(
                beamline,
                [beamline.exit_pinholes[0],
                 Pinhole(diameter=diameter, distance=beamline.exit_pinholes[1].distance)],
            )
            widths.append(simulate_beam(spec, bl, helium, grating).delta_v)
        assert all(a >= b for a, b in zip(widths, widths[1:]))

    def test_aperture_monotonicity_of_throughput(self, objs):
        helium, grating, beamline = objs
        spec = BeamSpec(1000.0)
        throughputs = []
        for scale in (0.5, 1.0, 2.0, 4.0):
            bl = with_exit_pinholes(
                beamline,
                [Pinhole(diameter=ph.diameter * scale, distance=ph.distance)
                 for ph in beamline.exit_pinholes],
            )
            throughputs.append(simulate_beam(spec, bl, helium, grating).throughput)
        assert all(a <= b for a, b in zip(throughputs, throughputs[1:]))

    def test_empty_transmission_raises(self, objs):
        helium, grating, beamline = objs
        # Even grid counts put no ray exactly on the beam axis, so a
        # nanometre pinhole blocks everything.
        tiny = with_exit_pinholes(
            beamline,
            [Pinhole(diameter=1e-12, distance=ph.distance) for ph in beamline.exit_pinholes],
        )
        with pytest.raises(EmptyTransmissionError):
            simulate_beam(BeamSpec(1000.0), tiny, helium, grating,
                          velocity_bins=200, offset_samples=20)

    def test_grid_convergence(self, objs):
        helium, grating, beamline = objs
        spec = BeamSpec(1000.0)
        coarse = simulate_beam(spec, beamline, helium, grating,
                               velocity_bins=2001, offset_samples=201)
        fine = simulate_beam(spec, beamline, helium, grating,
                             velocity_bins=4001, offset_samples=401)
        assert fine.speed_ratio == pytest.approx(coarse.speed_ratio, rel=0.02)

    def test_deterministic(self, objs):
        helium, grating, beamline = objs
        spec = BeamSpec(900.0)
        a = simulate_beam(spec, beamline, helium, grating)
        b = simulate_beam(spec, beamline, helium, grating)
        assert np.array_equal(a.weights, b.weights)
        assert a.speed_ratio == b.speed_ratio

    def test_path_without_transmission_is_a_config_error(self, objs):
        helium, grating, beamline = objs
        path = DiffractionPath(0, 0, -1, 0.1, 0.1, 0.2, None)
        with pytest.raises(ConfigurationError) as info:
            simulate_beam(BeamSpec(1000.0), beamline, helium, grating, path=path)
        assert str(info.value) == "path (0, 0, -1) has no transmission rate for this grating"

    def test_entry_window_closed_after_the_transmission_check(self):
        # A 5e-324 m gap rounds the entry window s * tan(theta_inc) to 0; an explicit path
        # reaches it, since no path is feasible there.  A path without a transmission is
        # still reported first.
        cfg = RunConfig.from_dict({"setting": {"theta_out_deg": 30.0}})
        bl = cfg.beamline()
        bl = Beamline(bl.source_diameter, bl.exit_pinholes, DeviceGeometry(5e-324, bl.device.length),
                      bl.setting)
        helium, grating = cfg.particle(), cfg.grating()
        path = next(p for p in enumerate_paths(bl.setting, helium, grating, 3000.0)
                    if p.transmission is not None)
        with pytest.raises(EmptyTransmissionError) as info:
            simulate_beam(BeamSpec(3000.0), bl, helium, grating, path=path)
        assert str(info.value) == "entry window closed at this incidence angle"
        with pytest.raises(ConfigurationError, match="has no transmission rate"):
            simulate_beam(BeamSpec(3000.0), bl, helium, grating,
                          path=path._replace(transmission=None))

    def test_grid_is_checked_before_the_cutoff(self, objs):
        # 100 m/s is below every cutoff, but the unsplittable width is raised first.
        helium, grating, beamline = objs
        with pytest.raises(ConfigurationError, match="cannot be split into 2001 distinct"):
            simulate_beam(BeamSpec(100.0, 1e-12), beamline, helium, grating)

    @pytest.mark.parametrize("center, width", [(1e160, 1e159)])
    def test_std_is_finite_at_extreme_widths(self, center, width):
        # Far above 1e154 m/s the squared deviations would overflow.
        cfg = RunConfig.from_dict({"setting": {"theta_out_deg": 75.0}})
        with np.errstate(over="raise"):
            result = simulate_beam(BeamSpec(center, width), cfg.beamline(),
                                   cfg.particle(), cfg.grating())
        assert math.isfinite(result.delta_v_std)

    @pytest.mark.parametrize("kernel", [simulate_beam, single_reflection_baseline])
    def test_width_below_bin_spacing_is_a_config_error(self, kernel):
        # Every bin rounds to 1500 m/s: a zero FWHM once gave an infinite speed ratio.
        cfg = RunConfig.from_dict({"setting": {"theta_out_deg": 75.0}})
        with pytest.raises(ConfigurationError, match=r"beam width 1e-300 m/s .* 2001 distinct"):
            kernel(BeamSpec(1500.0, 1e-300), cfg.beamline(), cfg.particle(), cfg.grating())

    @pytest.mark.parametrize("start, ulps", [(math.nextafter(1000.0, math.inf), 1), (1000.0, 2)])
    def test_fwhm_of_one_bin_between_neighbours_one_ulp_away(self, start, ulps):
        # Each half-maximum crossing lies half an ulp beyond a bin and rounds to even.  From
        # an odd first bin both round onto the middle bin, so the width falls back to one
        # bin; from an even one they round apart, two ulps.
        x = np.array([start, math.nextafter(start, math.inf),
                      math.nextafter(math.nextafter(start, math.inf), math.inf)])
        width = _fwhm(x, np.array([0.0, 1.0, 0.0]))
        assert width == ulps * math.ulp(1000.0) == ulps * (x[1] - x[0])


class TestBaseline:
    def test_improves_on_input(self, objs):
        helium, grating, beamline = objs
        spec = BeamSpec(1000.0)
        base = single_reflection_baseline(spec, beamline, helium, grating)
        assert base.speed_ratio > spec.speed_ratio

    def test_triple_beats_baseline_by_order_of_magnitude(self, objs):
        helium, grating, beamline = objs
        spec = BeamSpec(1000.0)
        triple = simulate_beam(spec, beamline, helium, grating)
        base = single_reflection_baseline(spec, beamline, helium, grating)
        assert 5.0 <= triple.speed_ratio / base.speed_ratio <= 20.0

    def test_specular_baseline_selects_nothing(self, objs):
        helium, grating, beamline = objs
        spec = BeamSpec(1000.0)
        base = single_reflection_baseline(spec, beamline, helium, grating, order=0)
        assert base.speed_ratio == pytest.approx(spec.speed_ratio, rel=1e-9)
        assert base.delta_v == pytest.approx(spec.full_width, rel=1e-9)

    def test_order_without_probability_is_a_config_error(self, objs):
        helium, grating, beamline = objs
        with pytest.raises(ConfigurationError) as info:
            single_reflection_baseline(BeamSpec(5000.0), beamline, helium, grating, order=-3)
        assert str(info.value) == "no reflection probability for |order| = 3"

    def test_evanescent_centre_is_raised_before_a_missing_probability(self, objs):
        # Order +3 at 50 degrees leaves no propagating order at 1000 m/s, and the grating
        # has no probability for |order| = 3 either: the evanescent centre is raised first.
        helium, grating, beamline = objs
        assert 3 not in grating.reflection_probabilities
        with pytest.raises(EmptyTransmissionError) as info:
            single_reflection_baseline(BeamSpec(1000.0), beamline, helium, grating, order=3)
        assert str(info.value) == "baseline centre velocity evanescent"

    @pytest.mark.parametrize("kwargs, message", [
        ({"theta_inc": 2.0}, "|theta_inc| must be below pi/2, got 2.0"),
        ({"theta_inc": math.pi / 2}, f"|theta_inc| must be below pi/2, got {math.pi / 2}"),
        ({"theta_inc": math.nan}, "|theta_inc| must be below pi/2, got nan"),
        ({"order": 1.5}, "order must be an integer, got 1.5"),
        ({"order": 10**400}, f"|order| must be at most 1000000000, got {10**400}"),
        # Through a one-centre scan as well.
        ({"baseline_order": 10**400}, f"|order| must be at most 1000000000, got {10**400}"),
    ])
    def test_checks_incidence_and_order_as_the_records_do(self, objs, kwargs, message):
        helium, grating, beamline = objs
        kernel = scan_one_centre if "baseline_order" in kwargs else single_reflection_baseline
        with pytest.raises(ValueError) as info:
            kernel(BeamSpec(1000.0), beamline, helium, grating, **kwargs)
        assert str(info.value) == message


class TestScan:
    def test_single_point_matches_simulate(self, objs):
        helium, grating, beamline = objs
        rows = scan_speed_ratio([1000.0], 500.0, beamline, helium, grating)
        direct = simulate_beam(BeamSpec(1000.0), beamline, helium, grating)
        assert len(rows) == 1
        assert rows[0].final_ratio == direct.speed_ratio
        assert rows[0].throughput == direct.throughput
        assert rows[0].flag == ""

    def test_flagged_rows_below_cutoff(self, objs):
        helium, grating, beamline = objs
        rows = scan_speed_ratio([260.0, 1000.0], 20.0, beamline, helium, grating,
                                velocity_bins=201, offset_samples=21)
        assert rows[0].flag == "below_cutoff"
        assert rows[0].final_ratio is None
        assert rows[1].flag == ""

    def test_flags_empty_transmission(self, objs):
        # As in test_empty_transmission_raises: no ray of the even grid passes.
        helium, grating, beamline = objs
        tiny = with_exit_pinholes(
            beamline,
            [Pinhole(diameter=1e-12, distance=ph.distance) for ph in beamline.exit_pinholes],
        )
        (row,) = scan_speed_ratio([1000.0], 500.0, tiny, helium, grating,
                                  velocity_bins=200, offset_samples=20)
        assert row.flag == "empty_transmission"
        assert row.final_ratio is None and row.throughput is None

    def test_decreasing_at_high_velocity(self, objs):
        helium, grating, beamline = objs
        rows = scan_speed_ratio([2000.0, 3000.0, 4000.0, 5000.0], 500.0,
                                beamline, helium, grating,
                                velocity_bins=1001, offset_samples=101)
        finals = [r.final_ratio for r in rows]
        assert all(f is not None for f in finals)
        assert all(a > b for a, b in zip(finals, finals[1:]))

    @pytest.mark.parametrize("centres, width, kwargs, error, message", [
        # A width no centre can take is the caller's error, not a flag on every row, with
        # or without centres.
        ([1000.0], 0.0, {}, ValueError, "full_width must be positive, got 0.0"),
        ([], 0.0, {}, ValueError, "full_width must be positive, got 0.0"),
        # A centre whose beam is invalid never reaches the baseline, and the baseline of
        # order -3 at 300 m/s is evanescent before its probability is looked up: each input
        # is checked before the first centre, as it is at a centre that reaches it.
        ([100.0], 500.0, {"baseline_theta_inc": 2.0}, ValueError,
         "|theta_inc| must be below pi/2, got 2.0"),
        ([300.0], 20.0, {"baseline_order": -3}, ConfigurationError,
         "no reflection probability for |order| = 3"),
    ])
    def test_checks_width_and_baseline_before_the_first_centre(
            self, objs, centres, width, kwargs, error, message):
        helium, grating, beamline = objs
        with pytest.raises(error) as info:
            scan_speed_ratio(centres, width, beamline, helium, grating, **kwargs)
        assert type(info.value) is error and str(info.value) == message


class TestBeamSpec:
    def test_input_speed_ratio(self):
        assert BeamSpec(1000.0, 500.0).speed_ratio == 2.0


def scan_one_centre(spec, *args, **kwargs):
    return scan_speed_ratio([spec.center_velocity], spec.full_width, *args, **kwargs)


class TestGridLimits:
    @pytest.mark.parametrize("kernel", [simulate_beam, single_reflection_baseline,
                                        scan_one_centre])
    @pytest.mark.parametrize("bins, samples", [
        (MAX_VELOCITY_BINS + 1, 1), (3, MAX_OFFSET_SAMPLES + 1),
    ])
    def test_oversized_grid_raises(self, objs, kernel, bins, samples):
        helium, grating, beamline = objs
        with pytest.raises(ConfigurationError, match="exceeds the limit"):
            kernel(BeamSpec(1000.0), beamline, helium, grating,
                   velocity_bins=bins, offset_samples=samples)

    @pytest.mark.parametrize("kernel", [simulate_beam, single_reflection_baseline,
                                        scan_one_centre])
    @pytest.mark.parametrize("bins, samples", [(2001.0, 201), (2001, 201.0)])
    def test_non_integer_grid_raises(self, objs, kernel, bins, samples):
        helium, grating, beamline = objs
        with pytest.raises(ConfigurationError, match="grid sizes must be integers"):
            kernel(BeamSpec(1000.0), beamline, helium, grating,
                   velocity_bins=bins, offset_samples=samples)

    @pytest.mark.parametrize("kernel", [simulate_beam, single_reflection_baseline])
    def test_largest_grid_allocates_per_row(self, objs, kernel):
        # Every row is traced, but no velocity x offset array is built: the peak stays below
        # 64 arrays of one float64 per row (about 51 MB), where one such array takes 8 GB.
        helium, grating, beamline = objs
        tracemalloc.start()
        try:
            kernel(BeamSpec(1000.0), beamline, helium, grating,
                   velocity_bins=MAX_VELOCITY_BINS, offset_samples=MAX_OFFSET_SAMPLES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * (MAX_VELOCITY_BINS + 1) * 8
