"""Acceptance gate.

Each test prints a single ``ACCEPTANCE n <name>: PASS|FAIL`` line (run pytest
with ``-s`` or rely on captured output on failure) and then asserts, so the
suite doubles as a human-readable report.
"""

import math
import time

import numpy as np
import pytest

from mwmono import (
    HBAR,
    Beamline,
    BeamSpec,
    DeviceGeometry,
    MonochromatorSetting,
    Pinhole,
    RunConfig,
    cutoff_velocity,
    de_broglie_wavelength,
    diffraction_angle,
    enumerate_paths,
    feasibility_band,
    incidence_for_output,
    path_census,
    scan_speed_ratio,
    simulate_beam,
    velocity_divergence,
)

CFG = RunConfig.from_dict({})
HELIUM = CFG.particle()
GRATING = CFG.grating()
SETTING = CFG.setting()
BEAMLINE = CFG.beamline()


def report(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_acceptance_1_cutoff_velocities():
    expected = {1: 300.0, 2: 600.0, 3: 890.0}
    with Timer() as t:
        cuts = {
            n: cutoff_velocity(MonochromatorSetting(total_order=-n), HELIUM, GRATING)
            for n in expected
        }
    ok = all(abs(cuts[n] - expected[n]) <= 10.0 for n in expected) and t.elapsed < 1.0
    assert report(1, "cutoff velocities 300/600/890 within 10 m/s", ok), (cuts, t.elapsed)


def reference_census(v):
    """(considered, surviving, groups) at velocity v from the grating equation.

    The device leaves bounce i at sin(alpha_i) = cos(epsilon) + j_i * lambda / a
    with sin indices j1 = n1 - N and j2 = n1 + n2 - N; the third bounce always
    leaves at the exit angle.  A combination (n1, n2) survives when both
    internal sines lie in [-1, 1].  d/s = tan(alpha1) + tan(alpha2) depends on
    the unordered pair {j1, j2} only, so that pair names the geometry group.
    """
    step = 2.0 * math.pi * HBAR / (HELIUM.mass * v * GRATING.period)
    cos_eps = math.cos(SETTING.epsilon)
    total = abs(SETTING.total_order)
    orders = range(-2, 3)  # the paper's internal orders, written apart from the package's
    indices = [(n1 - total, n1 + n2 - total) for n1 in orders for n2 in orders]
    alive = [js for js in indices if all(abs(cos_eps + j * step) <= 1.0 for j in js)]
    return len(indices), len(alive), len({frozenset(js) for js in alive})


def test_acceptance_2_path_census():
    # The published figure 25/16/12 cannot occur under this model: the paths
    # (n1, n2, n3) and (n1+n2, -n2, N-n1) swap the two internal angles and so
    # share d/s.  16 survivors always hold 5 such pairs, hence 11 groups; 12
    # groups first appear together with 17 survivors.  The gate checks the
    # census the grating equation predicts.
    scan_step = 1.0
    expected_steps = [(25, 9, 6), (25, 14, 9), (25, 16, 11), (25, 17, 12)]
    # An index j = -k propagates once k * lambda / a <= 1 + cos(epsilon).
    thresholds = [
        k * 2.0 * math.pi * HBAR
        / (HELIUM.mass * GRATING.period * (1.0 + math.cos(SETTING.epsilon)))
        for k in (3, 4, 5)
    ]
    with Timer() as t:
        observed = {}
        mismatches = {}
        for v in np.arange(300.0, 5000.5, scan_step):
            v = float(v)
            observed[v] = path_census(SETTING, HELIUM, GRATING, v)
            reference = reference_census(v)
            if observed[v] != reference:
                mismatches[v] = (observed[v], reference)

    steps = []  # (first velocity, census) at each change of census
    for v, census in observed.items():
        if not steps or steps[-1][1] != census:
            steps.append((v, census))
    step_velocities = [v for v, _ in steps[1:]]
    sixteen = {v: c for v, c in observed.items() if c[:2] == (25, 16)}

    checks = {
        "matches_grating_equation": not mismatches,
        "four_step_sequence": [c for _, c in steps] == expected_steps,
        "steps_at_thresholds": len(step_velocities) == len(thresholds) and all(
            0.0 <= v - vk < scan_step for v, vk in zip(step_velocities, thresholds)
        ),
        "25_16_in_591_738_with_11_groups": bool(sixteen)
        and all(591.0 <= v <= 738.0 and c[2] == 11 for v, c in sixteen.items()),
    }
    ok = all(checks.values()) and t.elapsed < 5.0
    report(2, "path census follows the grating equation over 300-5000 m/s", ok)
    assert ok, {
        "checks": checks,
        "steps": steps,
        "thresholds": thresholds,
        "first_mismatches": dict(list(mismatches.items())[:5]),
        "elapsed_s": t.elapsed,
    }


def test_acceptance_3_length_ratio_ten_covers_the_range():
    device = DeviceGeometry(separation=5e-3, length=50e-3)
    with Timer() as t:
        uncovered = []
        for v in range(300, 5001, 100):
            paths = enumerate_paths(SETTING, HELIUM, GRATING, float(v))
            if not any(
                feasibility_band(p, SETTING).contains(device.length / device.separation)
                for p in paths
            ):
                uncovered.append(v)
    ok = not uncovered and t.elapsed < 5.0
    assert report(3, "l/s = 10 feasible at every velocity 300-5000 m/s", ok), (
        uncovered, t.elapsed,
    )


def test_acceptance_4_speed_ratio_scan():
    with Timer() as t:
        rows = scan_speed_ratio(
            [float(v) for v in range(500, 5001, 250)],
            CFG.beam().full_width, BEAMLINE, HELIUM, GRATING,
            velocity_bins=CFG.velocity_bins, offset_samples=CFG.offset_samples,
        )
    by_v = {r.v_center: r for r in rows}

    low = [r for r in rows if r.v_center <= 1000.0 and r.final_ratio is not None]
    a = any(500.0 <= r.final_ratio <= 2000.0 for r in low)

    high = [r.final_ratio for r in rows
            if 2000.0 <= r.v_center <= 5000.0 and r.final_ratio is not None]
    drops = [x - y for x, y in zip(high, high[1:])]
    b = len(high) >= 3 and sum(drops) > 0 and high[0] > high[-1]

    c = any(
        5.0 <= r.final_ratio / r.baseline_ratio <= 20.0
        for r in rows
        if 500.0 <= r.v_center <= 2000.0
        and r.final_ratio is not None and r.baseline_ratio
    )

    ok = a and b and c and t.elapsed < 60.0
    assert report(4, "speed-ratio scan magnitude, decay and enhancement", ok), {
        "a_ratio_500_2000_below_1000": a,
        "b_decreasing_2000_5000": b,
        "c_enhancement_5_to_20": c,
        "elapsed_s": t.elapsed,
    }


def test_acceptance_5_property_suite():
    with Timer() as t:
        # Round-trip identity of the incidence solve.
        round_trip = all(
            abs(
                diffraction_angle(
                    incidence_for_output(SETTING, HELIUM, GRATING, v),
                    abs(SETTING.total_order), HELIUM, GRATING, v,
                )
                - SETTING.theta_out
            ) <= 1e-12
            for v in (300.0, 700.0, 1000.0, 2500.0, 5000.0)
        )

        # Analytic derivative against a Richardson-extrapolated difference.
        def fd(theta, n, v, h):
            return (
                diffraction_angle(theta, n, HELIUM, GRATING, v + h)
                - diffraction_angle(theta, n, HELIUM, GRATING, v - h)
            ) / (2 * h)

        derivative = True
        for theta, n, v in [(0.3, 1, 800.0), (0.6, -1, 1500.0), (0.2, -2, 2500.0),
                            (0.9, 1, 4000.0), (0.5, 2, 3000.0)]:
            exact = velocity_divergence(theta, n, HELIUM, GRATING, v)
            h = v * 1e-4
            rich = (4 * fd(theta, n, v, h / 2) - fd(theta, n, v, h)) / 3
            derivative &= abs(exact - rich) <= 1e-6 * abs(rich)

        # Integer aliasing: scaling (order, velocity) by k fixes the step.
        step = de_broglie_wavelength(HELIUM, 700.0) / GRATING.period
        aliasing = all(
            abs(k * de_broglie_wavelength(HELIUM, k * 700.0) / GRATING.period - step)
            <= 1e-12
            for k in (2, 3, 5, 8)
        )

        # Order conservation over the full enumeration.
        conservation = all(
            p.n1 + p.n2 + p.n3 == abs(SETTING.total_order)
            for v in (400.0, 1000.0, 3000.0)
            for p in enumerate_paths(SETTING, HELIUM, GRATING, v)
        )

        # Aperture monotonicity of throughput.
        spec = BeamSpec(1000.0)
        throughputs = []
        for scale in (1.0, 2.0, 4.0):
            bl = Beamline(
                source_diameter=BEAMLINE.source_diameter,
                exit_pinholes=tuple(
                    Pinhole(diameter=ph.diameter * scale, distance=ph.distance)
                    for ph in BEAMLINE.exit_pinholes
                ),
                device=BEAMLINE.device,
                setting=BEAMLINE.setting,
            )
            throughputs.append(simulate_beam(spec, bl, HELIUM, GRATING,
                                             velocity_bins=501, offset_samples=51).throughput)
        monotone = all(x <= y for x, y in zip(throughputs, throughputs[1:]))

        # Grid convergence below 2% on doubling both resolutions.
        coarse = simulate_beam(spec, BEAMLINE, HELIUM, GRATING,
                               velocity_bins=2001, offset_samples=201)
        fine = simulate_beam(spec, BEAMLINE, HELIUM, GRATING,
                             velocity_bins=4001, offset_samples=401)
        converged = abs(fine.speed_ratio - coarse.speed_ratio) < 0.02 * coarse.speed_ratio

        # Determinism: identical reruns produce identical arrays.
        again = simulate_beam(spec, BEAMLINE, HELIUM, GRATING,
                              velocity_bins=2001, offset_samples=201)
        deterministic = (
            np.array_equal(coarse.weights, again.weights)
            and coarse.speed_ratio == again.speed_ratio
        )

    checks = {
        "round_trip": round_trip,
        "derivative": derivative,
        "aliasing": aliasing,
        "order_conservation": conservation,
        "aperture_monotonicity": monotone,
        "grid_convergence": converged,
        "determinism": deterministic,
    }
    ok = all(checks.values()) and t.elapsed < 30.0
    assert report(5, "numerical property suite", ok), (checks, t.elapsed)
