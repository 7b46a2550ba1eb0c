"""Property-based checks of the diffraction relations."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mwmono import (
    BeamSpec,
    BelowCutoffError,
    DiffractionPath,
    EvanescentOrderError,
    GrazingSingularityError,
    Grating,
    MonochromatorError,
    MonochromatorSetting,
    Particle,
    Pinhole,
    RunConfig,
    de_broglie_wavelength,
    diffraction_angle,
    enumerate_paths,
    group_paths_by_geometry,
    incidence_for_output,
    path_census,
    select_path,
    trace_velocity,
    velocity_divergence,
)
from mwmono.beamline import (
    BASELINE_ORDER,
    BASELINE_THETA_INC,
    _baseline_counts,
    _beam_counts,
    _pinhole_bounds,
    _row_counts,
)
from mwmono.diffraction import HBAR

HELIUM = Particle(mass=6.6464731e-27)
GRATING = Grating(period=3.383e-10, reflection_probabilities={0: 0.06, 1: 0.03, 2: 0.015})

velocities = st.floats(min_value=250.0, max_value=20000.0,
                       allow_nan=False, allow_infinity=False)
safe_velocities = st.floats(min_value=930.0, max_value=20000.0,
                            allow_nan=False, allow_infinity=False)
incidences = st.floats(min_value=-1.3, max_value=1.3,
                       allow_nan=False, allow_infinity=False)
orders = st.integers(min_value=-2, max_value=2)
total_orders = st.integers(min_value=1, max_value=3)


@given(v=velocities)
def test_wavelength_velocity_product_is_invariant(v):
    lam = de_broglie_wavelength(HELIUM, v)
    assert lam * v == pytest.approx(2 * math.pi * HBAR / HELIUM.mass, rel=1e-14)


@given(v=safe_velocities, n=total_orders)
def test_incidence_round_trip(v, n):
    # 930 m/s clears every cutoff up to |N| = 3.
    setting = MonochromatorSetting(total_order=-n)
    theta_inc = incidence_for_output(setting, HELIUM, GRATING, v)
    theta_out = diffraction_angle(theta_inc, n, HELIUM, GRATING, v)
    assert abs(theta_out - setting.theta_out) <= 1e-12


@given(v=safe_velocities, n=total_orders)
def test_incidence_is_in_physical_range(v, n):
    setting = MonochromatorSetting(total_order=n)
    theta_inc = incidence_for_output(setting, HELIUM, GRATING, v)
    assert 0.0 <= theta_inc < setting.theta_out


@given(theta=incidences, n=orders, v=velocities)
def test_diffraction_angle_inverts(theta, n, v):
    # Applying the opposite order from the diffracted ray restores the
    # original sine, hence the original angle.
    try:
        out = diffraction_angle(theta, n, HELIUM, GRATING, v)
        back = diffraction_angle(out, -n, HELIUM, GRATING, v)
    except EvanescentOrderError:
        return
    assert math.sin(back) == pytest.approx(math.sin(theta), abs=1e-12)


@settings(max_examples=200)
@given(theta=incidences, n=orders, v=st.floats(min_value=260.0, max_value=20000.0))
def test_divergence_matches_finite_difference(theta, n, v):
    if n == 0:
        assert velocity_divergence(theta, n, HELIUM, GRATING, v) == 0.0
        return
    h = v * 1e-7
    try:
        exact = velocity_divergence(theta, n, HELIUM, GRATING, v)
        fd = (
            diffraction_angle(theta, n, HELIUM, GRATING, v + h)
            - diffraction_angle(theta, n, HELIUM, GRATING, v - h)
        ) / (2 * h)
    except (EvanescentOrderError, GrazingSingularityError):
        return
    # Near grazing the derivative itself blows up; compare relative to its
    # own magnitude with a slack that tolerates the second-order FD error.
    assert exact == pytest.approx(fd, rel=1e-4, abs=1e-12)


@given(v=safe_velocities, n=total_orders, k=st.integers(min_value=1, max_value=6))
def test_integer_velocity_aliasing(v, n, k):
    # Scaling order and velocity together leaves the sin-space step, and
    # therefore the matched incidence angle, unchanged.
    theta_a = incidence_for_output(
        MonochromatorSetting(total_order=n), HELIUM, GRATING, v
    )
    theta_b = incidence_for_output(
        MonochromatorSetting(total_order=k * n), HELIUM, GRATING, k * v
    )
    assert abs(theta_a - theta_b) <= 1e-12


@given(n=total_orders, v1=velocities, v2=velocities)
def test_incidence_monotone_in_velocity(n, v1, v2):
    setting = MonochromatorSetting(total_order=n)
    lo, hi = sorted((v1, v2))
    if lo == hi:
        return
    try:
        theta_lo = incidence_for_output(setting, HELIUM, GRATING, lo)
        theta_hi = incidence_for_output(setting, HELIUM, GRATING, hi)
    except BelowCutoffError:
        return
    assert theta_lo < theta_hi


@given(theta=incidences, v=velocities)
def test_order_steps_are_monotone_in_sin_space(theta, v):
    sines = []
    for n in range(-2, 3):
        try:
            sines.append(math.sin(diffraction_angle(theta, n, HELIUM, GRATING, v)))
        except EvanescentOrderError:
            sines.append(None)
    present = [s for s in sines if s is not None]
    assert all(a < b for a, b in zip(present, present[1:]))


GRAZING_THETA_OUT = math.radians(89.99999999)


@settings(max_examples=500, deadline=None)
@example(theta_out=GRAZING_THETA_OUT, n=-1, max_order=2, v=572.0)
@example(theta_out=GRAZING_THETA_OUT, n=10**9, max_order=3, v=1e30)
@example(theta_out=math.radians(85.0), n=-10**9, max_order=2, v=1e30)
@example(theta_out=math.radians(85.0), n=0, max_order=2, v=5e-324)
@example(theta_out=math.radians(1.0), n=-1, max_order=0, v=1e30)
@given(theta_out=st.floats(min_value=math.radians(1.0), max_value=GRAZING_THETA_OUT),
       n=st.sampled_from([0, 1, -1, -2, 3, -5, 10**9, -10**9]),
       max_order=st.integers(min_value=0, max_value=3),
       v=st.floats(min_value=5e-324, max_value=1e30) | velocities)
def test_census_counts_the_groups_of_the_enumerated_records(theta_out, n, max_order, v):
    # The census counts what grouping the enumerated records would give, and
    # each record behaves as one built from keywords, from near-grazing exit
    # to orders of 1e9 and subnormal or huge velocities.
    setting = MonochromatorSetting(theta_out=theta_out, total_order=n)
    try:
        paths = enumerate_paths(setting, HELIUM, GRATING, v, max_order=max_order)
    except MonochromatorError as exc:
        with pytest.raises(type(exc)):
            path_census(setting, HELIUM, GRATING, v, max_order=max_order)
        return
    assert path_census(setting, HELIUM, GRATING, v, max_order=max_order) == (
        (2 * max_order + 1) ** 2, len(paths), len(group_paths_by_geometry(paths)))
    for p in paths:
        keyword = DiffractionPath(**p._asdict())
        assert type(p) is DiffractionPath
        assert p == DiffractionPath(*p) == keyword
        assert repr(p) == repr(keyword)
        assert p._asdict() == keyword._asdict()
        assert p.orders == keyword.orders == (p.n1, p.n2, p.n3)


diameters = st.floats(min_value=-12.0, max_value=3.0).map(lambda e: 10.0 ** e)


def _pinhole_passes(theta_exit, theta_ref, pinholes, dx):
    """Cells of exit-point displacement ``dx`` passing every pinhole, each evaluated."""
    rel = theta_exit - theta_ref
    along = dx * math.cos(theta_ref)
    passed = np.ones(np.broadcast_shapes(rel.shape, dx.shape), dtype=bool)
    for ph in pinholes:
        t = (ph.distance - dx * math.sin(theta_ref)) / np.cos(rel)
        off = along + t * np.sin(rel)
        passed &= (off >= -ph.diameter / 2) & (off <= ph.diameter / 2)
    return passed


def _every_cell_counts(spec, bl, p, g, nv, nu, device):
    """Per-row passing offsets with every cut evaluated on every grid cell."""
    vbar = spec.center_velocity
    velocities = np.linspace(vbar - spec.full_width / 2, vbar + spec.full_width / 2, nv)
    offsets = np.linspace(-bl.source_diameter / 2, bl.source_diameter / 2, nu)
    step = (2.0 * math.pi * HBAR / (p.mass * g.period) / velocities)[:, None]
    if not device:
        theta_inc, order = BASELINE_THETA_INC, BASELINE_ORDER
        s_exit = math.sin(theta_inc) + order * step
        theta_ref = math.asin(math.sin(theta_inc) + order * (
            2.0 * math.pi * HBAR / (p.mass * g.period) / vbar))
        passed = _pinhole_passes(np.arcsin(np.clip(s_exit, -1.0, 1.0)), theta_ref,
                                 bl.exit_pinholes, offsets / math.cos(theta_inc))
        return np.where(np.abs(s_exit[:, 0]) <= 1.0, passed.sum(axis=1), 0)
    setting, s, length = bl.setting, bl.device.separation, bl.device.length
    theta_inc = incidence_for_output(setting, p, g, vbar)
    path = select_path(setting, p, g, vbar, bl.device)
    central = trace_velocity(vbar, path, bl, p, g, theta_inc)
    entry_window = min(s * math.tan(theta_inc), length)
    s1 = math.sin(theta_inc) + path.n1 * step
    s2 = s1 + path.n2 * step
    s3 = s2 + path.n3 * step
    valid = (np.abs(s1) <= 1.0) & (np.abs(s2) <= 1.0) & (np.abs(s3) <= 1.0)
    theta_exit = np.arcsin(np.clip(s3, -1.0, 1.0))
    x1 = entry_window / 2 + offsets / math.cos(theta_inc)
    x2 = x1 + s * np.tan(np.arcsin(np.clip(s1, -1.0, 1.0)))
    x3 = x2 + s * np.tan(np.arcsin(np.clip(s2, -1.0, 1.0)))
    x_clear = x3 + s * np.tan(theta_exit)
    passed = (valid & (x1 >= 0.0) & (x1 <= entry_window)
              & (x2 >= 0.0) & (x2 <= length) & (x3 >= 0.0) & (x3 <= length)
              & ~((x_clear > 0.0) & (x_clear < length))
              & _pinhole_passes(theta_exit, central.angle, bl.exit_pinholes,
                                x3 - central.position))
    return passed.sum(axis=1)


@settings(max_examples=150, deadline=None)
@given(v=st.floats(min_value=300.0, max_value=5000.0),
       nv=st.integers(min_value=3, max_value=400), nu=st.integers(min_value=1, max_value=80),
       source=diameters, exits=st.tuples(diameters, diameters) | st.just((1e3, 1e3)),
       theta_out_deg=st.floats(min_value=60.0, max_value=89.0),
       length_mm=st.floats(min_value=10.0, max_value=120.0))
def test_row_counts_match_every_cell(v, nv, nu, source, exits, theta_out_deg, length_mm):
    # Rows counted from their cut intervals must count exactly the cells the
    # cut expressions pass when every cell is evaluated.  The exit angle and
    # plate length vary so that the exit clearance cuts too, and wide-open
    # exit pinholes leave the device cuts to decide alone.
    cfg = RunConfig.from_dict({"setting": {"theta_out_deg": theta_out_deg},
                               "device": {"length_mm": length_mm}})
    bl = cfg.beamline()
    bl = dataclasses.replace(
        bl,
        source_diameter=source,
        exit_pinholes=tuple(Pinhole(d, p.distance) for d, p in zip(exits, bl.exit_pinholes)),
    )
    spec = BeamSpec(v)
    p, g = cfg.particle(), cfg.grating()
    kernels = {
        True: lambda: _beam_counts(spec, bl, p, g, None, nv, nu),
        False: lambda: _baseline_counts(spec, bl, p, g, BASELINE_THETA_INC, BASELINE_ORDER,
                                        nv, nu),
    }
    for device, count in kernels.items():
        try:
            _, counts, _ = count()
        except MonochromatorError:
            continue
        assert np.array_equal(counts, _every_cell_counts(spec, bl, p, g, nv, nu, device))


@settings(max_examples=100, deadline=None)
@given(v=st.floats(min_value=300.0, max_value=5000.0),
       nv=st.integers(min_value=3, max_value=30), nu=st.integers(min_value=1, max_value=30),
       source=diameters, theta_out_deg=st.floats(min_value=60.0, max_value=89.0),
       length_mm=st.floats(min_value=10.0, max_value=120.0))
def test_row_counts_match_traced_rays(v, nv, nu, source, theta_out_deg, length_mm):
    # With the exit pinholes wide open, each row passes exactly the source
    # offsets whose ray trace_velocity carries through the device.
    cfg = RunConfig.from_dict({"setting": {"theta_out_deg": theta_out_deg},
                               "device": {"length_mm": length_mm}})
    bl = cfg.beamline()
    bl = dataclasses.replace(
        bl,
        source_diameter=source,
        exit_pinholes=tuple(Pinhole(1e3, p.distance) for p in bl.exit_pinholes),
    )
    p, g = cfg.particle(), cfg.grating()
    try:
        velocities, counts, _ = _beam_counts(BeamSpec(v), bl, p, g, None, nv, nu)
    except MonochromatorError:
        return
    theta_inc = incidence_for_output(bl.setting, p, g, v)
    path = select_path(bl.setting, p, g, v, bl.device)
    offsets = np.linspace(-source / 2, source / 2, nu).tolist()
    traced = [sum(trace_velocity(row, path, bl, p, g, theta_inc, offset=u) is not None
                  for u in offsets)
              for row in velocities.tolist()]
    assert counts.tolist() == traced


@pytest.mark.parametrize("theta_ref, theta_exit, diameter, expected", [
    # arcsin(1) exits at pi/2, where the slope at this reference is exactly 0:
    # the row's one offset passes every column (wide pinhole, or the offset
    # exactly on the edge, where 0 / 0 would be NaN) or none (narrow pinhole).
    (0.1013, math.pi / 2, 30.0, 41),
    (0.1013, math.pi / 2, 2 * 0.3 * float(np.tan(np.arcsin(1.0) - 0.1013)), 41),
    (0.1013, math.pi / 2, 1e-2, 0),
    # A row exiting far below the reference has a negative slope; the pinhole
    # edge lies between columns, so the row passes in part, as every cell says.
    (1.3, -1.3, 2 * (0.3 * math.tan(-2.6) + 0.31 * 3.7e-4), None),
])
def test_pinhole_bounds_of_flat_and_reversed_rows(theta_ref, theta_exit, diameter, expected):
    theta_exit = np.array([np.arcsin(np.sin(theta_exit))])
    pinholes = (Pinhole(abs(diameter), 0.3),)
    dx = np.linspace(-1e-3, 1e-3, 41)
    lo, hi = _pinhole_bounds(theta_exit, theta_ref, pinholes)
    assert not np.isnan(lo).any() and not np.isnan(hi).any()
    counts = _row_counts(np.array([True]), dx, lo, hi)
    if expected is None:
        every = _pinhole_passes(theta_exit[:, None], theta_ref, pinholes, dx).sum(axis=1)
        assert 0 < counts[0] < dx.size
        assert np.array_equal(counts, every)
    else:
        assert counts[0] == expected
