"""Property-based checks of the diffraction relations."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mwmono import (
    Beamline,
    BeamSpec,
    BelowCutoffError,
    DeviceGeometry,
    DiffractionPath,
    EmptyTransmissionError,
    EvanescentOrderError,
    GrazingSingularityError,
    Grating,
    MonochromatorError,
    MonochromatorSetting,
    Particle,
    Pinhole,
    RunConfig,
    cutoff_velocity,
    de_broglie_wavelength,
    diffraction_angle,
    enumerate_paths,
    feasibility_band,
    group_paths_by_geometry,
    incidence_for_output,
    path_census,
    select_path,
    simulate_beam,
    single_reflection_baseline,
    trace_velocity,
    velocity_divergence,
)
from mwmono.beamline import (
    BASELINE_ORDER,
    BASELINE_THETA_INC,
    _axes,
    _counts,
    _exit_rows,
    _pinhole_bounds,
    _row_counts,
)
from mwmono.diffraction import HBAR, wavelength_ratio
from mwmono.geometry import _census_table, _surviving

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
@example(theta_out=GRAZING_THETA_OUT, n=-1, v=572.0)
@example(theta_out=GRAZING_THETA_OUT, n=10**9, v=1e30)
@example(theta_out=math.radians(85.0), n=-10**9, v=1e30)
@example(theta_out=math.radians(85.0), n=0, v=5e-324)
@example(theta_out=math.radians(1.0), n=-1, v=1e30)
@given(theta_out=st.floats(min_value=math.radians(1.0), max_value=GRAZING_THETA_OUT),
       n=st.sampled_from([0, 1, -1, -2, 3, -5, 10**9, -10**9]),
       v=st.floats(min_value=5e-324, max_value=1e30) | velocities)
def test_census_counts_the_groups_of_the_enumerated_records(theta_out, n, v):
    # The census counts what grouping the enumerated records would give, and
    # each record behaves as one built from keywords, from near-grazing exit
    # to orders of 1e9 and subnormal or huge velocities.
    setting = MonochromatorSetting(theta_out=theta_out, total_order=n)
    try:
        paths = enumerate_paths(setting, HELIUM, GRATING, v)
    except MonochromatorError as exc:
        with pytest.raises(type(exc)):
            path_census(setting, HELIUM, GRATING, v)
        return
    assert path_census(setting, HELIUM, GRATING, v) == (
        25, len(paths), len(group_paths_by_geometry(paths)))
    for p in paths:
        keyword = DiffractionPath(**p._asdict())
        assert type(p) is DiffractionPath
        assert p == DiffractionPath(*p) == keyword
        assert repr(p) == repr(keyword)
        assert p._asdict() == keyword._asdict()
        assert p.orders == keyword.orders == (p.n1, p.n2, p.n3)


@settings(max_examples=300, deadline=None)
@example(theta_out=math.radians(89.99), n=-1, v=1179.0)
@given(theta_out=st.floats(min_value=math.radians(1.0), max_value=math.radians(89.99)),
       n=st.sampled_from([-1, -2, 1, 3]), v=velocities)
def test_groups_are_the_index_pairs_of_the_enumerated_paths(theta_out, n, v):
    # Bounce i leaves at the sine cos(epsilon) + j_i * lambda / a, with j1 = n1 - N and
    # j2 = n1 + n2 - N, and d/s depends on {j1, j2} alone: each group holds the paths of one
    # such pair, one group per pair, whatever rounding does to the ratios.
    setting = MonochromatorSetting(theta_out=theta_out, total_order=n)
    try:
        paths = enumerate_paths(setting, HELIUM, GRATING, v)
    except BelowCutoffError:
        return
    total = abs(n)

    def pair(p):
        return frozenset((p.n1 - total, p.n1 + p.n2 - total))

    groups = group_paths_by_geometry(paths)
    assert [len({pair(p) for p in g.members}) for g in groups] == [1] * len(groups)
    assert len(groups) == len({pair(p) for p in paths})
    assert path_census(setting, HELIUM, GRATING, v) == (25, len(paths), len(groups))


def _solve_in_steps(setting, v):
    """The incidence solve step by step: the wavelength ratio and the sine of incidence
    cos(epsilon) - |N| * ratio; the path layer's step is that ratio."""
    ratio = wavelength_ratio(HELIUM, GRATING, v)
    n = abs(setting.total_order)
    arg = math.cos(setting.epsilon) - (n * ratio if n else 0.0)  # 0 * inf is nan
    if arg < 0.0:
        raise BelowCutoffError(v, setting.total_order, cutoff_velocity(setting, HELIUM, GRATING))
    return arg, ratio


DEFAULT_DEVICE = RunConfig.from_dict({}).device()


def _select_on_default_device(setting, particle, grating, v):
    return select_path(setting, particle, grating, v, DEFAULT_DEVICE)


@settings(max_examples=500, deadline=None)
@example(theta_out=GRAZING_THETA_OUT, n=-1, v=572.0)
@example(theta_out=GRAZING_THETA_OUT, n=10**9, v=1e30)
@example(theta_out=GRAZING_THETA_OUT, n=0, v=5e-324)
@example(theta_out=math.radians(85.0), n=-10**9, v=1e30)
@example(theta_out=math.radians(85.0), n=-1, v=5e-324)
@example(theta_out=math.radians(85.0), n=-1, v=200.0)
@example(theta_out=math.radians(85.0), n=-1, v=302.0)
@given(theta_out=st.floats(min_value=math.radians(1.0), max_value=GRAZING_THETA_OUT),
       n=st.sampled_from([0, 1, -1, -2, 3, 10**9, -10**9]),
       v=st.floats(min_value=5e-324, max_value=1e30) | velocities)
def test_incidence_solve_matches_its_steps_bit_for_bit(theta_out, n, v):
    # The path layer's (sine, step) and incidence_for_output's angle are the stepwise solve's
    # floats exactly; the solve and every path-layer call raise its exceptions with its
    # messages.  The kernel's reference row steps its sines by the same ratio: along each
    # enumerated path its angles are those of the stepwise sines.
    setting = MonochromatorSetting(theta_out=theta_out, total_order=n)
    try:
        arg, ratio = _solve_in_steps(setting, v)
    except MonochromatorError as exc:
        for solve in (incidence_for_output, _surviving, path_census, _select_on_default_device,
                      enumerate_paths):
            with pytest.raises(type(exc)) as info:
                solve(setting, HELIUM, GRATING, v)
            assert type(info.value) is type(exc)
            assert str(info.value) == str(exc)
        return
    assert _surviving(setting, HELIUM, GRATING, v)[:2] == (arg, ratio)
    theta_inc = incidence_for_output(setting, HELIUM, GRATING, v)
    assert theta_inc == math.asin(arg)
    for path in enumerate_paths(setting, HELIUM, GRATING, v):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            angles, _ = _exit_rows(theta_inc, path.orders, HELIUM, GRATING, np.array([v]))
        sine = math.sin(theta_inc)
        for order, angle in zip(path.orders, angles):
            sine = sine + order * ratio
            assert angle.tobytes() == np.arcsin(np.clip([sine], -1.0, 1.0)).tobytes()


def _best_enumerated_path(setting, grating, v, device):
    """select_path by its definition: the best enumerated record with a rate inside its band."""
    ratio = device.length / device.separation
    feasible = [p for p in enumerate_paths(setting, HELIUM, grating, v)
                if p.transmission is not None and feasibility_band(p, setting).contains(ratio)]
    if not feasible:
        raise EmptyTransmissionError(f"no feasible path at v = {v} m/s for l/s = {ratio:.3g}")
    return max(feasible, key=lambda p: (p.transmission, -abs(p.n1), p.orders))


def _outcome(select, *args):
    try:
        return repr(select(*args))
    except MonochromatorError as exc:
        return type(exc), str(exc)


probability_maps = st.dictionaries(
    st.integers(min_value=0, max_value=5),
    st.sampled_from([1.0, 0.5, 0.25]) | st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@example(theta_out=math.radians(85.0), n=-1, v=1000.0, ratio=10.0,
         probs=({0: 0.06, 1: 0.03, 2: 0.015}, {}))
@example(theta_out=GRAZING_THETA_OUT, n=-1, v=572.0, ratio=10.0,
         probs=({0: 0.1, 1: 0.5, 2: 0.1, 3: 1.0}, {}))
@given(theta_out=st.just(math.radians(85.0))
       | st.floats(min_value=math.radians(1.0), max_value=GRAZING_THETA_OUT),
       n=st.sampled_from([0, 1, -1, -2, 3, 10**9, -10**9]),
       v=st.floats(min_value=5e-324, max_value=1e30) | velocities,
       ratio=st.just(10.0) | st.floats(min_value=0.01, max_value=100.0),
       probs=st.tuples(probability_maps, probability_maps))
def test_select_path_is_the_best_enumerated_feasible_path(theta_out, n, v, ratio, probs):
    # select_path walks the best-first ranking of a cached table row; the two gratings
    # are queried in turn so that a row kept from the other one would show.
    setting = MonochromatorSetting(theta_out=theta_out, total_order=n)
    device = DeviceGeometry(separation=1.0, length=ratio)
    gratings = [Grating(period=GRATING.period, reflection_probabilities=p) for p in probs]
    for grating in gratings + gratings:
        assert (_outcome(select_path, setting, HELIUM, grating, v, device)
                == _outcome(_best_enumerated_path, setting, grating, v, device))


@settings(max_examples=300, deadline=None)
@example(theta_out=GRAZING_THETA_OUT, n=-1, v=572.0,
         probs=({0: 0.06, 1: 0.03, 2: 0.015}, {0: 0.1, 1: 0.5, 2: 0.1, 3: 1.0}))
@example(theta_out=math.radians(85.0), n=-1, v=1000.0,
         probs=({0: 0.06, 1: 0.03, 2: 0.015}, {0: 0.015, 1: 0.03, 2: 0.06}))
@given(theta_out=st.floats(min_value=math.radians(1.0), max_value=GRAZING_THETA_OUT),
       n=st.sampled_from([0, 1, -1, -2, 3, 10**9, -10**9]),
       v=st.floats(min_value=5e-324, max_value=1e30) | velocities,
       probs=st.tuples(probability_maps, probability_maps))
def test_census_table_constants_and_its_cache_key(theta_out, n, v, probs):
    # The table's cos(epsilon) and band width are the setting's floats, and a table cached
    # for one grating never answers for another: two gratings queried interleaved give the
    # outcomes each gives alone, from an empty cache.
    setting = MonochromatorSetting(theta_out=theta_out, total_order=n)
    gratings = [Grating(period=GRATING.period, reflection_probabilities=p) for p in probs]
    for grating in gratings:
        cos_eps, width, _, _ = _census_table(theta_out, abs(n), grating.rates)
        assert cos_eps == math.cos(setting.epsilon)
        assert width == math.tan(setting.theta_out)

    def outcomes(grating):
        return (_outcome(path_census, setting, HELIUM, grating, v),
                _outcome(_select_on_default_device, setting, HELIUM, grating, v))

    alone = []
    for grating in gratings:
        _census_table.cache_clear()
        alone.append(outcomes(grating))
    _census_table.cache_clear()
    assert [outcomes(grating) for grating in gratings + gratings] == alone + alone


def test_select_path_is_the_best_enumerated_feasible_path_over_the_default_sweep():
    cfg = RunConfig.from_dict({})
    setting, grating, device = cfg.setting(), cfg.grating(), cfg.device()
    assert cfg.particle() == HELIUM
    for v in range(300, 5001):
        assert (_outcome(select_path, setting, HELIUM, grating, float(v), device)
                == _outcome(_best_enumerated_path, setting, grating, float(v), device))


def test_select_path_keeps_a_best_path_whose_exit_sine_rounds_above_one():
    # The top-ranked (-1, -1, 3), rate 0.25, has both internal sines in [-1, 1] and a band
    # holding l/s = 10.  Its exit sine rounds to 1.0000000000000002, but the third bounce
    # leaves at the exit angle by construction (index 0), so the path survives.
    setting = MonochromatorSetting(theta_out=GRAZING_THETA_OUT, total_order=-1)
    grating = Grating(period=GRATING.period,
                      reflection_probabilities={0: 0.1, 1: 0.5, 2: 0.1, 3: 1.0})
    device = DeviceGeometry(separation=1.0, length=10.0)
    assert select_path(setting, HELIUM, grating, 572.0, device).orders == (-1, -1, 3)


@settings(max_examples=300, deadline=None)
@given(theta_out=st.floats(min_value=math.radians(1.0), max_value=math.radians(89.99)),
       n=st.sampled_from([0, 1, -1, -2, 3]), v=velocities)
def test_enumerated_pairs_are_those_whose_internal_sines_propagate(theta_out, n, v):
    # The (n1, n2) enumerate_paths lists, in order, are those whose sines
    # cos(epsilon) + j * lambda / a, j1 = n1 - |N| and j2 = n1 + n2 - |N|, lie in [-1, 1],
    # with lambda / a computed here and not read from the package's cached table.
    setting = MonochromatorSetting(theta_out=theta_out, total_order=n)
    step = 2.0 * math.pi * HBAR / (HELIUM.mass * v * GRATING.period)
    cos_eps, total = math.cos(setting.epsilon), abs(setting.total_order)
    combos = {(n1, n2): [cos_eps + j * step for j in (n1 - total, n1 + n2 - total)]
              for n1 in range(-2, 3) for n2 in range(-2, 3)}
    incidence_sine = cos_eps - total * step
    assume(abs(incidence_sine) > 1e-9)
    assume(all(abs(abs(s) - 1.0) > 1e-9 for sines in combos.values() for s in sines))
    if incidence_sine < 0.0:
        with pytest.raises(BelowCutoffError):
            enumerate_paths(setting, HELIUM, GRATING, v)
        return
    expected = [pair for pair, sines in combos.items() if all(abs(s) <= 1.0 for s in sines)]
    assert [(p.n1, p.n2) for p in enumerate_paths(setting, HELIUM, GRATING, v)] == expected


def test_census_counts_the_groups_of_the_enumerated_records_over_the_default_sweep():
    cfg = RunConfig.from_dict({})
    setting, grating = cfg.setting(), cfg.grating()
    assert cfg.particle() == HELIUM
    for v in map(float, range(300, 5001)):
        paths = enumerate_paths(setting, HELIUM, grating, v)
        assert path_census(setting, HELIUM, grating, v) == (
            25, len(paths), len(group_paths_by_geometry(paths)))


diameters = st.floats(min_value=-12.0, max_value=3.0).map(lambda e: 10.0 ** e)


def _pinhole_passes(theta_exit, theta_ref, pinholes, dx):
    """Cells of exit-point displacement ``dx`` passing every pinhole, each evaluated; a ray
    passes only if it heads downstream, towards the pinhole planes."""
    rel = theta_exit - theta_ref
    along = dx * math.cos(theta_ref)
    passed = np.ones(np.broadcast_shapes(rel.shape, dx.shape), dtype=bool)
    for ph in pinholes:
        t = (ph.distance - dx * math.sin(theta_ref)) / np.cos(rel)
        off = along + t * np.sin(rel)
        passed &= (np.cos(rel) > 0.0) & (off >= -ph.diameter / 2) & (off <= ph.diameter / 2)
    return passed


def _kernel_counts(spec, bl, p, g, nv, nu, device):
    """Velocities and per-row passing offsets of the kernel, through the device on the
    selected path or as the default baseline."""
    velocities, offsets = _axes(spec, bl, nv, nu)
    vbar = spec.center_velocity
    if not device:
        return velocities, _counts(velocities, offsets, vbar, BASELINE_THETA_INC,
                                   (BASELINE_ORDER,), p, g, bl.exit_pinholes)
    theta_inc = incidence_for_output(bl.setting, p, g, vbar)
    path = select_path(bl.setting, p, g, vbar, bl.device)
    return velocities, _counts(velocities, offsets, vbar, theta_inc, path.orders, p, g,
                               bl.exit_pinholes, bl.device)


def _every_cell_counts(spec, bl, p, g, nv, nu, device,
                       baseline=(BASELINE_THETA_INC, BASELINE_ORDER)):
    """Per-row passing offsets with every cut evaluated on every grid cell; without the
    device, the ``baseline`` (incidence angle, order) bounces once."""
    vbar = spec.center_velocity
    velocities = np.linspace(vbar - spec.full_width / 2, vbar + spec.full_width / 2, nv)
    offsets = np.linspace(-bl.source_diameter / 2, bl.source_diameter / 2, nu)
    if not device:
        theta_inc, order = baseline
        step = (2.0 * math.pi * HBAR / (p.mass * g.period) / velocities)[:, None]
        s_exit = math.sin(theta_inc) + order * step
        theta_ref = math.asin(math.sin(theta_inc) + order * (
            2.0 * math.pi * HBAR / (p.mass * g.period) / vbar))
        passed = _pinhole_passes(np.arcsin(np.clip(s_exit, -1.0, 1.0)), theta_ref,
                                 bl.exit_pinholes, offsets / math.cos(theta_inc))
        return np.where(np.abs(s_exit[:, 0]) <= 1.0, passed.sum(axis=1), 0)
    setting, s, length = bl.setting, bl.device.separation, bl.device.length
    theta_inc = incidence_for_output(setting, p, g, vbar)
    path = select_path(setting, p, g, vbar, bl.device)
    entry_window = min(s * math.tan(theta_inc), length)

    def bounces(v):
        """Rise over each bounce, exit angle and validity of the velocity rows ``v``."""
        step = 2.0 * math.pi * HBAR / (p.mass * g.period) / v
        s1 = math.sin(theta_inc) + path.n1 * step
        s2 = s1 + path.n2 * step
        s3 = s2 + path.n3 * step
        valid = (np.abs(s1) <= 1.0) & (np.abs(s2) <= 1.0) & (np.abs(s3) <= 1.0)
        angles = [np.arcsin(np.clip(sine, -1.0, 1.0)) for sine in (s1, s2, s3)]
        return [s * np.tan(angle) for angle in angles], angles[-1], valid

    # The central ray: the centre velocity entering mid-window.
    (rise1, rise2, _), theta_ref, _ = bounces(np.array([vbar]))
    x3_ref = float((entry_window / 2 + rise1 + rise2)[0])
    (rise1, rise2, rise3), theta_exit, valid = bounces(velocities[:, None])
    x1 = entry_window / 2 + offsets / math.cos(theta_inc)
    x2 = x1 + rise1
    x3 = x2 + rise2
    x_clear = x3 + rise3
    passed = (valid & (x1 >= 0.0) & (x1 <= entry_window)
              & (x2 >= 0.0) & (x2 <= length) & (x3 >= 0.0) & (x3 <= length)
              & ~((x_clear > 0.0) & (x_clear < length))
              & _pinhole_passes(theta_exit, float(theta_ref[0]), bl.exit_pinholes, x3 - x3_ref))
    return passed.sum(axis=1)


distances = st.floats(min_value=-3.0, max_value=math.log10(2.0)).map(lambda e: 10.0 ** e)
DEFAULT_DISTANCES = [ph.distance for ph in RunConfig.from_dict({}).beamline().exit_pinholes]


@settings(max_examples=300, deadline=None)
# Rows exiting with rel near +-pi (the first example), and rows passing pinholes
# within reach of the device's exit points or of the baseline's source width
# (the second and third).
@example(v=300.0, nv=3, nu=3, source=1.0, exits=[(1.0, 1.0)], theta_out_deg=80.0,
         length_mm=5.0)
@example(v=2137.0, nv=84, nu=4, source=0.01, exits=[(0.01, 1.0)], theta_out_deg=61.0,
         length_mm=14.0)
@example(v=1000.0, nv=300, nu=60, source=1e-3, exits=[(2e-3, 0.3), (1e-2, 1.0)],
         theta_out_deg=85.0, length_mm=50.0)
@given(v=st.floats(min_value=300.0, max_value=5000.0),
       nv=st.integers(min_value=3, max_value=400), nu=st.integers(min_value=1, max_value=80),
       source=diameters,
       exits=(st.lists(st.tuples(diameters, distances), min_size=1, max_size=2)
              | st.tuples(diameters, diameters).map(lambda ds: list(zip(ds, DEFAULT_DISTANCES)))
              | st.just([(1e3, at) for at in DEFAULT_DISTANCES])),
       theta_out_deg=st.floats(min_value=30.0, max_value=89.9999),
       length_mm=st.floats(min_value=5.0, max_value=200.0))
def test_row_counts_match_every_cell(v, nv, nu, source, exits, theta_out_deg, length_mm):
    # Rows counted from their cut intervals must count exactly the cells the
    # cut expressions pass when every cell is evaluated, on every row.  The
    # exit angle and plate length vary so that the exit clearance cuts too;
    # wide-open exit pinholes leave the device cuts to decide alone.  Pinholes
    # from 1 mm to 2 m away include some within the plate length or the beam's
    # reach, and exit angles near grazing, where reversed rows can pass.
    cfg = RunConfig.from_dict({"setting": {"theta_out_deg": theta_out_deg},
                               "device": {"length_mm": length_mm}})
    bl = cfg.beamline()
    bl = Beamline(
        source_diameter=source,
        exit_pinholes=tuple(sorted((Pinhole(d, at) for d, at in exits),
                                   key=lambda ph: ph.distance)),
        device=bl.device,
        setting=bl.setting,
    )
    spec = BeamSpec(v)
    p, g = cfg.particle(), cfg.grating()
    for device in (True, False):
        try:
            _, counts = _kernel_counts(spec, bl, p, g, nv, nu, device)
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
    bl = Beamline(
        source_diameter=source,
        exit_pinholes=tuple(Pinhole(1e3, p.distance) for p in bl.exit_pinholes),
        device=bl.device,
        setting=bl.setting,
    )
    p, g = cfg.particle(), cfg.grating()
    try:
        velocities, counts = _kernel_counts(BeamSpec(v), bl, p, g, nv, nu, True)
    except MonochromatorError:
        return
    theta_inc = incidence_for_output(bl.setting, p, g, v)
    path = select_path(bl.setting, p, g, v, bl.device)
    offsets = np.linspace(-source / 2, source / 2, nu).tolist()
    traced = [sum(trace_velocity(row, path, bl, p, g, theta_inc, offset=u) is not None
                  for u in offsets)
              for row in velocities.tolist()]
    assert counts.tolist() == traced


FLAT_AND_REVERSED_ROWS = [
    # arcsin(1) exits at pi/2, where the slope at this reference is exactly 0:
    # the row's one offset passes every column (wide pinhole, or the offset
    # exactly on the edge, where 0 / 0 would be NaN) or none (narrow pinhole).
    (0.1013, math.pi / 2, 30.0, 41),
    (0.1013, math.pi / 2, 2 * 0.3 * float(np.tan(np.arcsin(1.0) - 0.1013)), 41),
    (0.1013, math.pi / 2, 1e-2, 0),
    # A row exiting far below the reference (rel = -2.6 rad) heads away from the
    # pinhole plane, so no column passes, although the line through the row
    # crosses the pinhole between columns.
    (1.3, -1.3, 2 * (0.3 * math.tan(-2.6) + 0.31 * 3.7e-4), 0),
]


@pytest.mark.parametrize("theta_ref, theta_exit, diameter, expected", FLAT_AND_REVERSED_ROWS)
def test_pinhole_bounds_of_flat_and_reversed_rows(theta_ref, theta_exit, diameter, expected):
    theta_exit = np.array([np.arcsin(np.sin(theta_exit))])
    pinholes = (Pinhole(abs(diameter), 0.3),)
    dx = np.linspace(-1e-3, 1e-3, 41)
    lo, hi = _pinhole_bounds(theta_exit, theta_ref, pinholes)
    assert not np.isnan(lo).any() and not np.isnan(hi).any()
    assert _row_counts(np.array([True]), dx, lo, hi)[0] == expected


def _bounds_of_each_pinhole(theta_exit, theta_ref, pinholes):
    """``_pinhole_bounds`` as the intersection of each pinhole's own bounds on dx."""
    rel = theta_exit - theta_ref
    tan_rel = np.tan(rel)
    slope = math.cos(theta_ref) - math.sin(theta_ref) * tan_rel
    flat = slope == 0.0
    divisor = np.where(flat, 1.0, slope)
    lo, hi = np.where(np.abs(rel) <= math.pi / 2, -np.inf, np.inf), np.full(slope.shape, np.inf)
    for ph in pinholes:
        centre = ph.distance * tan_rel
        a = (-ph.diameter / 2 - centre) / divisor
        b = (ph.diameter / 2 - centre) / divisor
        flat_lo = np.where(np.abs(centre) <= ph.diameter / 2, -np.inf, np.inf)
        lo = np.maximum(lo, np.where(flat, flat_lo, np.minimum(a, b)))
        hi = np.minimum(hi, np.where(flat, np.inf, np.maximum(a, b)))
    return lo, hi


@settings(max_examples=300, deadline=None)
@given(theta_ref=st.floats(min_value=-1.5, max_value=1.5) | st.sampled_from([0.1013, 1.3]),
       theta_exit=st.lists(st.floats(min_value=-math.pi / 2, max_value=math.pi / 2)
                           | st.sampled_from([math.pi / 2, math.nan]), min_size=1, max_size=30),
       pinholes=st.lists(st.builds(Pinhole, st.floats(min_value=1e-6, max_value=10.0),
                                   st.floats(min_value=1e-4, max_value=1e300)), max_size=3))
@example(theta_ref=0.1013, theta_exit=[math.pi / 2, math.nan, 0.1013],
         pinholes=[Pinhole(30.0, 0.3), Pinhole(1e-2, 0.3)])
def test_pinhole_bounds_are_each_pinholes_bounds_intersected_bit_for_bit(
        theta_ref, theta_exit, pinholes):
    # One division of the intersected bounds on dx * slope, flat and NaN rows included.
    theta_exit = np.arcsin(np.sin(theta_exit))
    with np.errstate(invalid="ignore", over="ignore"):
        got = _pinhole_bounds(theta_exit, theta_ref, tuple(pinholes))
        expected = _bounds_of_each_pinhole(theta_exit, theta_ref, tuple(pinholes))
    for g, e in zip(got, expected):
        assert g.tobytes() == e.tobytes()


def test_a_pinhole_within_reach_passes_no_reversed_row():
    # A 1 mm pinhole 0.5 mm off lies within reach of exit points up to 1 mm off, where
    # the line through the row at rel = -2.6 rad crosses it on 33 of 41 columns; the row
    # heads away from the pinhole plane, so it passes none.
    pinholes = (Pinhole(1e-3, 5e-4),)
    theta_exit = np.arcsin(np.sin([-1.3]))
    lo, hi = _pinhole_bounds(theta_exit, 1.3, pinholes)
    assert _row_counts(np.array([True]), np.linspace(-1e-3, 1e-3, 41), lo, hi)[0] == 0


def test_baseline_rows_leaving_away_from_the_pinhole_pass_nothing():
    # At a 89.9 degree baseline incidence the slow rows of a 50,000 +- 49,850 m/s beam leave
    # far below the reference ray (rel = -158.5 degrees at 150 m/s), away from a 2 m pinhole
    # 1 m off.  The line through such a row crosses the pinhole; the ray does not.
    cfg = RunConfig.from_dict({})
    bl = cfg.beamline()._replace(exit_pinholes=(Pinhole(2.0, 1.0),))
    spec, p, g = BeamSpec(50000.0, 99700.0), cfg.particle(), cfg.grating()
    theta_inc = math.radians(89.9)
    velocities, offsets = _axes(spec, bl, 2001, 201)
    counts = _counts(velocities, offsets, spec.center_velocity, theta_inc, (-1,), p, g,
                     bl.exit_pinholes)
    assert counts[0] == 0
    assert counts.any()
    assert np.array_equal(counts, _every_cell_counts(spec, bl, p, g, 2001, 201, False,
                                                     baseline=(theta_inc, -1)))


#: Lengths of the invariance properties, in m.  Each is at least 1e-4 and at most 2, and
#: the masses, periods and velocities stay within a factor 16 of the defaults, so scaling
#: by k = 2**i with |i| <= 3 keeps every value, and every product and quotient the model
#: forms, between 1e-60 and 1e60: far from underflow (2**-1022) and overflow (2**1024).
#: Scaling by a power of two is then exact, and every figure must be equal, not close.
lengths = st.floats(min_value=1e-4, max_value=2.0)
powers_of_two = st.integers(min_value=-3, max_value=3).map(lambda i: 2.0 ** i)


@st.composite
def runs(draw):
    """A beamline, beam and grid: exit angle, order, source, one or two exit pinholes,
    plates, centre velocity and width."""
    pinholes = [Pinhole(draw(lengths), draw(lengths)) for _ in range(draw(st.integers(1, 2)))]
    bl = Beamline(
        source_diameter=draw(lengths),
        exit_pinholes=tuple(sorted(pinholes, key=lambda ph: ph.distance)),
        device=DeviceGeometry(separation=draw(lengths), length=draw(lengths)),
        setting=MonochromatorSetting(theta_out=math.radians(draw(st.floats(30.0, 89.0))),
                                     total_order=draw(st.sampled_from([-1, -2, 1]))),
    )
    spec = BeamSpec(draw(st.floats(min_value=600.0, max_value=5000.0)),
                    draw(st.floats(min_value=10.0, max_value=1000.0)))
    return bl, spec, draw(st.integers(3, 200)), draw(st.integers(1, 40))


DEFAULT_RUN = (RunConfig.from_dict({}).beamline(), BeamSpec(1000.0), 201, 21)


def _kernel_figures(spec, bl, p, g, nv, nu, per_velocity=1.0):
    """Both kernels' weights, S, throughput, std and mean, the last two times
    ``per_velocity``, or the type of the error each raised."""
    figures = []
    for kernel in (simulate_beam, single_reflection_baseline):
        try:
            r = kernel(spec, bl, p, g, velocity_bins=nv, offset_samples=nu)
        except MonochromatorError as exc:
            figures.append(type(exc))
        else:
            figures.append((r.weights.tolist(), r.speed_ratio, r.throughput,
                            r.delta_v_std * per_velocity, r.mean_velocity * per_velocity))
    return figures


def _path_figures(bl, p, g, v):
    """The census and the selected path at v, or the type of the error each raised."""
    figures = []
    for walk in (path_census, lambda *a: select_path(*a, bl.device)):
        try:
            figures.append(walk(bl.setting, p, g, v))
        except MonochromatorError as exc:
            figures.append(type(exc))
    return figures


@settings(max_examples=100, deadline=None)
@example(run=DEFAULT_RUN, k=2.0)
@given(run=runs(), k=powers_of_two)
def test_scaling_every_length_changes_no_figure(run, k):
    # Range: see ``lengths``; the scaled lengths lie in [1.25e-5, 16] m.
    bl, spec, nv, nu = run
    scaled = bl._replace(
        source_diameter=bl.source_diameter * k,
        exit_pinholes=tuple(Pinhole(ph.diameter * k, ph.distance * k) for ph in bl.exit_pinholes),
        device=DeviceGeometry(bl.device.separation * k, bl.device.length * k),
    )
    assert (_kernel_figures(spec, scaled, HELIUM, GRATING, nv, nu)
            == _kernel_figures(spec, bl, HELIUM, GRATING, nv, nu))


@settings(max_examples=100, deadline=None)
@example(run=DEFAULT_RUN, k=0.125)
@given(run=runs(), k=powers_of_two)
def test_scaling_the_mass_up_and_the_velocities_down_changes_no_figure(run, k):
    # lambda = h / (m v) keeps its float, and the velocities, mean and std scale by 1 / k.
    # Range: see ``lengths``; m k lies in [8e-28, 6e-26] kg and v / k in [75, 40000] m/s.
    bl, spec, nv, nu = run
    heavy = Particle(HELIUM.mass * k)
    slow = BeamSpec(spec.center_velocity / k, spec.full_width / k)
    assert (_kernel_figures(slow, bl, heavy, GRATING, nv, nu, per_velocity=k)
            == _kernel_figures(spec, bl, HELIUM, GRATING, nv, nu))
    assert (_path_figures(bl, heavy, GRATING, slow.center_velocity)
            == _path_figures(bl, HELIUM, GRATING, spec.center_velocity))


@settings(max_examples=100, deadline=None)
@example(run=DEFAULT_RUN, k=8.0)
@given(run=runs(), k=powers_of_two)
def test_scaling_the_period_up_and_the_mass_down_changes_no_figure(run, k):
    # h / (m v) scales by k exactly, as the period does, so lambda / a keeps its float.
    # Range: see ``lengths``; a k lies in [4e-11, 3e-9] m and m / k in [8e-28, 6e-26] kg.
    bl, spec, nv, nu = run
    wide = Grating(GRATING.period * k, GRATING.reflection_probabilities)
    light = Particle(HELIUM.mass / k)
    assert (_kernel_figures(spec, bl, light, wide, nv, nu)
            == _kernel_figures(spec, bl, HELIUM, GRATING, nv, nu))
    assert (_path_figures(bl, light, wide, spec.center_velocity)
            == _path_figures(bl, HELIUM, GRATING, spec.center_velocity))
