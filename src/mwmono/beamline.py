"""2D ray-optics beamline model.

A plane wave with a rectangular velocity distribution enters through a
source pinhole, bounces three times between the device plates (or once, for
the single-reflection baseline), and passes two downstream pinholes centred
on the exit ray of the central velocity.  The transmitted velocity histogram
gives the beam's speed ratio.

Geometry: the lower plate lies on y = 0 spanning x in [0, l], the upper
plate on y = s.  Rays propagate in the x-y plane; pinholes act as slits in
that plane.  The beam enters through the open front (x < 0), so a ray is
only accepted when it clears the upper plate's leading edge, and the exit
ray must clear the upper plate's trailing edge.

Sampling is deterministic: uniform grids over velocity and over the source
aperture.  Tracing is side-effect free and reduced by plain summation, so
results do not depend on evaluation order.

One count kernel (:func:`_counts`) serves the device and the baseline, which
is that kernel with one bounce and no device.  It evaluates each bounce's
angle, and whether all propagate, for an array of velocities, with the
reference ray (the centre velocity through the axis) as one extra row.  The
device adds the entry window, the two plate cuts, the exit clearance and the
central ray's shift; ``trace_velocity`` is one device row through the same
central-ray helper.

Rows are counted from intervals.  At a fixed velocity (one grid row) every
cut is affine in the source offset u, and so in the row's sorted column
coordinate: x1 = window/2 + u / cos(theta_inc) in the device, dx = u /
cos(theta_inc) in the baseline.  The entry window (x1 in [0, window]), both
on-plate checks (x2, x3 in [0, l]) and each pinhole (|offset| <= d/2) bound
the coordinate, and the exit clearance removes the open gap where x3 + rise3
lies in (0, l).  So a row passes one interval less the gap, and its columns
are counted by binary search; no rows x columns array is built.  The count
equals the one the same cut expressions give on every cell: each cut's value
is monotone in the column coordinate (the pinhole offset up to a few ulps),
so the columns it passes are those on one side of its edge.  The two can
differ only for a column within a few ulps of an edge, where the rounded
cell value and the edge rounded into column space may fall on opposite
sides.  Property tests check equality with the every-cell count and with
``trace_velocity`` at every offset; the README grids and the tests' ranges
never met such a column.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .diffraction import (
    _TWO_PI_HBAR, Grating, Particle, _check_incidence, _check_order, incidence_for_output,
)
from .errors import BelowCutoffError, ConfigurationError, EmptyTransmissionError
# The domain objects, grid bounds, baseline defaults and path selection live in
# geometry, which loads no numpy.
from .geometry import (
    BASELINE_ORDER, BASELINE_THETA_INC, DEFAULT_OFFSET_SAMPLES, DEFAULT_VELOCITY_BINS,
    Beamline, BeamSpec, DiffractionPath, _check_grid, select_path,
)

# The kernels' one floating-point policy: overflow, division by zero and invalid operations
# (0 * inf, inf - inf) give inf or NaN silently.  Every cut is a comparison, which NaN fails, so
# no cut passes a NaN row or ray.  As a decorator each call enters its own scope; ``_reduce``
# runs outside it.
_ROW_ERRSTATE = np.errstate(over="ignore", invalid="ignore", divide="ignore")


class ExitRay(NamedTuple):
    """Ray leaving the device: exit abscissa on the lower plate and angle."""

    position: float  # m, x coordinate of the last reflection
    angle: float  # rad, from the plate normal


class BeamlineResult(NamedTuple):
    """Transmitted velocity distribution and derived figures of merit."""

    velocities: np.ndarray  # m/s, histogram bin centres
    weights: np.ndarray  # transmitted weight per bin, launched total = 1
    mean_velocity: float
    delta_v: float  # FWHM of the transmitted distribution
    delta_v_std: float  # weighted standard deviation, alternative estimator
    speed_ratio: float  # mean / FWHM
    input_speed_ratio: float
    throughput: float

    def to_dict(self) -> dict:
        return {
            "mean_velocity_mps": self.mean_velocity,
            "delta_v_mps": self.delta_v,
            "delta_v_std_mps": self.delta_v_std,
            "speed_ratio": self.speed_ratio,
            "input_speed_ratio": self.input_speed_ratio,
            "throughput": self.throughput,
            "histogram": [[v, w] for v, w in zip(self.velocities.tolist(), self.weights.tolist())],
        }


def _exit_rows(theta_inc, orders, particle, grating, v):
    """Angle after each bounce of ``orders`` for every velocity in ``v``, and which rows
    propagate; evanescent rows get clipped angles.

    Each order shifts the sine by lambda/period = 2 pi hbar / (m a) / v.  A step that overflows
    (subnormal v, or m * a underflowing to 0; 0 * inf is NaN) gives a sine no row passes.
    """
    mass_period = particle.mass * grating.period
    step = (_TWO_PI_HBAR / mass_period if mass_period else math.inf) / v
    angles, valid, sine = [], True, math.sin(theta_inc)
    for n in orders:
        sine = sine + n * step
        valid = valid & (np.abs(sine) <= 1.0)
        angles.append(np.arcsin(np.clip(sine, -1.0, 1.0)))
    return angles, valid


def _central_ray(rises, theta_exit, valid, length, x1):
    """The ray entering at ``x1`` on the last row of the three bounces' ``rises`` s *
    tan(angle) and exit angles ``theta_exit``, or None when a cut blocks it."""
    x2 = x1 + rises[0][-1]
    x3 = x2 + rises[1][-1]
    x_clear = x3 + rises[2][-1]
    if valid[-1] and 0.0 <= x2 <= length and 0.0 <= x3 <= length and not 0.0 < x_clear < length:
        return ExitRay(position=float(x3), angle=float(theta_exit[-1]))
    return None


@_ROW_ERRSTATE
def trace_velocity(
    v: float,
    path: DiffractionPath,
    beamline: Beamline,
    particle: Particle,
    grating: Grating,
    theta_inc: float,
    offset: float = 0.0,
) -> ExitRay | None:
    """Trace one ray through the three-bounce device: one row of the kernel's rows.

    ``offset`` is the ray's transverse distance from the beam axis at the
    source.  Returns None when the ray is blocked: an evanescent order, a
    reflection point off the plates, or a ray failing to enter or leave the
    open ends.
    """
    device = beamline.device
    entry_window = min(device.separation * math.tan(theta_inc), device.length)
    x1 = entry_window / 2 + offset / math.cos(theta_inc)
    if entry_window <= 0 or not 0.0 <= x1 <= entry_window:
        return None
    angles, valid = _exit_rows(theta_inc, path.orders, particle, grating,
                               np.array([v], dtype=float))
    rises = [device.separation * np.tan(a) for a in angles]
    return _central_ray(rises, angles[-1], valid, device.length, x1)


def _pinhole_bounds(theta_exit, theta_ref, pinholes):
    """Per-row bounds (lo, hi) on the exit-point displacement dx passing every pinhole.

    Pinholes are centred on the reference ray (exit angle ``theta_ref``
    through dx = 0) and oriented perpendicular to it.  A ray leaving dx at
    ``theta_exit`` meets the plane of the pinhole at distance L with the
    offset ``dx * slope + L * tan(rel)``, where ``rel = theta_exit -
    theta_ref`` and ``slope = cos(theta_ref) - sin(theta_ref) * tan(rel)``.
    It passes if it heads downstream, cos(rel) > 0, with or without pinholes,
    and |offset| <= d / 2 at each.  For a pinhole beyond the exit point, at
    L > dx * sin(theta_ref), heading downstream is meeting its plane forward
    along the ray.  cos(rel) > 0 is |rel| <= pi / 2 rounded down, as |rel| <=
    pi.  The pinholes bound dx * slope to [low, high], the intersection of
    their [-d / 2 - offset, d / 2 - offset] at dx = 0; one division per row
    turns it into bounds on dx, swapped where the slope is negative, so an
    empty intersection stays empty.  Rounding is monotone, so this is exactly
    the intersection of each pinhole's bounds on dx.  A row of slope 0 has one
    offset on every column: bounds (-inf, inf) if low <= 0 <= high, which is
    |offset| <= d / 2 at every pinhole as the sign of a rounded difference is
    exact, else inf.
    """
    rel = theta_exit - theta_ref
    tan_rel = np.tan(rel)
    slope = math.cos(theta_ref) - math.sin(theta_ref) * tan_rel
    downstream = np.where(np.abs(rel) <= math.pi / 2, -np.inf, np.inf)
    if not pinholes:
        return downstream, np.full(slope.shape, np.inf)
    low, high = -np.inf, np.inf
    for ph in pinholes:
        centre = ph.distance * tan_rel  # offset at dx = 0
        low = np.maximum(low, -ph.diameter / 2 - centre)
        high = np.minimum(high, ph.diameter / 2 - centre)
    flat, rising = slope == 0.0, slope > 0.0
    divisor = np.where(flat, 1.0, slope)
    lo = np.where(rising, low, high) / divisor
    hi = np.where(rising, high, low) / divisor
    lo = np.where(flat, np.where((low <= 0.0) & (high >= 0.0), -np.inf, np.inf), lo)
    lo = np.maximum(downstream, lo)
    return lo, np.where(flat, np.inf, hi)


def _row_counts(valid, x, lo, hi, gap=None):
    """Columns of the sorted ``x`` inside [lo, hi] on each valid row.

    Columns inside the open interval ``gap = (gap_lo, gap_hi)`` do not pass.
    Rows that are invalid or whose bounds are empty or NaN count 0.
    """
    keep = valid & (lo <= hi)
    first = np.searchsorted(x, np.where(keep, lo, np.inf))
    end = np.searchsorted(x, np.where(keep, hi, np.inf), side="right")
    counts = end - first
    if gap is not None:
        gap_first = np.searchsorted(x, gap[0], side="right")
        gap_end = np.searchsorted(x, gap[1])
        counts -= np.maximum(np.minimum(end, gap_end) - np.maximum(first, gap_first), 0)
    return counts


def _axes(spec: BeamSpec, beamline: Beamline, velocity_bins: int, offset_samples: int):
    """Velocity bin centres and source offsets of the sampling grid, after checking its size."""
    _check_grid(velocity_bins, offset_samples)
    vbar, radius = spec.center_velocity, beamline.source_diameter / 2
    velocities = np.linspace(vbar - spec.full_width / 2, vbar + spec.full_width / 2, velocity_bins)
    # Distinct bin centres keep every FWHM positive and so the speed ratio finite.
    if not (velocities[1:] > velocities[:-1]).all():
        raise ConfigurationError(
            f"beam width {spec.full_width} m/s cannot be split into {velocity_bins} distinct "
            f"velocity bins at {vbar} m/s"
        )
    return velocities, np.linspace(-radius, radius, offset_samples)


def _fwhm(x: np.ndarray, w: np.ndarray) -> float:
    """Full width at half maximum with linear interpolation at the crossings."""
    half = w.max() / 2.0
    above = np.nonzero(w >= half)[0]
    i0, i1 = above[0], above[-1]
    if i0 > 0:
        left = x[i0 - 1] + (x[i0] - x[i0 - 1]) * (half - w[i0 - 1]) / (w[i0] - w[i0 - 1])
    else:
        left = x[0]
    if i1 < len(x) - 1:
        right = x[i1] + (x[i1 + 1] - x[i1]) * (w[i1] - half) / (w[i1] - w[i1 + 1])
    else:
        right = x[-1]
    if right > left:
        return right - left
    # One populated bin interpolates to one bin width above; the crossings meet only when
    # rounding merges them, as for a bin between neighbours one ulp away: take one bin.
    return float(x[1] - x[0])


def _reduce(spec, velocities, offsets, counts, transmission) -> BeamlineResult:
    """Figures of merit of the passing ``counts`` per velocity row, each passing ray weighted
    by ``transmission`` over the number of launched rays."""
    weights = counts * (transmission / (velocities.size * offsets.size))
    total = weights.sum()
    if total <= 0.0:
        raise EmptyTransmissionError("no ray passed all apertures")
    mean = float((weights * velocities).sum() / total)
    # Deviations are scaled by a power of two within a factor 2 of the largest
    # of them, so their squares cannot overflow; the scaling is exact in
    # binary floating point.
    deviations = velocities - mean
    scale = math.ldexp(0.5, math.frexp(float(np.abs(deviations).max()))[1])
    var = float((weights * (deviations / scale) ** 2).sum() / total)
    std = math.sqrt(max(var, 0.0)) * scale
    width = float(_fwhm(velocities, weights))
    return BeamlineResult(
        velocities=velocities,
        weights=weights,
        mean_velocity=mean,
        delta_v=width,
        delta_v_std=std,
        speed_ratio=mean / width,
        input_speed_ratio=spec.speed_ratio,
        throughput=float(total),
    )


@_ROW_ERRSTATE
def _counts(velocities, offsets, vbar, theta_inc, orders, particle, grating, pinholes,
            device=None):
    """Passing source offsets per velocity row after the bounces ``orders`` at ``theta_inc``:
    between the plates of ``device``, or off an open grating when it is None (the baseline).

    The pinholes are centred on the reference ray, the centre velocity ``vbar`` through the
    axis, which one extra row of the same evaluation holds.  Every row is traced: the pinhole
    cut is applied once, by :func:`_pinhole_bounds`.
    """
    angles, valid = _exit_rows(theta_inc, orders, particle, grating, np.append(velocities, vbar))
    theta_exit = angles[-1]
    column = offsets / math.cos(theta_inc)  # first reflection point along the plate
    if device is None:
        if not valid[-1]:
            raise EmptyTransmissionError("baseline centre velocity evanescent")
        lo, hi = _pinhole_bounds(theta_exit, theta_exit[-1], pinholes)
        gap = None
    else:
        length = device.length
        entry_window = min(device.separation * math.tan(theta_inc), length)
        if entry_window <= 0:
            raise EmptyTransmissionError("entry window closed at this incidence angle")
        column = entry_window / 2 + column
        rise1, rise2, rise3 = rises = [device.separation * np.tan(a) for a in angles]
        central = _central_ray(rises, theta_exit, valid, length, entry_window / 2)
        if central is None:
            raise EmptyTransmissionError("central ray blocked inside the device")
        # Every cut bounds x1: x1 lies in the entry window, x2 = x1 + rise1 and
        # x3 = x2 + rise2 lie on the plate, dx = x3 - central.position passes the
        # pinholes, and the exit clearance x3 + rise3 lies outside (0, length).
        rise12 = rise1 + rise2
        lo, hi = _pinhole_bounds(theta_exit, central.angle, pinholes)
        shift = central.position - rise12
        lo = np.maximum(np.maximum.reduce([-rise1, -rise12, lo + shift]), 0.0)
        hi = np.minimum(np.minimum.reduce([length - rise1, length - rise12, hi + shift]),
                        entry_window)
        rise = rise12 + rise3
        gap = (-rise, length - rise)
    return _row_counts(valid, column, lo, hi, gap)[:-1]


def simulate_beam(
    spec: BeamSpec,
    beamline: Beamline,
    particle: Particle,
    grating: Grating,
    path: DiffractionPath | None = None,
    velocity_bins: int = DEFAULT_VELOCITY_BINS,
    offset_samples: int = DEFAULT_OFFSET_SAMPLES,
) -> BeamlineResult:
    """Propagate the beam through the triple-bounce device and the pinholes.

    The incidence angle is set so the centre velocity exits at the device's
    fixed exit angle; the downstream pinholes are centred on that ray.  Each
    launched ray carries equal weight; transmitted rays are scaled by the
    path's transmission rate so throughput is physically meaningful.
    """
    velocities, offsets = _axes(spec, beamline, velocity_bins, offset_samples)
    setting, device, vbar = beamline.setting, beamline.device, spec.center_velocity
    theta_inc = incidence_for_output(setting, particle, grating, vbar)
    if path is None:
        path = select_path(setting, particle, grating, vbar, device)
    if path.transmission is None:
        raise ConfigurationError(f"path {path.orders} has no transmission rate for this grating")
    counts = _counts(velocities, offsets, vbar, theta_inc, path.orders, particle, grating,
                     beamline.exit_pinholes, device)
    return _reduce(spec, velocities, offsets, counts, path.transmission)


def single_reflection_baseline(
    spec: BeamSpec,
    beamline: Beamline,
    particle: Particle,
    grating: Grating,
    theta_inc: float = BASELINE_THETA_INC,
    order: int = BASELINE_ORDER,
    velocity_bins: int = DEFAULT_VELOCITY_BINS,
    offset_samples: int = DEFAULT_OFFSET_SAMPLES,
) -> BeamlineResult:
    """Comparison setup: one bounce off an open grating, same pinholes.

    The mirror is not enclosed between plates, so only the pinholes select;
    the exit pinholes are again centred on the centre velocity's exit ray.
    """
    _check_incidence(theta_inc)
    _check_order(order, "order")
    velocities, offsets = _axes(spec, beamline, velocity_bins, offset_samples)
    counts = _counts(velocities, offsets, spec.center_velocity, theta_inc, (order,), particle,
                     grating, beamline.exit_pinholes)
    prob = grating.reflection_probabilities.get(abs(order))
    if prob is None:
        raise ConfigurationError(f"no reflection probability for |order| = {abs(order)}")
    return _reduce(spec, velocities, offsets, counts, prob)


class ScanRow(NamedTuple):
    """One centre velocity of a speed-ratio scan."""

    v_center: float
    input_ratio: float
    final_ratio: float | None
    baseline_ratio: float | None
    throughput: float | None
    flag: str = ""


def scan_speed_ratio(
    v_centers,
    full_width: float,
    beamline: Beamline,
    particle: Particle,
    grating: Grating,
    velocity_bins: int = DEFAULT_VELOCITY_BINS,
    offset_samples: int = DEFAULT_OFFSET_SAMPLES,
    baseline_theta_inc: float = BASELINE_THETA_INC,
    baseline_order: int = BASELINE_ORDER,
) -> list[ScanRow]:
    """Speed ratio before and after the device across centre velocities.

    The incidence angle is re-solved per centre velocity.  Rows where no
    weight is transmitted, the velocity is below cutoff, or the centre is not
    above half the width, plus half the width overflows or the width cannot
    be split into distinct bins there, are emitted with a flag instead of
    being dropped.  A configuration error that flags every centre, such as a
    width no centre can split or an oversized grid, is raised.
    """
    rows, config_error = [], None
    for vbar in v_centers:
        vbar = float(vbar)
        flag = ""
        final = throughput = None
        try:
            spec = BeamSpec(center_velocity=vbar, full_width=full_width)
            result = simulate_beam(
                spec, beamline, particle, grating,
                velocity_bins=velocity_bins, offset_samples=offset_samples,
            )
            final, throughput = result.speed_ratio, result.throughput
        except (ValueError, ConfigurationError) as exc:
            if not full_width > 0:
                raise
            if isinstance(exc, ConfigurationError):
                config_error = exc
            rows.append(ScanRow(vbar, vbar / full_width, None, None, None, "invalid_center"))
            continue
        except EmptyTransmissionError:
            flag = "empty_transmission"
        except BelowCutoffError:
            flag = "below_cutoff"
        baseline = None
        try:
            baseline = single_reflection_baseline(
                spec, beamline, particle, grating,
                theta_inc=baseline_theta_inc, order=baseline_order,
                velocity_bins=velocity_bins, offset_samples=offset_samples,
            ).speed_ratio
        except EmptyTransmissionError:
            pass
        rows.append(ScanRow(vbar, spec.speed_ratio, final, baseline, throughput, flag))
    if config_error is not None and all(row.flag == "invalid_center" for row in rows):
        raise config_error
    return rows
