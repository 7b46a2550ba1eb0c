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

Rows are counted from intervals.  At a fixed velocity (one grid row) every
cut is affine in the source offset u, and so in the row's sorted column
coordinate: x1 = window/2 + u / cos(theta_inc) in the device, dx = u /
cos(theta_inc) in the baseline.  The entry window depends on u alone, so its
blocked columns are dropped up front.  Both on-plate checks (x2, x3 in
[0, l]) and each pinhole (|offset| <= d/2) bound the coordinate, and the exit
clearance removes the open gap where x3 + rise3 lies in (0, l).  So a row
passes one interval less the gap, and its columns are counted by binary
search; no rows x columns array is built.  The count equals the one the same
cut expressions give on every cell: each cut's value is monotone in the
column coordinate (the pinhole offset up to a few ulps), so the columns it
passes are those on one side of its edge.  The two can differ only for a
column within a few ulps of an edge, where the rounded cell value and the
edge rounded into column space may fall on opposite sides.  A property test
checks exact equality with the every-cell count; the README grids and the
property's ranges never met such a column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffraction import (
    HBAR,
    Grating,
    MonochromatorSetting,
    Particle,
    incidence_for_output,
)
from .errors import BelowCutoffError, ConfigurationError, EmptyTransmissionError
from .geometry import DeviceGeometry, DiffractionPath, enumerate_paths

DEFAULT_VELOCITY_BINS = 2001
DEFAULT_OFFSET_SAMPLES = 201

#: Largest grids the kernels accept, far above the 8001 x 801 convergence check.
MAX_VELOCITY_BINS = 100_001
MAX_OFFSET_SAMPLES = 10_001

#: Baseline comparison: one bounce at this incidence angle, first order.
BASELINE_THETA_INC = math.radians(50.0)
BASELINE_ORDER = -1


@dataclass(frozen=True)
class BeamSpec:
    """Incoming beam: rectangular velocity distribution around a centre."""

    center_velocity: float  # m/s
    full_width: float = 500.0  # m/s

    def __post_init__(self):
        if not self.full_width > 0:
            raise ValueError(f"full_width must be positive, got {self.full_width}")
        if not self.center_velocity > self.full_width / 2:
            raise ValueError(
                "center_velocity must exceed half the width "
                f"({self.center_velocity} vs {self.full_width / 2})"
            )

    @property
    def speed_ratio(self) -> float:
        """Input speed ratio; the rectangle's FWHM is its full width."""
        return self.center_velocity / self.full_width


@dataclass(frozen=True)
class Pinhole:
    """Aperture modelled as a slit in the diffraction plane."""

    diameter: float  # m
    distance: float  # m, along the relevant beam axis

    def __post_init__(self):
        if not self.diameter > 0 or not self.distance > 0:
            raise ValueError("pinhole diameter and distance must be positive")


@dataclass(frozen=True)
class Beamline:
    """Source pinhole, device and downstream pinholes."""

    source_pinhole: Pinhole
    exit_pinholes: tuple[Pinhole, ...]
    device: DeviceGeometry
    setting: MonochromatorSetting

    def __post_init__(self):
        distances = [p.distance for p in self.exit_pinholes]
        if distances != sorted(distances):
            raise ValueError("exit pinholes must be ordered by increasing distance")


@dataclass(frozen=True)
class ExitRay:
    """Ray leaving the device: exit abscissa on the lower plate and angle."""

    position: float  # m, x coordinate of the last reflection
    angle: float  # rad, from the plate normal


@dataclass
class BeamlineResult:
    """Transmitted velocity distribution and derived figures of merit."""

    velocities: np.ndarray  # m/s, histogram bin centres
    weights: np.ndarray  # transmitted weight per bin, launched total = 1
    mean_velocity: float
    delta_v: float  # FWHM of the transmitted distribution
    delta_v_std: float  # weighted standard deviation, alternative estimator
    speed_ratio: float  # mean / FWHM
    input_speed_ratio: float
    throughput: float

    def histogram(self) -> list[tuple[float, float]]:
        return list(zip(self.velocities.tolist(), self.weights.tolist()))

    def to_dict(self) -> dict:
        return {
            "mean_velocity_mps": self.mean_velocity,
            "delta_v_mps": self.delta_v,
            "delta_v_std_mps": self.delta_v_std,
            "speed_ratio": self.speed_ratio,
            "input_speed_ratio": self.input_speed_ratio,
            "throughput": self.throughput,
            "histogram": [[v, w] for v, w in self.histogram()],
        }


def _sin_step(particle: Particle, grating: Grating, v):
    """Per-order shift of sin(theta): lambda/period, vectorized over v."""
    return 2.0 * math.pi * HBAR / (particle.mass * grating.period) / v


def trace_velocity(
    v: float,
    path: DiffractionPath,
    beamline: Beamline,
    particle: Particle,
    grating: Grating,
    theta_inc: float,
    offset: float = 0.0,
) -> ExitRay | None:
    """Trace one ray through the three-bounce device.

    ``offset`` is the ray's transverse distance from the beam axis at the
    source.  Returns None when the ray is blocked: an evanescent order, a
    reflection point off the plates, or a ray failing to enter or leave the
    open ends.
    """
    device = beamline.device
    s = device.separation
    length = device.length
    entry_window = min(s * math.tan(theta_inc), length)
    if entry_window <= 0:
        return None
    x1 = entry_window / 2 + offset / math.cos(theta_inc)
    if not 0.0 <= x1 <= entry_window:
        return None

    step = _sin_step(particle, grating, v)
    s1 = math.sin(theta_inc) + path.n1 * step
    if abs(s1) > 1.0:
        return None
    s2 = s1 + path.n2 * step
    if abs(s2) > 1.0:
        return None
    s3 = s2 + path.n3 * step
    if abs(s3) > 1.0:
        return None
    alpha1, alpha2, theta_exit = math.asin(s1), math.asin(s2), math.asin(s3)

    x2 = x1 + s * math.tan(alpha1)
    x3 = x2 + s * math.tan(alpha2)
    if not (0.0 <= x2 <= length and 0.0 <= x3 <= length):
        return None
    x_clear = x3 + s * math.tan(theta_exit)
    if 0.0 < x_clear < length:
        return None
    return ExitRay(position=x3, angle=theta_exit)


def select_path(
    setting: MonochromatorSetting,
    particle: Particle,
    grating: Grating,
    v: float,
    device: DeviceGeometry,
    max_order: int = 2,
) -> DiffractionPath:
    """Pick the feasible path with the highest transmission at velocity v.

    Feasible means the device's l/s ratio lies inside the path's band and
    the grating defines all three reflection probabilities.  Other feasible
    paths exit at macroscopically different positions and are treated as
    background removed by the exit pinholes.
    """
    paths = enumerate_paths(setting, particle, grating, v, max_order=max_order)
    ratio = device.length_ratio
    width = math.tan(setting.theta_out)  # of every path's band; see feasibility_band
    feasible = [
        p
        for p in paths
        if p.transmission is not None and p.geometry_ratio < ratio < p.geometry_ratio + width
    ]
    if not feasible:
        raise EmptyTransmissionError(
            f"no feasible path at v = {v} m/s for l/s = {ratio:.3g}",
            configuration={"v": v, "length_ratio": ratio},
        )
    return max(feasible, key=lambda p: (p.transmission, -abs(p.n1), p.orders))


def _pinhole_bounds(theta_exit, theta_ref, pinholes):
    """Per-row bounds (lo, hi) on the exit-point displacement dx passing every pinhole.

    Pinholes are centred on the reference ray (exit angle ``theta_ref``
    through dx = 0) and oriented perpendicular to it.  A ray leaving dx at
    ``theta_exit`` meets the pinhole at distance L with the offset
    ``dx * slope + L * tan(rel)``, where ``rel = theta_exit - theta_ref`` and
    ``slope = cos(theta_ref) - sin(theta_ref) * tan(rel)``.  A row of slope 0
    has one offset on every column: bounds (-inf, inf) if it passes, else inf.
    """
    tan_rel = np.tan(theta_exit - theta_ref)
    slope = math.cos(theta_ref) - math.sin(theta_ref) * tan_rel
    flat = slope == 0.0
    divisor = np.where(flat, 1.0, slope)
    lo, hi = np.full(slope.shape, -np.inf), np.full(slope.shape, np.inf)
    for ph in pinholes:
        centre = ph.distance * tan_rel  # offset at dx = 0
        a = (-ph.diameter / 2 - centre) / divisor
        b = (ph.diameter / 2 - centre) / divisor
        flat_lo = np.where(np.abs(centre) <= ph.diameter / 2, -np.inf, np.inf)
        lo = np.maximum(lo, np.where(flat, flat_lo, np.minimum(a, b)))
        hi = np.minimum(hi, np.where(flat, np.inf, np.maximum(a, b)))
    return lo, hi


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


def _check_grid(velocity_bins: int, offset_samples: int) -> None:
    if velocity_bins < 3 or offset_samples < 1:
        raise ConfigurationError(f"grid {velocity_bins} x {offset_samples} is below 3 x 1")
    if velocity_bins > MAX_VELOCITY_BINS or offset_samples > MAX_OFFSET_SAMPLES:
        raise ConfigurationError(
            f"grid {velocity_bins} x {offset_samples} exceeds the limit "
            f"{MAX_VELOCITY_BINS} x {MAX_OFFSET_SAMPLES}"
        )


def _axes(spec: BeamSpec, beamline: Beamline, velocity_bins: int, offset_samples: int):
    """Velocity bin centres and source offsets of the sampling grid."""
    vbar, radius = spec.center_velocity, beamline.source_pinhole.diameter / 2
    velocities = np.linspace(vbar - spec.full_width / 2, vbar + spec.full_width / 2, velocity_bins)
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
    # Single populated bin: resolution-limited width.
    return float(x[1] - x[0]) if len(x) > 1 else 0.0


def _reduce(spec, velocities, weights) -> BeamlineResult:
    total = weights.sum()
    if total <= 0.0:
        raise EmptyTransmissionError(
            "no ray passed all apertures",
            configuration={"spec": spec},
        )
    mean = float((weights * velocities).sum() / total)
    # Deviations are scaled by a power of two within a factor 2 of the largest
    # of them, so their squares cannot overflow; the scaling is exact in
    # binary floating point.  (The beam width would not do once the mean's
    # rounding exceeds it.)
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
        speed_ratio=mean / width if width > 0 else math.inf,
        input_speed_ratio=spec.speed_ratio,
        throughput=float(total),
    )


def _beam_counts(spec, beamline, particle, grating, path, velocity_bins, offset_samples):
    """Velocities, passing offsets per velocity and path transmission of :func:`simulate_beam`."""
    _check_grid(velocity_bins, offset_samples)
    setting = beamline.setting
    device = beamline.device
    vbar = spec.center_velocity
    theta_inc = incidence_for_output(setting, particle, grating, vbar)
    if path is None:
        path = select_path(setting, particle, grating, vbar, device)
    if path.transmission is None:
        raise ConfigurationError(
            f"path {path.orders} has no transmission rate for this grating"
        )

    s = device.separation
    length = device.length
    entry_window = min(s * math.tan(theta_inc), length)
    if entry_window <= 0:
        raise EmptyTransmissionError(
            "entry window closed at this incidence angle",
            configuration={"theta_inc": theta_inc},
        )
    velocities, offsets = _axes(spec, beamline, velocity_bins, offset_samples)

    step = _sin_step(particle, grating, velocities)
    s1 = math.sin(theta_inc) + path.n1 * step
    s2 = s1 + path.n2 * step
    s3 = s2 + path.n3 * step
    valid = (np.abs(s1) <= 1.0) & (np.abs(s2) <= 1.0) & (np.abs(s3) <= 1.0)
    theta_exit = np.arcsin(np.clip(s3, -1.0, 1.0))
    rise1 = s * np.tan(np.arcsin(np.clip(s1, -1.0, 1.0)))
    rise2 = s * np.tan(np.arcsin(np.clip(s2, -1.0, 1.0)))
    rise3 = s * np.tan(theta_exit)

    # The entry window depends on the offset alone: keep the columns in front.
    x1 = entry_window / 2 + offsets / math.cos(theta_inc)
    x1 = x1[(x1 >= 0.0) & (x1 <= entry_window)]

    # Reference ray: centre velocity through the beam axis.
    central = trace_velocity(vbar, path, beamline, particle, grating, theta_inc)
    if central is None:
        raise EmptyTransmissionError(
            "central ray blocked inside the device",
            configuration={"v": vbar, "path": path.orders},
        )

    # Every cut bounds x1: x2 = x1 + rise1 and x3 = x2 + rise2 lie on the
    # plate, dx = x3 - central.position passes the pinholes, and the exit
    # clearance x3 + rise3 lies outside (0, length).
    rise12 = rise1 + rise2
    lo, hi = _pinhole_bounds(theta_exit, central.angle, beamline.exit_pinholes)
    shift = central.position - rise12
    lo = np.maximum.reduce([-rise1, -rise12, lo + shift])
    hi = np.minimum.reduce([length - rise1, length - rise12, hi + shift])
    rise = rise12 + rise3
    counts = _row_counts(valid, x1, lo, hi, gap=(-rise, length - rise))
    return velocities, counts, path.transmission


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
    velocities, counts, transmission = _beam_counts(
        spec, beamline, particle, grating, path, velocity_bins, offset_samples
    )
    return _reduce(spec, velocities, counts * (transmission / (velocity_bins * offset_samples)))


def _baseline_counts(spec, beamline, particle, grating, theta_inc, order,
                     velocity_bins, offset_samples):
    """Velocities, passing offsets per velocity and reflection probability of the baseline."""
    _check_grid(velocity_bins, offset_samples)
    vbar = spec.center_velocity
    velocities, offsets = _axes(spec, beamline, velocity_bins, offset_samples)

    step = _sin_step(particle, grating, velocities)
    s_exit = math.sin(theta_inc) + order * step
    valid = np.abs(s_exit) <= 1.0
    theta_exit = np.arcsin(np.clip(s_exit, -1.0, 1.0))

    s_ref = math.sin(theta_inc) + order * float(_sin_step(particle, grating, vbar))
    if abs(s_ref) > 1.0:
        raise EmptyTransmissionError(
            "baseline centre velocity evanescent",
            configuration={"v": vbar, "order": order},
        )
    theta_ref = math.asin(s_ref)

    dx = offsets / math.cos(theta_inc)  # reflection point along the plate
    prob = grating.reflection_probabilities.get(abs(order))
    if prob is None:
        raise ConfigurationError(f"no reflection probability for |order| = {abs(order)}")

    lo, hi = _pinhole_bounds(theta_exit, theta_ref, beamline.exit_pinholes)
    return velocities, _row_counts(valid, dx, lo, hi), prob


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
    velocities, counts, prob = _baseline_counts(
        spec, beamline, particle, grating, theta_inc, order, velocity_bins, offset_samples
    )
    return _reduce(spec, velocities, counts * (prob / (velocity_bins * offset_samples)))

@dataclass(frozen=True)
class ScanRow:
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
    weight is transmitted, the velocity is below cutoff or the centre is not
    above half the width are emitted with a flag instead of being dropped.
    """
    rows = []
    for vbar in v_centers:
        vbar = float(vbar)
        try:
            spec = BeamSpec(center_velocity=vbar, full_width=full_width)
        except ValueError:
            if not full_width > 0:
                raise
            rows.append(ScanRow(vbar, vbar / full_width, None, None, None, "invalid_center"))
            continue
        flag = ""
        final = throughput = None
        try:
            result = simulate_beam(
                spec, beamline, particle, grating,
                velocity_bins=velocity_bins, offset_samples=offset_samples,
            )
            final = result.speed_ratio
            throughput = result.throughput
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
        rows.append(
            ScanRow(
                v_center=vbar,
                input_ratio=spec.speed_ratio,
                final_ratio=final,
                baseline_ratio=baseline,
                throughput=throughput,
                flag=flag,
            )
        )
    return rows
