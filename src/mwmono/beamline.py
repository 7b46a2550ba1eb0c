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

Rows are settled from their end columns.  At a fixed velocity (one grid row)
every cut is affine in the source offset u: the entry window, both on-plate
checks, the exit clearance (the complement of the interval (0, l)) and each
pinhole's |off| <= d/2.  The entry window depends on u alone, so the
columns it blocks are dropped up front.  The float expressions are monotone in u too, since
each step combines a monotone column value with a per-row constant and
rounding is monotone; only the pinhole offset sums two terms that move
oppositely, so it is monotone up to a few ulps of those terms.  The kernels
evaluate the cuts on the two end columns (u = +-D/2) of every row.  A row
passes in full when both ends pass every interval cut and lie on the same
side of the clearance gap; it passes nothing when both ends fail one cut on
the same side or an order is evanescent.  Each end must clear its bound by
``SETTLE_MARGIN`` of the cut's scale, a million times any rounding
excursion, so a settled row has the count the full grid would give.  The
remaining "partial" rows (at most 15 of 2001 in the device and under a
fifth in the baseline at the default setup) are traced on every column with
the same expressions.  The per-row counts, and hence every output, are
therefore bit-identical to evaluating every cell.
"""

from __future__ import annotations

import math
from collections.abc import Callable
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

#: Largest grids the kernels accept, far above the 8001 x 801 convergence
#: check; partial rows are traced in chunks of about ``_CHUNK_CELLS`` cells.
MAX_VELOCITY_BINS = 100_001
MAX_OFFSET_SAMPLES = 10_001
_CHUNK_CELLS = 1 << 18

#: A row is settled from its end columns only when both ends clear every
#: bound by this fraction of the cut's scale.
SETTLE_MARGIN = 1e-9

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


@dataclass(frozen=True)
class _Cut:
    """One cut on a block of grid cells: a cell passes iff lo <= value <= hi.

    A ``gap`` cut passes outside the open interval (lo, hi) instead.
    ``scale()`` bounds the magnitudes whose rounding errors enter ``value``
    (default |value|); the settling margin is relative to it.
    """

    value: np.ndarray
    lo: float
    hi: float
    scale: Callable[[], np.ndarray] | None = None
    gap: bool = False

    def passes(self) -> np.ndarray:
        v = self.value
        if self.gap:
            return ~((v > self.lo) & (v < self.hi))
        return (v >= self.lo) & (v <= self.hi)

    def settle(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows that pass in full and rows that pass nothing, from the two end columns."""
        v0, v1 = self.value[:, 0], self.value[:, 1]
        scale = np.abs(self.value) if self.scale is None else self.scale()
        m = SETTLE_MARGIN * np.maximum(scale[:, 0], scale[:, 1])
        lo_in, lo_out = self.lo + m, self.lo - m
        hi_in, hi_out = self.hi - m, self.hi + m
        if self.gap:
            clear = ((v0 <= lo_out) & (v1 <= lo_out)) | ((v0 >= hi_out) & (v1 >= hi_out))
            return clear, (v0 > lo_in) & (v1 > lo_in) & (v0 < hi_in) & (v1 < hi_in)
        inside = (v0 >= lo_in) & (v1 >= lo_in) & (v0 <= hi_in) & (v1 <= hi_in)
        return inside, ((v0 < lo_out) & (v1 < lo_out)) | ((v0 > hi_out) & (v1 > hi_out))


@dataclass(frozen=True)
class _Grid:
    """Velocity x source-offset grid whose cuts are monotone along each row.

    ``cuts(rows, u)`` evaluates every cut on the given rows (an index array
    or a slice) and columns ``u`` of shape (1, k).  A cell passes when its
    row is ``valid`` and it passes every cut.
    """

    valid: np.ndarray  # (nv,) bool
    u: np.ndarray  # (nu,) column coordinate the cuts are monotone in
    cuts: Callable[..., list[_Cut]]

    def cell_counts(self, rows) -> np.ndarray:
        """Cells of ``rows`` passing every cut, each column evaluated."""
        cuts = self.cuts(rows, self.u[None, :])
        passed = cuts[0].passes()
        for cut in cuts[1:]:
            passed &= cut.passes()
        return passed.sum(axis=1)

    def row_counts(self) -> np.ndarray:
        """Passing cells per row; only rows unsettled by their ends are traced in full."""
        counts = np.zeros(len(self.valid), dtype=np.intp)
        if self.u.size == 0:
            return counts
        full = self.valid.copy()
        empty = ~self.valid
        for cut in self.cuts(slice(None), self.u[None, [0, -1]]):
            all_pass, none_pass = cut.settle()
            full &= all_pass
            empty |= none_pass
        counts[full] = self.u.size
        partial = np.flatnonzero(~full & ~empty)
        chunk = max(1, _CHUNK_CELLS // self.u.size)
        for i in range(0, partial.size, chunk):
            rows = partial[i:i + chunk]
            counts[rows] = self.cell_counts(rows)
        return counts


def _pinhole_cuts(theta_exit, theta_ref, pinholes):
    """``cuts(rows, dx)`` for pinholes centred on the reference ray.

    Pinholes are centred on the reference ray (exit angle ``theta_ref``
    through dx = 0) and oriented perpendicular to it.  ``theta_exit`` has
    shape (nv, 1); dx is the exit-point displacement along the plate
    relative to the reference ray.  The offset sums two terms that move
    oppositely in dx, so its scale covers both terms and the numerator of
    the path length.
    """
    rel = theta_exit - theta_ref
    cos_rel = np.cos(rel)
    sin_rel = np.sin(rel)
    slope = np.abs(sin_rel / cos_rel)
    cos_ref, sin_ref = math.cos(theta_ref), math.sin(theta_ref)

    def cuts(rows, dx):
        along = dx * cos_ref
        cos_r, sin_r = cos_rel[rows], sin_rel[rows]
        out = []
        for ph in pinholes:
            t = (ph.distance - dx * sin_ref) / cos_r
            off = along + t * sin_r

            def scale(distance=ph.distance):
                return np.abs(along) + (distance + np.abs(dx * sin_ref)) * slope[rows]

            out.append(_Cut(off, -ph.diameter / 2, ph.diameter / 2, scale))
        return out

    return cuts


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
    vbar = spec.center_velocity
    velocities = np.linspace(vbar - spec.full_width / 2, vbar + spec.full_width / 2, velocity_bins)
    offsets = np.linspace(
        -beamline.source_pinhole.diameter / 2,
        beamline.source_pinhole.diameter / 2,
        offset_samples,
    )
    return velocities, offsets


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


def _reduce(spec, velocities, weights, throughput) -> BeamlineResult:
    total = weights.sum()
    if total <= 0.0:
        raise EmptyTransmissionError(
            "no ray passed all apertures",
            configuration={"spec": spec},
        )
    mean = float((weights * velocities).sum() / total)
    var = float((weights * (velocities - mean) ** 2).sum() / total)
    std = math.sqrt(max(var, 0.0))
    width = float(_fwhm(velocities, weights))
    return BeamlineResult(
        velocities=velocities,
        weights=weights,
        mean_velocity=mean,
        delta_v=width,
        delta_v_std=std,
        speed_ratio=mean / width if width > 0 else math.inf,
        input_speed_ratio=spec.speed_ratio,
        throughput=float(throughput),
    )


def _beam_grid(spec, beamline, particle, grating, path, velocity_bins, offset_samples):
    """Velocities, grid and path transmission traced by :func:`simulate_beam`."""
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

    step = _sin_step(particle, grating, velocities)[:, None]  # (nv, 1)
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
    pinholes = _pinhole_cuts(theta_exit, central.angle, beamline.exit_pinholes)

    def cuts(rows, x1):
        x2 = x1 + rise1[rows]
        x3 = x2 + rise2[rows]
        x_clear = x3 + rise3[rows]
        return [
            _Cut(x2, 0.0, length),
            _Cut(x3, 0.0, length),
            _Cut(x_clear, 0.0, length, gap=True),
            *pinholes(rows, x3 - central.position),
        ]

    return velocities, _Grid(valid[:, 0], x1, cuts), path.transmission


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
    velocities, grid, transmission = _beam_grid(
        spec, beamline, particle, grating, path, velocity_bins, offset_samples
    )
    per_ray = transmission / (velocity_bins * offset_samples)
    weights = grid.row_counts() * per_ray
    return _reduce(spec, velocities, weights, weights.sum())


def _baseline_grid(spec, beamline, particle, grating, theta_inc, order,
                   velocity_bins, offset_samples):
    """Velocities, grid and reflection probability of :func:`single_reflection_baseline`."""
    _check_grid(velocity_bins, offset_samples)
    vbar = spec.center_velocity
    velocities, offsets = _axes(spec, beamline, velocity_bins, offset_samples)

    step = _sin_step(particle, grating, velocities)[:, None]
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

    cuts = _pinhole_cuts(theta_exit, theta_ref, beamline.exit_pinholes)
    return velocities, _Grid(valid[:, 0], dx, cuts), prob


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
    velocities, grid, prob = _baseline_grid(
        spec, beamline, particle, grating, theta_inc, order, velocity_bins, offset_samples
    )
    per_ray = prob / (velocity_bins * offset_samples)
    weights = grid.row_counts() * per_ray
    return _reduce(spec, velocities, weights, weights.sum())

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
