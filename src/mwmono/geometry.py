"""Three-bounce path enumeration and device feasibility.

A path through the device is the triple of internal diffraction orders
(n1, n2, n3) with n1 + n2 + n3 equal to the device's total order.  Each
surviving path fixes the two internal angles, the first-to-third reflection
span relative to the plate separation (the geometry ratio d/s), and the
transmission rate, the product of the per-bounce diffraction populations.
The device realizes the most transmissive path whose l/s band holds its own
l/s ratio (:func:`select_path`, a walk of a flat best-first ranking).  Each of
the three walkers solves its velocity once, through :func:`_sines`, and loops over the
candidates itself, with the same float expressions in the same order, so their angles
and ratios agree bit for bit; the census and enumeration build the five (n, shift) pairs
of :data:`INTERNAL_ORDERS` once per call.

The beamline's domain objects (beam, pinholes, beamline), the sampling
grid's bounds and the baseline's defaults live here too, so that selecting a
path or building and validating a config never loads the numpy kernels of
:mod:`mwmono.beamline`.
"""

from __future__ import annotations

import functools
import math
from operator import attrgetter
from typing import NamedTuple

from .diffraction import (
    Grating,
    MonochromatorSetting,
    Particle,
    _checked,
    _incidence,
)
from .errors import ConfigurationError, EmptyTransmissionError

#: Relative tolerance used to merge paths with equal geometry ratio.
GROUP_RTOL = 1e-9

#: The internal orders n1 and n2 each range over [-2, 2]: the paper's 25 (n1, n2) pairs.
INTERNAL_ORDERS = range(-2, 3)

DEFAULT_VELOCITY_BINS = 2001
DEFAULT_OFFSET_SAMPLES = 201

#: Largest grids the kernels accept, far above the 8001 x 801 convergence check.
MAX_VELOCITY_BINS = 100_001
MAX_OFFSET_SAMPLES = 10_001

#: Baseline comparison: one bounce at this incidence angle, first order.
BASELINE_THETA_INC = math.radians(50.0)
BASELINE_ORDER = -1


@_checked
class DeviceGeometry(NamedTuple):
    """Parallel-plate device: plate separation s and plate length l."""

    separation: float  # m
    length: float  # m

    def _check(self):
        if not self.separation > 0:
            raise ValueError(f"separation must be positive, got {self.separation}")
        if not self.length > 0:
            raise ValueError(f"length must be positive, got {self.length}")

    @property
    def length_ratio(self) -> float:
        """Length-to-separation ratio l/s."""
        return self.length / self.separation


@_checked
class BeamSpec(NamedTuple):
    """Incoming beam: rectangular velocity distribution around a centre."""

    center_velocity: float  # m/s
    full_width: float = 500.0  # m/s

    def _check(self):
        if not self.full_width > 0:
            raise ValueError(f"full_width must be positive, got {self.full_width}")
        if not self.center_velocity > self.full_width / 2:
            raise ValueError(
                "center_velocity must exceed half the width "
                f"({self.center_velocity} vs {self.full_width / 2})"
            )
        if not math.isfinite(self.center_velocity + self.full_width / 2):
            raise ValueError(f"center_velocity {self.center_velocity} + half the width overflows")

    @property
    def speed_ratio(self) -> float:
        """Input speed ratio; the rectangle's FWHM is its full width."""
        return self.center_velocity / self.full_width


@_checked
class Pinhole(NamedTuple):
    """Aperture modelled as a slit in the diffraction plane."""

    diameter: float  # m
    distance: float  # m, along the relevant beam axis

    def _check(self):
        if not self.diameter > 0 or not self.distance > 0:
            raise ValueError("pinhole diameter and distance must be positive")


@_checked
class Beamline(NamedTuple):
    """Source aperture, device and downstream pinholes.

    The beam is a plane wave: every source offset enters at the same
    incidence angle, so the source aperture sets only the beam's width.
    """

    source_diameter: float  # m
    exit_pinholes: tuple[Pinhole, ...]
    device: DeviceGeometry
    setting: MonochromatorSetting

    def _check(self):
        if not self.source_diameter > 0:
            raise ValueError(f"source diameter must be positive, got {self.source_diameter}")
        distances = [p.distance for p in self.exit_pinholes]
        if distances != sorted(distances):
            raise ValueError("exit pinholes must be ordered by increasing distance")


def _check_grid(velocity_bins: int, offset_samples: int) -> None:
    if velocity_bins < 3 or offset_samples < 1:
        raise ConfigurationError(f"grid {velocity_bins} x {offset_samples} is below 3 x 1")
    if velocity_bins > MAX_VELOCITY_BINS or offset_samples > MAX_OFFSET_SAMPLES:
        raise ConfigurationError(
            f"grid {velocity_bins} x {offset_samples} exceeds the limit "
            f"{MAX_VELOCITY_BINS} x {MAX_OFFSET_SAMPLES}"
        )


class DiffractionPath(NamedTuple):
    """One realizable (n1, n2, n3) bounce sequence at a given velocity.

    ``transmission`` is None when the grating has no reflection probability
    for one of the orders involved.  A named tuple: immutable and hashable.
    """

    n1: int
    n2: int
    n3: int
    alpha1: float  # rad
    alpha2: float  # rad
    geometry_ratio: float  # d/s = tan(alpha1) + tan(alpha2)
    transmission: float | None

    @property
    def orders(self) -> tuple[int, int, int]:
        return (self.n1, self.n2, self.n3)


class FeasibilityBand(NamedTuple):
    """Open interval of l/s ratios supporting a path.

    The lower bound keeps the third reflection on the plate; the upper bound
    lets the exit beam clear the opposite plate.  The width is tan(theta_out)
    for every path.
    """

    lower: float
    upper: float

    def contains(self, ratio: float) -> bool:
        return self.lower < ratio < self.upper


def _transmission(probs: dict, n1: int, n2: int, n3: int) -> float | None:
    """Product of the reflection probabilities ``probs`` (keyed by |order|) of the three
    orders, or None when one is missing."""
    p1, p2, p3 = probs.get(abs(n1)), probs.get(abs(n2)), probs.get(abs(n3))
    return None if p1 is None or p2 is None or p3 is None else p1 * p2 * p3


def _sines(setting, particle, grating, v):
    """sin(theta_inc) at velocity v, and the step: order n shifts a sine by n * step.

    One solve gives both: the step is the wavelength ratio lambda / period that
    :func:`~mwmono.diffraction.incidence_for_output`'s angle was solved with.  The sine is
    taken of that angle, not read from the arcsin's argument, which differs in the last bit.

    Each walker writes that shift as ``n * step if n else 0.0``: the specular shift is 0.0,
    not 0 * step, which is nan once the momentum underflows and the step is inf.  A sine is
    rejected by ``s > 1.0 or s < -1.0``; both comparisons are false for NaN, so NaN passes.
    """
    theta_inc, step = _incidence(setting, particle, grating, v)
    return math.sin(theta_inc), step


def enumerate_paths(
    setting: MonochromatorSetting,
    particle: Particle,
    grating: Grating,
    v: float,
) -> list[DiffractionPath]:
    """All realizable bounce sequences at velocity v.

    n1 and n2 range over :data:`INTERNAL_ORDERS`; n3 is fixed by order
    conservation.  A combination survives when both internal diffraction
    angles exist (no evanescent order).  An empty list is a valid result.
    """
    sin_inc, step = _sines(setting, particle, grating, v)
    total, probs = abs(setting.total_order), grating.reflection_probabilities
    shifts = [(n, n * step if n else 0.0) for n in INTERNAL_ORDERS]
    paths = []
    for n1, shift1 in shifts:
        s1 = sin_inc + shift1
        if s1 > 1.0 or s1 < -1.0:
            continue
        alpha1, rest = math.asin(s1), total - n1
        tan1 = math.tan(alpha1)
        for n2, shift2 in shifts:
            s2 = s1 + shift2
            n3 = rest - n2
            s3 = s2 + (n3 * step if n3 else 0.0)
            if s2 > 1.0 or s2 < -1.0 or s3 > 1.0 or s3 < -1.0:
                continue
            alpha2 = math.asin(s2)
            paths.append(DiffractionPath(n1, n2, n3, alpha1, alpha2, tan1 + math.tan(alpha2),
                                         _transmission(probs, n1, n2, n3)))
    return paths


def feasibility_band(path: DiffractionPath, setting: MonochromatorSetting) -> FeasibilityBand:
    """l/s interval in which the device realizes this path."""
    lower = path.geometry_ratio
    return FeasibilityBand(lower=lower, upper=lower + math.tan(setting.theta_out))


@functools.lru_cache(maxsize=64)
def _ranked_combinations(probabilities: tuple[tuple[int, float], ...], total: int):
    """:func:`select_path`'s candidates, best first, as one tuple of (n1, n2, n3) triples.

    The candidates are the (n1, n2) combinations whose three reflection probabilities
    ``probabilities`` (the grating's ``rates``) all define, ordered by
    (transmission, -|n1|, orders) from the highest.  That order holds at every velocity.
    """
    probs = dict(probabilities)
    keys = {}
    for n1 in INTERNAL_ORDERS:
        for n2 in INTERNAL_ORDERS:
            n3 = total - n1 - n2
            transmission = _transmission(probs, n1, n2, n3)
            if transmission is not None:
                keys[n1, n2, n3] = (transmission, -abs(n1), (n1, n2, n3))
    return tuple(sorted(keys, key=keys.__getitem__, reverse=True))


def select_path(
    setting: MonochromatorSetting,
    particle: Particle,
    grating: Grating,
    v: float,
    device: DeviceGeometry,
) -> DiffractionPath:
    """Pick the feasible path with the highest transmission at velocity v.

    Feasible means the device's l/s ratio lies inside the path's band and
    the grating defines all three reflection probabilities; ties go to the
    smaller |n1|, then the larger orders.  The kernel
    simulates only the returned path and centres the exit pinholes on its
    central ray.  Other feasible paths of the same total order leave at the
    same exit angle and can pass those pinholes too (from about 600 m/s at
    the defaults), but they are left out of the throughput.

    The walk is best first: the candidates' order depends only on the
    grating's probabilities and |N|, and is cached on those two as one flat
    tuple, so at each velocity the angles are computed only for the
    propagating candidates up to the first feasible one.
    """
    probs = grating.reflection_probabilities
    ranked = _ranked_combinations(grating.rates, abs(setting.total_order))
    ratio = device.length / device.separation
    width = math.tan(setting.theta_out)  # of every path's band; see feasibility_band
    sin_inc, step = _sines(setting, particle, grating, v)
    for n1, n2, n3 in ranked:
        s1 = sin_inc + (n1 * step if n1 else 0.0)
        s2 = s1 + (n2 * step if n2 else 0.0)
        s3 = s2 + (n3 * step if n3 else 0.0)
        if s1 > 1.0 or s1 < -1.0 or s2 > 1.0 or s2 < -1.0 or s3 > 1.0 or s3 < -1.0:
            continue
        alpha1, alpha2 = math.asin(s1), math.asin(s2)
        lower = math.tan(alpha1) + math.tan(alpha2)
        if lower < ratio < lower + width:
            # _transmission's product, from this grating: rates 1 and 1.0 share a cache key
            # but print apart.  Every ranked candidate defines all three rates.
            transmission = probs[abs(n1)] * probs[abs(n2)] * probs[abs(n3)]
            return tuple.__new__(DiffractionPath, (n1, n2, n3, alpha1, alpha2, lower, transmission))
    raise EmptyTransmissionError(f"no feasible path at v = {v} m/s for l/s = {ratio:.3g}")


def _group_limit(ref: float) -> float:
    """Largest distance from ``ref``, a group's first (smallest) ratio, at which a ratio
    joins the group: ``ratio`` joins when ``abs(ratio - ref) <= _group_limit(ref)``."""
    return GROUP_RTOL * max(1.0, abs(ref))


class PathGroup(NamedTuple):
    """Paths sharing a geometry ratio (indistinguishable in the device plane)."""

    geometry_ratio: float
    members: tuple[DiffractionPath, ...]


def group_paths_by_geometry(paths: list[DiffractionPath]) -> list[PathGroup]:
    """Cluster paths whose geometry ratios agree within ``GROUP_RTOL`` (relative).

    Groups are returned ordered by increasing ratio; members keep their
    individual transmission rates.
    """
    clusters: list[tuple[float, list[DiffractionPath]]] = []
    for path in sorted(paths, key=attrgetter("geometry_ratio", "n1", "n2", "n3")):
        ratio = path.geometry_ratio
        if clusters and abs(ratio - clusters[-1][0]) <= limit:
            clusters[-1][1].append(path)
        else:
            clusters.append((ratio, [path]))
            limit = _group_limit(ratio)
    return [PathGroup(ref, tuple(members)) for ref, members in clusters]


def path_census(
    setting: MonochromatorSetting,
    particle: Particle,
    grating: Grating,
    v: float,
) -> tuple[int, int, int]:
    """(considered, surviving, groups) counts of the enumeration at velocity v.

    ``considered`` is the 25 combinations of (n1, n2) in :data:`INTERNAL_ORDERS`;
    ``surviving`` counts those whose two internal orders both propagate;
    ``groups`` counts the clusters of surviving paths with equal d/s within
    ``GROUP_RTOL``, so each symmetric pair (n1, n2, n3) / (n1 + n2, -n2,
    N - n1), which swaps the two internal angles, forms one group.  They are
    counted from the sorted ratios by :func:`group_paths_by_geometry`'s rule,
    without building path records or groups.
    """
    sin_inc, step = _sines(setting, particle, grating, v)
    total, asin, tan = abs(setting.total_order), math.asin, math.tan
    shifts = [(n, n * step if n else 0.0) for n in INTERNAL_ORDERS]
    ratios = []  # each survivor's d/s
    for n1, shift1 in shifts:
        s1 = sin_inc + shift1
        if s1 > 1.0 or s1 < -1.0:
            continue
        tan1, rest = tan(asin(s1)), total - n1
        for n2, shift2 in shifts:
            s2 = s1 + shift2
            n3 = rest - n2
            s3 = s2 + (n3 * step if n3 else 0.0)
            if s2 > 1.0 or s2 < -1.0 or s3 > 1.0 or s3 < -1.0:
                continue
            ratios.append(tan1 + tan(asin(s2)))
    ratios.sort()
    groups, ref, limit = 0, 0.0, 0.0
    for ratio in ratios:
        if not groups or not abs(ratio - ref) <= limit:
            size = abs(ratio)
            groups, ref, limit = groups + 1, ratio, GROUP_RTOL * (size if size > 1.0 else 1.0)
    return len(INTERNAL_ORDERS) ** 2, len(ratios), groups
