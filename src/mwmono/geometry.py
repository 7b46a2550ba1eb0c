"""Three-bounce path enumeration and device feasibility.

A path through the device is the triple of internal diffraction orders
(n1, n2, n3) with n1 + n2 + n3 equal to the device's total order.  Each
surviving path fixes the two internal angles, the first-to-third reflection
span relative to the plate separation (the geometry ratio d/s), and the
transmission rate, the product of the per-bounce diffraction populations.
The device realizes the most transmissive path whose l/s band holds its own
l/s ratio (:func:`select_path`).

The beamline's domain objects (beam, pinholes, beamline), the sampling
grid's bounds and the baseline's defaults live here too, so that selecting a
path or building and validating a config never loads the numpy kernels of
:mod:`mwmono.beamline`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .diffraction import (
    Grating,
    MonochromatorSetting,
    Particle,
    incidence_for_output,
    wavelength_ratio,
)
from .errors import ConfigurationError, EmptyTransmissionError

#: Relative tolerance used to merge paths with equal geometry ratio.
GROUP_RTOL = 1e-9

DEFAULT_VELOCITY_BINS = 2001
DEFAULT_OFFSET_SAMPLES = 201

#: Largest grids the kernels accept, far above the 8001 x 801 convergence check.
MAX_VELOCITY_BINS = 100_001
MAX_OFFSET_SAMPLES = 10_001

#: Baseline comparison: one bounce at this incidence angle, first order.
BASELINE_THETA_INC = math.radians(50.0)
BASELINE_ORDER = -1


@dataclass(frozen=True)
class DeviceGeometry:
    """Parallel-plate device: plate separation s and plate length l."""

    separation: float  # m
    length: float  # m

    def __post_init__(self):
        if not self.separation > 0:
            raise ValueError(f"separation must be positive, got {self.separation}")
        if not self.length > 0:
            raise ValueError(f"length must be positive, got {self.length}")

    @property
    def length_ratio(self) -> float:
        """Length-to-separation ratio l/s."""
        return self.length / self.separation


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
        if not math.isfinite(self.center_velocity + self.full_width / 2):
            raise ValueError(f"center_velocity {self.center_velocity} + half the width overflows")

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
    """Source aperture, device and downstream pinholes.

    The beam is a plane wave: every source offset enters at the same
    incidence angle, so the source aperture sets only the beam's width.
    """

    source_diameter: float  # m
    exit_pinholes: tuple[Pinhole, ...]
    device: DeviceGeometry
    setting: MonochromatorSetting

    def __post_init__(self):
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
    for one of the orders involved.  A named tuple: immutable and hashable,
    and several times cheaper to build than a frozen dataclass.
    :func:`enumerate_paths` builds its records with ``tuple.__new__``, which
    is what the generated ``__new__`` does, without its Python frame: a
    census sweep builds about 16 records per velocity, twice.
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


@dataclass(frozen=True)
class FeasibilityBand:
    """Open interval of l/s ratios supporting a path.

    The lower bound keeps the third reflection on the plate; the upper bound
    lets the exit beam clear the opposite plate.  The width is tan(theta_out)
    for every path.
    """

    lower: float
    upper: float

    def contains(self, ratio: float) -> bool:
        return self.lower < ratio < self.upper


def enumerate_paths(
    setting: MonochromatorSetting,
    particle: Particle,
    grating: Grating,
    v: float,
    max_order: int = 2,
) -> list[DiffractionPath]:
    """All realizable bounce sequences at velocity v.

    (n1, n2) range over [-max_order, max_order]; n3 is fixed by order
    conservation.  A combination survives when both internal diffraction
    angles exist (no evanescent order).  An empty list is a valid result.
    """
    theta_inc = incidence_for_output(setting, particle, grating, v)
    total = setting.order_magnitude
    step = wavelength_ratio(particle, grating, v)
    sin_inc = math.sin(theta_inc)
    probs = grating.reflection_probabilities
    # Sine shift and reflection probability of every order a bounce can take:
    # n1, n2 in -max_order..max_order and n3 = total - n1 - n2.  The specular
    # shift is 0.0, not 0 * step, which is nan once the momentum underflows
    # and the step is inf.
    low = total - 2 * max_order
    orders = range(min(-max_order, low), total + 2 * max_order + 1)
    if low > max_order + 1:  # skip the orders no bounce takes
        orders = (*range(-max_order, max_order + 1), *range(low, orders.stop))
    bounce = {n: (n * step if n else 0.0, probs.get(abs(n))) for n in orders}
    internal = range(-max_order, max_order + 1)

    paths = []
    for n1 in internal:
        shift1, p1 = bounce[n1]
        s1 = sin_inc + shift1
        if abs(s1) > 1.0:
            continue
        alpha1 = math.asin(s1)
        tan1 = math.tan(alpha1)
        for n2 in internal:
            shift2, p2 = bounce[n2]
            s2 = s1 + shift2
            if abs(s2) > 1.0:
                continue
            n3 = total - n1 - n2
            shift3, p3 = bounce[n3]
            if abs(s2 + shift3) > 1.0:
                continue
            alpha2 = math.asin(s2)
            paths.append(tuple.__new__(DiffractionPath, (
                n1, n2, n3, alpha1, alpha2, tan1 + math.tan(alpha2),
                None if p1 is None or p2 is None or p3 is None else p1 * p2 * p3,
            )))
    return paths


def feasibility_band(path: DiffractionPath, setting: MonochromatorSetting) -> FeasibilityBand:
    """l/s interval in which the device realizes this path."""
    lower = path.geometry_ratio
    return FeasibilityBand(lower=lower, upper=lower + math.tan(setting.theta_out))


def select_path(
    setting: MonochromatorSetting,
    particle: Particle,
    grating: Grating,
    v: float,
    device: DeviceGeometry,
) -> DiffractionPath:
    """Pick the feasible path with the highest transmission at velocity v.

    Feasible means the device's l/s ratio lies inside the path's band and
    the grating defines all three reflection probabilities.  The kernel
    simulates only the returned path and centres the exit pinholes on its
    central ray.  Other feasible paths of the same total order leave at the
    same exit angle and can pass those pinholes too (from about 600 m/s at
    the defaults), but they are left out of the throughput.
    """
    paths = enumerate_paths(setting, particle, grating, v)
    ratio = device.length_ratio
    width = math.tan(setting.theta_out)  # of every path's band; see feasibility_band
    feasible = [
        p
        for p in paths
        if p.transmission is not None and p.geometry_ratio < ratio < p.geometry_ratio + width
    ]
    if not feasible:
        raise EmptyTransmissionError(f"no feasible path at v = {v} m/s for l/s = {ratio:.3g}")
    return max(feasible, key=lambda p: (p.transmission, -abs(p.n1), p.orders))


def _same_group(ratio: float, ref: float) -> bool:
    """Whether ``ratio`` joins the group whose first (smallest) ratio is ``ref``."""
    return abs(ratio - ref) <= GROUP_RTOL * max(1.0, abs(ref))


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
        if clusters:
            ref, members = clusters[-1]
            if _same_group(path.geometry_ratio, ref):
                members.append(path)
                continue
        clusters.append((path.geometry_ratio, [path]))
    return [PathGroup(ref, tuple(members)) for ref, members in clusters]


def path_census(
    setting: MonochromatorSetting,
    particle: Particle,
    grating: Grating,
    v: float,
    max_order: int = 2,
) -> tuple[int, int, int]:
    """(considered, surviving, groups) counts of the enumeration at velocity v.

    ``considered`` is the (2 * max_order + 1) ** 2 combinations of (n1, n2);
    ``surviving`` counts those whose two internal orders both propagate;
    ``groups`` counts the clusters of surviving paths with equal d/s within
    ``GROUP_RTOL``, so each symmetric pair (n1, n2, n3) / (n1 + n2, -n2,
    N - n1), which swaps the two internal angles, forms one group.  They are
    counted from the sorted ratios by :func:`group_paths_by_geometry`'s rule,
    without building the groups.
    """
    considered = (2 * max_order + 1) ** 2
    paths = enumerate_paths(setting, particle, grating, v, max_order=max_order)
    groups, ref = 0, 0.0
    for ratio in sorted([p.geometry_ratio for p in paths]):
        if not groups or not _same_group(ratio, ref):
            groups, ref = groups + 1, ratio
    return considered, len(paths), groups
