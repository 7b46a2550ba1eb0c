"""Three-bounce path enumeration and device feasibility.

A path through the device is the triple of internal diffraction orders (n1, n2, n3)
with n1 + n2 + n3 equal to the device's total order N.  Bounce i leaves at the sine
cos(epsilon) + j_i * lambda / a, with the sine indices j1 = n1 - N, j2 = n1 + n2 - N
and j3 = 0: the exit bounce always propagates.  So the surviving paths change only
where lambda / a crosses a threshold, and :func:`_census_table` lists them, with their
census, their selection order, cos(epsilon) and tan(theta_out), once per exit angle,
|N| and grating rates.  :func:`_surviving` is the package's one incidence solve.  Each
surviving path fixes the two internal angles, the geometry ratio d/s (the
first-to-third reflection span over the plate separation), which depends on the
unordered pair {j1, j2} alone and so names the path's group, and the transmission
rate, the product of the per-bounce diffraction populations.  The device realizes the
most transmissive path whose l/s band holds its own l/s ratio
(:func:`select_path`).  For a zero order, enumeration adds 0.0 to the sine and selection
reuses the angle before it: the incidence sine lies in [+0, 1] and a nonzero step never
sums to -0.0, so adding 0.0 keeps every sine, and their angles and ratios agree bit for bit.

The beamline's domain objects (beam, pinholes, beamline), the sampling
grid's bounds and the baseline's defaults live here too, so that selecting a
path or building and validating a config never loads the numpy kernels of
:mod:`mwmono.beamline`.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from operator import attrgetter, index
from typing import NamedTuple

from .diffraction import (
    _TWO_PI_HBAR,
    Grating,
    MonochromatorSetting,
    Particle,
    _checked,
    cutoff_velocity,
)
from .errors import BelowCutoffError, ConfigurationError, EmptyTransmissionError

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


def _check_width(full_width: float) -> None:
    """Raise ValueError unless the beam's ``full_width`` is positive."""
    if not full_width > 0:
        raise ValueError(f"full_width must be positive, got {full_width}")


def _reflection_probability(grating: Grating, order: int) -> float:
    """The reflection probability of ``grating`` for |``order``|, or ConfigurationError."""
    prob = grating.reflection_probabilities.get(abs(order))
    if prob is None:
        raise ConfigurationError(f"no reflection probability for |order| = {abs(order)}")
    return prob


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


@_checked
class BeamSpec(NamedTuple):
    """Incoming beam: rectangular velocity distribution around a centre."""

    center_velocity: float  # m/s
    full_width: float = 500.0  # m/s

    def _check(self):
        _check_width(self.full_width)
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
    try:
        index(velocity_bins), index(offset_samples)
    except TypeError:
        raise ConfigurationError(
            f"grid sizes must be integers, got {velocity_bins} x {offset_samples}") from None
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


@functools.lru_cache(maxsize=64)
def _census_table(theta_out: float, total: int, rates: tuple[tuple[int, float], ...]):
    """(cos_eps, width, limits, rows) of the exit angle ``theta_out``, |N| = ``total`` and a
    grating's ``rates``: cos(epsilon), every band's width tan(theta_out), and the rows.

    Index j propagates while the step lambda / a is at most (1 - cos(epsilon)) / j for
    j > 0, or (1 + cos(epsilon)) / |j| for j < 0; ``limits`` are those bounds, distinct and
    ascending.  ``rows[bisect_left(limits, step)]`` holds, at ``step``, the (n1, n2, n3)
    whose j1 and j2 both propagate, in :data:`INTERNAL_ORDERS` order; their census
    (considered, surviving, groups), a group being one unordered pair {j1, j2}; and
    :func:`select_path`'s candidates, those whose three rates ``rates`` all define, best
    first by (transmission, -|n1|, orders); :func:`_surviving` memoizes the last lookup.
    """
    cos_eps = math.cos(math.pi / 2 - theta_out)  # MonochromatorSetting.epsilon's float
    limit = {j: (1.0 - cos_eps) / j if j > 0 else (1.0 + cos_eps) / -j
             for j in range(-4 - total, 5 - total) if j}
    probs, paths, keys = dict(rates), {}, {}  # paths: (n1, n2, n3) -> (its limit, {j1, j2})
    for n1 in INTERNAL_ORDERS:
        for n2 in INTERNAL_ORDERS:
            js, orders = (n1 - total, n1 + n2 - total), (n1, n2, total - n1 - n2)
            paths[orders] = (min(limit.get(j, math.inf) for j in js), frozenset(js))
            if (transmission := _transmission(probs, *orders)) is not None:
                keys[orders] = (transmission, -abs(n1), orders)
    limits = sorted(set(limit.values()))
    rows = []
    for floor in (-math.inf, *limits):
        alive = {orders: js for orders, (lim, js) in paths.items() if lim > floor}
        ranked = sorted(keys.keys() & alive.keys(), key=keys.__getitem__, reverse=True)
        rows.append((tuple(alive), (len(paths), len(alive), len(set(alive.values()))),
                     tuple(ranked)))
    return cos_eps, math.tan(theta_out), tuple(limits), tuple(rows)


#: :func:`_surviving`'s last (rates, theta_out, |N|, table): one tuple, swapped whole.
_last_table = (None, None, None, None)


def _surviving(setting, particle, grating, v):
    """(sin(theta_inc), step, width, row) at v: the package's one incidence solve,
    cos(epsilon) - |N| * step with the step lambda / a, and the step's row (surviving,
    census, ranked) and band width of :func:`_census_table`.  Raises as
    :func:`~mwmono.diffraction.incidence_for_output` documents.

    Order n shifts a sine by ``n * step if n else 0.0``: 0.0, not 0 * step, which is nan once
    the step is inf.  A surviving sine lies in [-1, 1] up to rounding, and is clamped there.

    The last table is reused while ``rates`` is the same object, which the memo holds so
    that its id is never reused, and theta_out and |N| compare equal, as in the lru's key.
    """
    global _last_table
    if not v > 0:
        raise ValueError(f"velocity must be positive, got {v}")
    momentum = particle.mass * v  # zero only if the product underflows
    step = (_TWO_PI_HBAR / momentum if momentum else math.inf) / grating.period
    n, theta_out, rates = abs(setting.total_order), setting.theta_out, grating.rates
    last_rates, last_theta_out, last_n, table = _last_table
    if not (rates is last_rates and theta_out == last_theta_out and n == last_n):
        table = _census_table(theta_out, n, rates)
        _last_table = (rates, theta_out, n, table)
    cos_eps, width, limits, rows = table
    arg = cos_eps - (n * step if n else 0.0)
    if arg < 0.0:
        raise BelowCutoffError(v, setting.total_order, cutoff_velocity(setting, particle, grating))
    return arg, step, width, rows[bisect_left(limits, step)]


def enumerate_paths(
    setting: MonochromatorSetting,
    particle: Particle,
    grating: Grating,
    v: float,
) -> list[DiffractionPath]:
    """All realizable bounce sequences at velocity v.

    n1 and n2 range over :data:`INTERNAL_ORDERS`; n3 is fixed by order
    conservation.  A combination survives when both internal diffraction
    angles exist (no evanescent order), as :func:`path_census` counts; the
    exit bounce always does.  An empty list is a valid result.
    """
    arg, step, _, (surviving, _, _) = _surviving(setting, particle, grating, v)
    sin_inc, probs = math.sin(math.asin(arg)), grating.reflection_probabilities
    paths = []
    for n1, n2, n3 in surviving:
        s1 = sin_inc + (n1 * step if n1 else 0.0)
        s2 = s1 + (n2 * step if n2 else 0.0)
        alpha1 = math.asin(1.0 if s1 > 1.0 else -1.0 if s1 < -1.0 else s1)
        alpha2 = math.asin(1.0 if s2 > 1.0 else -1.0 if s2 < -1.0 else s2)
        paths.append(DiffractionPath(n1, n2, n3, alpha1, alpha2,
                                     math.tan(alpha1) + math.tan(alpha2),
                                     _transmission(probs, n1, n2, n3)))
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
    the grating defines all three reflection probabilities; ties go to the
    smaller |n1|, then the larger orders.  The kernel
    simulates only the returned path and centres the exit pinholes on its
    central ray.  Other feasible paths of the same total order leave at the
    same exit angle and can pass those pinholes too (from about 600 m/s at
    the defaults), but they are left out of the throughput.

    The walk is best first: the candidates are the surviving paths of
    :func:`enumerate_paths`, ranked in the same :func:`_census_table` row
    that lists them, so at each velocity the angles are computed only up to
    the first feasible candidate.  The incidence angle and its tangent are taken
    once: a zero n1 reuses them, and a zero n2 reuses the first bounce's.
    """
    probs = grating.reflection_probabilities
    ratio = device.length / device.separation
    arg, step, width, (_, _, ranked) = _surviving(setting, particle, grating, v)
    sin_inc = math.sin(math.asin(arg))  # the sine of incidence_for_output's angle
    alpha0 = math.asin(sin_inc)
    tan0 = math.tan(alpha0)
    for n1, n2, n3 in ranked:
        if n1:
            s1 = sin_inc + n1 * step
            alpha1 = math.asin(1.0 if s1 > 1.0 else -1.0 if s1 < -1.0 else s1)
            tan1 = math.tan(alpha1)
        else:
            s1, alpha1, tan1 = sin_inc, alpha0, tan0
        if n2:
            s2 = s1 + n2 * step
            alpha2 = math.asin(1.0 if s2 > 1.0 else -1.0 if s2 < -1.0 else s2)
            lower = tan1 + math.tan(alpha2)
        else:
            alpha2, lower = alpha1, tan1 + tan1
        if lower < ratio < lower + width:
            # _transmission's product, from this grating: rates 1 and 1.0 share a cache key
            # but print apart.  Every ranked candidate defines all three rates.
            transmission = probs[abs(n1)] * probs[abs(n2)] * probs[abs(n3)]
            return tuple.__new__(DiffractionPath, (n1, n2, n3, alpha1, alpha2, lower, transmission))
    raise EmptyTransmissionError(f"no feasible path at v = {v} m/s for l/s = {ratio:.3g}")


class PathGroup(NamedTuple):
    """Paths of one sine-index pair, so of one geometry ratio (alike in the device plane)."""

    geometry_ratio: float
    members: tuple[DiffractionPath, ...]


def group_paths_by_geometry(paths: list[DiffractionPath]) -> list[PathGroup]:
    """Group paths by their unordered sine-index pair {n3, n2 + n3}, which is {-j2, -j1}.

    d/s depends on that pair alone, so a symmetric pair (n1, n2, n3) / (n1 + n2, -n2,
    N - n1), which swaps the two internal angles, forms one group, although rounding may
    part the two ratios.  Groups are returned ordered by their smallest ratio, which is
    the group's ``geometry_ratio``; members are ordered by (ratio, n1, n2, n3) and keep
    their individual transmission rates.
    """
    groups: dict[frozenset, list[DiffractionPath]] = {}
    for path in sorted(paths, key=attrgetter("geometry_ratio", "n1", "n2", "n3")):
        groups.setdefault(frozenset((path.n3, path.n2 + path.n3)), []).append(path)
    return [PathGroup(members[0].geometry_ratio, tuple(members)) for members in groups.values()]


def path_census(
    setting: MonochromatorSetting,
    particle: Particle,
    grating: Grating,
    v: float,
) -> tuple[int, int, int]:
    """(considered, surviving, groups) counts of the enumeration at velocity v.

    ``considered`` is the 25 combinations of (n1, n2) in :data:`INTERNAL_ORDERS`;
    ``surviving`` counts those whose two internal orders both propagate;
    ``groups`` counts their distinct unordered sine-index pairs {j1, j2}, the groups of
    :func:`group_paths_by_geometry`.  The census changes only where lambda / a crosses a
    propagation threshold, so it is read from :func:`_census_table` after solving the
    velocity, with no angle computed.
    """
    return _surviving(setting, particle, grating, v)[3][1]
