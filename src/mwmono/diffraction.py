"""Closed-form atom-surface diffraction.

De Broglie wavelength, the grating equation, its velocity derivative and the
inverse problem of choosing the incidence angle that sends a given velocity
into a fixed exit angle.

Sign convention: a positive diffraction order increases sin(theta).  A
device working point quoted with a negative total order (the conventional
label for the first-order working point) is handled through its magnitude;
see :class:`MonochromatorSetting`.

All angles are in radians and all quantities in SI units.  Every function is
pure; there is no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    BelowCutoffError,
    EvanescentOrderError,
    GrazingSingularityError,
)

#: Reduced Planck constant in J*s (CODATA 2018; exact since the 2019 SI).
HBAR = 1.054571817e-34

#: Derivative evaluation refuses arcsin arguments closer to +-1 than this.
GRAZING_MARGIN = 1e-12

#: Largest |order| accepted; every order up to it converts to a float exactly.
_MAX_ORDER = 10**9


@dataclass(frozen=True)
class Particle:
    """A beam particle, the source of the de Broglie wavelength."""

    mass: float  # kg

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError(f"particle mass must be positive, got {self.mass}")


@dataclass(frozen=True)
class Grating:
    """Periodic surface acting as the diffraction grating.

    ``reflection_probabilities`` maps |order| to the population diffracted
    into that order at a single bounce.
    """

    period: float  # m
    reflection_probabilities: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.period > 0:
            raise ValueError(f"grating period must be positive, got {self.period}")
        for order, p in self.reflection_probabilities.items():
            if order < 0:
                raise ValueError(f"probabilities are keyed by |order|, got {order}")
            if not 0 < p <= 1:
                raise ValueError(f"reflection probability for order {order} not in (0, 1]: {p}")


@dataclass(frozen=True)
class MonochromatorSetting:
    """Working point of the device: fixed exit angle and total order.

    ``total_order`` is the signed total diffraction order of the device; its
    magnitude enters the incidence-angle formula.  ``theta_out`` is the fixed
    exit angle, written as pi/2 - epsilon with a small clearance angle
    epsilon keeping the outgoing beam off the surface.
    """

    theta_out: float = math.radians(85.0)  # rad
    total_order: int = -1

    def __post_init__(self):
        if not 0 < self.theta_out < math.pi / 2:
            raise ValueError(f"theta_out must be in (0, pi/2), got {self.theta_out}")
        if abs(self.total_order) > _MAX_ORDER:
            raise ValueError(f"|total_order| must be at most {_MAX_ORDER}, got {self.total_order}")

    @property
    def epsilon(self) -> float:
        """Clearance angle between the exit beam and grazing emission."""
        return math.pi / 2 - self.theta_out

    @property
    def order_magnitude(self) -> int:
        return abs(self.total_order)


#: A helium-4 atom (mass in kg), the default particle.
HELIUM_4 = Particle(mass=6.6464731e-27)


def de_broglie_wavelength(particle: Particle, v: float) -> float:
    """Matter-wave wavelength 2*pi*hbar / (m*v) of a particle at speed v."""
    if not v > 0:
        raise ValueError(f"velocity must be positive, got {v}")
    momentum = particle.mass * v  # zero only if the product underflows
    return 2.0 * math.pi * HBAR / momentum if momentum else math.inf


def wavelength_ratio(particle: Particle, grating: Grating, v: float) -> float:
    """Wavelength-to-period ratio, the sin-space step of one diffraction order."""
    return de_broglie_wavelength(particle, v) / grating.period


def diffraction_angle(
    theta_inc: float,
    order: int,
    particle: Particle,
    grating: Grating,
    v: float,
) -> float:
    """Exit angle arcsin(sin(theta_inc) + n * lambda / period) of order n.

    Raises :class:`EvanescentOrderError` when the order does not propagate.
    """
    if not abs(theta_inc) < math.pi / 2:
        raise ValueError(f"|theta_inc| must be below pi/2, got {theta_inc}")
    if order == 0:
        if not v > 0:
            raise ValueError(f"velocity must be positive, got {v}")
        return theta_inc  # specular: exact, no sin/arcsin round trip
    arg = math.sin(theta_inc) + order * wavelength_ratio(particle, grating, v)
    if abs(arg) > 1.0:
        raise EvanescentOrderError(arg, order)
    return math.asin(arg)


def velocity_divergence(
    theta_inc: float,
    order: int,
    particle: Particle,
    grating: Grating,
    v: float,
) -> float:
    """Derivative of the exit angle with respect to velocity, d(theta_out)/dv.

    Zero for the specular order.  Raises :class:`GrazingSingularityError`
    when the exit ray is within ``GRAZING_MARGIN`` of grazing, where the
    derivative diverges.
    """
    if order == 0:
        return 0.0
    q = order * wavelength_ratio(particle, grating, v)
    arg = math.sin(theta_inc) + q
    if abs(arg) > 1.0:
        raise EvanescentOrderError(arg, order)
    if abs(arg) > 1.0 - GRAZING_MARGIN:
        raise GrazingSingularityError(arg)
    return -q / (v * math.sqrt(1.0 - arg * arg))


def incidence_for_output(
    setting: MonochromatorSetting,
    particle: Particle,
    grating: Grating,
    v: float,
) -> float:
    """Incidence angle sending velocity v into the fixed exit angle.

    Solves the total grating equation for theta_inc at the setting's order
    magnitude: arcsin(cos(epsilon) - |N| * lambda / period).  Negative
    solutions are unphysical (the cutoff condition) and raise
    :class:`BelowCutoffError`.
    """
    n = setting.order_magnitude
    shift = n * wavelength_ratio(particle, grating, v) if n else 0.0  # 0 * inf is nan
    arg = math.cos(setting.epsilon) - shift
    if arg < 0.0:
        raise BelowCutoffError(v, setting.total_order, cutoff_velocity(setting, particle, grating))
    return math.asin(arg)


def cutoff_velocity(
    setting: MonochromatorSetting,
    particle: Particle,
    grating: Grating,
) -> float:
    """Lowest velocity reaching the exit angle, where theta_inc crosses zero."""
    n = setting.order_magnitude
    if n == 0:
        return 0.0
    return n * 2.0 * math.pi * HBAR / (
        particle.mass * grating.period * math.cos(setting.epsilon)
    )
