"""Closed-form atom-surface diffraction.

De Broglie wavelength, the grating equation, its velocity derivative and the
inverse problem of choosing the incidence angle that sends a given velocity
into a fixed exit angle, solved once, in :func:`mwmono.geometry._surviving`.

Sign convention: a positive diffraction order increases sin(theta).  A
device working point quoted with a negative total order (the conventional
label for the first-order working point) is handled through its magnitude;
see :class:`MonochromatorSetting`.

All angles are in radians and all quantities in SI units.  Every function is
pure; the path layer's table cache and its last-table memo change no result.
"""

from __future__ import annotations

import math
from operator import index
from typing import NamedTuple

from .errors import EvanescentOrderError, GrazingSingularityError

#: Reduced Planck constant in J*s (CODATA 2018; exact since the 2019 SI).
HBAR = 1.054571817e-34

#: Planck's constant 2*pi*hbar, the numerator of every de Broglie wavelength.
_TWO_PI_HBAR = 2.0 * math.pi * HBAR

#: Derivative evaluation refuses arcsin arguments closer to +-1 than this.
GRAZING_MARGIN = 1e-12

#: Largest |order| accepted; every order up to it converts to a float exactly.
_MAX_ORDER = 10**9


def _check_order(order, name: str) -> None:
    """Raise ValueError unless ``order``, the value called ``name``, is an integer of
    magnitude at most :data:`_MAX_ORDER`."""
    try:
        index(order)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {order}") from None
    if abs(order) > _MAX_ORDER:
        raise ValueError(f"|{name}| must be at most {_MAX_ORDER}, got {order}")


def _check_incidence(theta_inc: float) -> None:
    """Raise ValueError unless the incidence angle ``theta_inc`` is below pi/2 in magnitude."""
    if not abs(theta_inc) < math.pi / 2:
        raise ValueError(f"|theta_inc| must be below pi/2, got {theta_inc}")


#: A named tuple's ``_make``, which ``_replace`` calls, built through the constructor, so that
#: a changed record is checked as well.
_make_through_constructor = classmethod(lambda cls, fields: cls(*fields))


def _checked(record):
    """Make the named tuple class ``record`` run its ``_check`` on every instance it builds.

    A named tuple may not define ``__new__`` or ``_make`` in its body, so they are set here.
    """
    new = record.__new__

    def checked_new(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    record.__new__, record._make = checked_new, _make_through_constructor
    return record


@_checked
class Particle(NamedTuple):
    """A beam particle, the source of the de Broglie wavelength."""

    mass: float  # kg

    def _check(self):
        if not self.mass > 0:
            raise ValueError(f"particle mass must be positive, got {self.mass}")


class _Grating(NamedTuple):
    period: float  # m
    reflection_probabilities: dict[int, float]


class Grating(_Grating):
    """Periodic surface acting as the diffraction grating.

    ``reflection_probabilities`` maps |order| to the population diffracted
    into that order at a single bounce; the grating keeps a copy of its own.
    ``rates`` is that copy's (|order|, p) items, which key the path layer's
    cached table of surviving and ranked paths.
    """

    def __new__(cls, period: float, reflection_probabilities: dict[int, float] | None = None):
        if not period > 0:
            raise ValueError(f"grating period must be positive, got {period}")
        rates = dict(reflection_probabilities or {})
        for order, p in rates.items():
            if order < 0:
                raise ValueError(f"probabilities are keyed by |order|, got {order}")
            if not 0 < p <= 1:
                raise ValueError(f"reflection probability for order {order} not in (0, 1]: {p}")
        self = super().__new__(cls, period, rates)
        object.__setattr__(self, "rates", tuple(rates.items()))
        return self

    _make = _make_through_constructor

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a Grating")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a Grating")


@_checked
class MonochromatorSetting(NamedTuple):
    """Working point of the device: fixed exit angle and total order.

    ``total_order`` is the signed total diffraction order of the device; its
    magnitude enters the incidence-angle formula.  ``theta_out`` is the fixed
    exit angle, written as pi/2 - epsilon with a small clearance angle
    epsilon keeping the outgoing beam off the surface.
    """

    theta_out: float = math.radians(85.0)  # rad
    total_order: int = -1

    def _check(self):
        if not 0 < self.theta_out < math.pi / 2:
            raise ValueError(f"theta_out must be in (0, pi/2), got {self.theta_out}")
        _check_order(self.total_order, "total_order")

    @property
    def epsilon(self) -> float:
        """Clearance angle between the exit beam and grazing emission."""
        return math.pi / 2 - self.theta_out


#: A helium-4 atom (mass in kg), the default particle.
HELIUM_4 = Particle(mass=6.6464731e-27)


def de_broglie_wavelength(particle: Particle, v: float) -> float:
    """Matter-wave wavelength 2*pi*hbar / (m*v) of a particle at speed v."""
    if not v > 0:
        raise ValueError(f"velocity must be positive, got {v}")
    momentum = particle.mass * v  # zero only if the product underflows
    return _TWO_PI_HBAR / momentum if momentum else math.inf


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
    _check_incidence(theta_inc)
    ratio = wavelength_ratio(particle, grating, v)
    if order == 0:
        return theta_inc  # specular: exact, no sin/arcsin round trip
    arg = math.sin(theta_inc) + order * ratio
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
    derivative diverges.  Checks ``theta_inc`` as :func:`diffraction_angle` does.
    """
    _check_incidence(theta_inc)
    q = order * wavelength_ratio(particle, grating, v)
    if order == 0:
        return 0.0
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
    magnitude: arcsin(cos(epsilon) - |N| * lambda / period), the arcsin of the
    path layer's sine (:func:`mwmono.geometry._surviving`).  v is checked at
    every order, the specular one included, and raises ValueError unless it is
    positive.  Negative solutions are unphysical (the cutoff condition) and
    raise :class:`BelowCutoffError`.
    """
    from .geometry import _surviving  # geometry imports this module, so not at the top
    return math.asin(_surviving(setting, particle, grating, v)[0])


def cutoff_velocity(
    setting: MonochromatorSetting,
    particle: Particle,
    grating: Grating,
) -> float:
    """Lowest velocity reaching the exit angle, where theta_inc crosses zero."""
    n = abs(setting.total_order)
    if n == 0:
        return 0.0
    denominator = particle.mass * grating.period * math.cos(setting.epsilon)
    return n * _TWO_PI_HBAR / denominator if denominator else math.inf  # 0 if it underflows
