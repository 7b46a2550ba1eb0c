"""Triple-reflection matter-wave monochromator simulator.

Closed-form atom-surface diffraction, bounce-path enumeration with geometric
feasibility, and a 2D ray-optics beamline model predicting transmitted
velocity distributions and speed ratios for a continuous atom beam.
"""

__version__ = "0.1.0"

from .config import RunConfig, dump_default_config
from .diffraction import (
    HBAR,
    HELIUM_4,
    Grating,
    MonochromatorSetting,
    Particle,
    cutoff_velocity,
    de_broglie_wavelength,
    diffraction_angle,
    incidence_for_output,
    velocity_divergence,
)
from .errors import (
    BelowCutoffError,
    ConfigurationError,
    EmptyTransmissionError,
    EvanescentOrderError,
    GrazingSingularityError,
    MonochromatorError,
)
from .geometry import (
    Beamline,
    BeamSpec,
    DeviceGeometry,
    DiffractionPath,
    FeasibilityBand,
    PathGroup,
    Pinhole,
    enumerate_paths,
    feasibility_band,
    group_paths_by_geometry,
    path_census,
    select_path,
)

__all__ = [
    "HBAR",
    "HELIUM_4",
    "BeamSpec",
    "Beamline",
    "BeamlineResult",
    "BelowCutoffError",
    "ConfigurationError",
    "DeviceGeometry",
    "DiffractionPath",
    "EmptyTransmissionError",
    "EvanescentOrderError",
    "FeasibilityBand",
    "Grating",
    "GrazingSingularityError",
    "MonochromatorError",
    "MonochromatorSetting",
    "Particle",
    "PathGroup",
    "Pinhole",
    "RunConfig",
    "ScanRow",
    "cutoff_velocity",
    "de_broglie_wavelength",
    "diffraction_angle",
    "dump_default_config",
    "enumerate_paths",
    "feasibility_band",
    "group_paths_by_geometry",
    "incidence_for_output",
    "path_census",
    "scan_speed_ratio",
    "select_path",
    "simulate_beam",
    "single_reflection_baseline",
    "trace_velocity",
    "velocity_divergence",
]

#: Names of the numpy kernel module, loaded on first access (PEP 562).
_KERNEL_NAMES = frozenset({"BeamlineResult", "ScanRow", "scan_speed_ratio", "simulate_beam",
                           "single_reflection_baseline", "trace_velocity"})


def __getattr__(name):
    if name not in _KERNEL_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import beamline

    # Cached in the module, so later lookups bypass this function and see the
    # same object as mwmono.beamline.
    value = globals()[name] = getattr(beamline, name)
    return value
