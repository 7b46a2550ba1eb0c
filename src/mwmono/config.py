"""Run configuration: defaults, validation, file ingestion.

Config files are YAML (JSON is a YAML subset and therefore also accepted).
External units are degrees, millimetres and m/s; everything is converted to
SI on construction of the domain objects.  A config's shape is checked
against ``DEFAULT_CONFIG`` itself; its ranges are checked by building the
domain objects.
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path
from typing import NamedTuple

from .diffraction import HELIUM_4, Grating, MonochromatorSetting, Particle, _check_order
from .errors import ConfigurationError
from .geometry import (
    BASELINE_ORDER,
    BASELINE_THETA_INC,
    DEFAULT_OFFSET_SAMPLES,
    DEFAULT_VELOCITY_BINS,
    BeamSpec,
    Beamline,
    DeviceGeometry,
    Pinhole,
    _check_grid,
)

#: The mapping each preset name of ``particle`` and ``material`` stands for.
PRESETS: dict = {
    "particle": {
        "helium-4": {"mass_kg": HELIUM_4.mass},
        "helium-3": {"mass_kg": 5.0082343e-27},
    },
    "material": {
        # Hydrogen-passivated Si(111), helium reflectivity to second order.
        "si111-h1x1": {"period_angstrom": 3.383,
                       "reflection_probabilities": {"0": 0.06, "1": 0.03, "2": 0.015}},
    },
}

#: Each default also fixes its value's type: a float accepts any number, an int only integers.
DEFAULT_CONFIG: dict = {
    "particle": "helium-4",
    "material": "si111-h1x1",
    "setting": {"theta_out_deg": math.degrees(MonochromatorSetting._field_defaults["theta_out"]),
                "total_order": MonochromatorSetting._field_defaults["total_order"]},
    "device": {"separation_mm": 5.0, "length_mm": 50.0},
    "beamline": {
        "source_pinhole": {"diameter_mm": 1.0},
        "exit_pinholes": [
            {"diameter_mm": 10.0, "distance_mm": 500.0},
            {"diameter_mm": 10.0, "distance_mm": 1000.0},
        ],
    },
    "beam": {"v_center_mps": 1000.0, "v_width_mps": BeamSpec._field_defaults["full_width"]},
    "sampling": {
        "velocity_bins": DEFAULT_VELOCITY_BINS,
        "offset_samples": DEFAULT_OFFSET_SAMPLES,
    },
    "baseline": {"theta_inc_deg": math.degrees(BASELINE_THETA_INC), "order": BASELINE_ORDER},
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


#: Shapes of the mapping forms of ``particle`` and ``material``, whose
#: defaults are preset names; the empty probability shape takes order
#: magnitudes written in digits.
_MAPPING_FORMS = {
    "particle": {"mass_kg": 1.0},
    "material": {"period_angstrom": 1.0, "reflection_probabilities": {}},
}
_KINDS = {dict: (dict, "a mapping"), list: (list, "a non-empty list"),
          float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "a string")}


def _invalid(path: str, reason) -> ConfigurationError:
    return ConfigurationError(f"invalid config at {path}: {reason}")


def _check_shape(value, template, path: str = "") -> None:
    """Raise unless ``value`` has the keys and value types of ``template``.

    Each list item is shaped like the template's first; booleans are not
    numbers, integers must be ``int`` and a number in a float field must convert
    to a finite float.
    """
    where = path or "<root>"
    if isinstance(template, str) and isinstance(value, dict):
        template = _MAPPING_FORMS.get(path, template)
    kind, name = _KINDS[type(template)]
    if isinstance(value, bool) or not isinstance(value, kind) or value == []:
        raise _invalid(where, f"expected {name}, got {value!r}")
    if isinstance(template, float) and not abs(value) <= sys.float_info.max:
        raise _invalid(where, f"expected a finite number, got {value!r}")
    if isinstance(value, list):
        for i, item in enumerate(value):
            _check_shape(item, template[0], f"{path}/{i}")
    elif isinstance(value, dict):
        template = template or {k: 1.0 for k in value if isinstance(k, str) and k.isdecimal()}
        wrong = [f"unknown key {key!r}" for key in value if key not in template]
        wrong += [f"missing key {key!r}" for key in template if key not in value]
        if wrong:
            raise _invalid(where, wrong[0])
        for key, item in value.items():
            _check_shape(item, template[key], f"{path}/{key}" if path else str(key))


def read_config(path: str | Path) -> dict:
    """The mapping in a YAML or JSON file, unvalidated; an empty file gives {}."""
    import re

    import yaml  # only here and in dump_default_config: most commands read no file

    class Loader(yaml.SafeLoader):
        """YAML 1.1, plus floats as JSON writes them: 5e-27, 1e-05, 1.5e2, 1E+2."""

    Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
        r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"), list("-+0123456789."))
    try:
        raw = yaml.load(Path(path).read_text(), Loader)
    except (OSError, RecursionError, ValueError, yaml.YAMLError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config {path} must be a mapping")
    return raw


class RunConfig(NamedTuple):
    """Validated configuration with factories for the domain objects."""

    data: dict

    @classmethod
    def from_dict(cls, *layers: dict) -> "RunConfig":
        """Merge ``layers`` over the defaults in turn, checking the shape after each, so a
        later layer (the flags) cannot hide a mistyped section of an earlier one (the file);
        then build every domain object.  The config keeps a copy of every mapping and list,
        so neither the defaults nor a caller's layers share its data.

        The beam is checked for its width alone: a scan takes each centre from its grid,
        so the configured centre is checked where :meth:`beam` builds the beam.
        """
        merged = dict(DEFAULT_CONFIG)
        for layer in layers:
            merged = _merge(merged, layer or {})
            _check_shape(merged, DEFAULT_CONFIG)
        cfg = cls(data=copy.deepcopy(merged))
        for section, build in [
            ("particle", cfg.particle), ("material", cfg.grating), ("setting", cfg.setting),
            ("device", cfg.device), ("beamline", cfg.beamline), ("beam", lambda: cfg.beam_width),
            ("sampling", lambda: _check_grid(cfg.velocity_bins, cfg.offset_samples)),
            ("baseline/theta_inc_deg", lambda: cfg.baseline_theta_inc),
            ("baseline/order", lambda: cfg.baseline_order),
        ]:
            try:
                build()
            except (ValueError, ConfigurationError) as exc:
                raise _invalid(section, exc) from None
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(read_config(path))

    def _mapping(self, section: str) -> dict:
        """The mapping form of ``section``, looking a preset name up in ``PRESETS``."""
        spec = self.data[section]
        if not isinstance(spec, str):
            return spec
        try:
            return PRESETS[section][spec]
        except KeyError:
            raise ConfigurationError(
                f"unknown {section} preset {spec!r}; known: {sorted(PRESETS[section])}"
            ) from None

    def particle(self) -> Particle:
        return Particle(mass=self._mapping("particle")["mass_kg"])

    def grating(self) -> Grating:
        spec = self._mapping("material")
        probs = {}
        for key, p in spec["reflection_probabilities"].items():
            if int(key) in probs:  # "1" and "01" both name |order| = 1
                raise ValueError(f"two reflection probability keys name |order| = {int(key)}")
            probs[int(key)] = float(p)
        return Grating(period=spec["period_angstrom"] * 1e-10, reflection_probabilities=probs)

    def setting(self) -> MonochromatorSetting:
        spec = self.data["setting"]
        return MonochromatorSetting(
            theta_out=math.radians(spec["theta_out_deg"]),
            total_order=spec["total_order"],
        )

    def device(self) -> DeviceGeometry:
        spec = self.data["device"]
        return DeviceGeometry(
            separation=spec["separation_mm"] * 1e-3,
            length=spec["length_mm"] * 1e-3,
        )

    def beamline(self) -> Beamline:
        spec = self.data["beamline"]
        return Beamline(
            source_diameter=spec["source_pinhole"]["diameter_mm"] * 1e-3,
            exit_pinholes=tuple(
                Pinhole(diameter=p["diameter_mm"] * 1e-3, distance=p["distance_mm"] * 1e-3)
                for p in spec["exit_pinholes"]
            ),
            device=self.device(),
            setting=self.setting(),
        )

    def beam(self) -> BeamSpec:
        """The configured beam; :meth:`from_dict` leaves its centre to be checked here."""
        spec = self.data["beam"]
        try:
            return BeamSpec(center_velocity=spec["v_center_mps"], full_width=spec["v_width_mps"])
        except ValueError as exc:
            raise _invalid("beam", exc) from None

    @property
    def beam_width(self) -> float:
        """The beam's full width [m/s], which a scan reads without the centre."""
        width = self.data["beam"]["v_width_mps"]
        if not width > 0:
            raise ValueError(f"full_width must be positive, got {width}")
        return width

    @property
    def velocity_bins(self) -> int:
        return self.data["sampling"]["velocity_bins"]

    @property
    def offset_samples(self) -> int:
        return self.data["sampling"]["offset_samples"]

    @property
    def baseline_theta_inc(self) -> float:
        theta = self.data["baseline"]["theta_inc_deg"]
        if not 0 < theta < 90:
            raise ValueError(f"theta_inc_deg must be in (0, 90), got {theta}")
        return math.radians(theta)

    @property
    def baseline_order(self) -> int:
        order = self.data["baseline"]["order"]
        _check_order(order, "order")
        if abs(order) not in self.grating().reflection_probabilities:
            raise ValueError(f"no reflection probability for |order| = {abs(order)}")
        return order


def dump_default_config() -> str:
    """Default configuration as an editable YAML document."""
    import yaml

    return yaml.safe_dump(DEFAULT_CONFIG, sort_keys=False)
