"""Run configuration: schema, defaults, file ingestion.

Config files are YAML (JSON is a YAML subset and therefore also accepted).
External units are degrees, millimetres and m/s; everything is converted to
SI on construction of the domain objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import yaml

from .beamline import (
    DEFAULT_OFFSET_SAMPLES,
    DEFAULT_VELOCITY_BINS,
    MAX_OFFSET_SAMPLES,
    MAX_VELOCITY_BINS,
    BeamSpec,
    Beamline,
    Pinhole,
)
from .diffraction import Grating, MonochromatorSetting, Particle
from .errors import ConfigurationError
from .geometry import DeviceGeometry
from .presets import get_material, get_particle

import math

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "particle": {
            "oneOf": [
                {"type": "string"},
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["mass_kg"],
                    "properties": {
                        "mass_kg": {"type": "number", "exclusiveMinimum": 0},
                        "name": {"type": "string"},
                    },
                },
            ]
        },
        "material": {
            "oneOf": [
                {"type": "string"},
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["period_angstrom", "reflection_probabilities"],
                    "properties": {
                        "period_angstrom": {"type": "number", "exclusiveMinimum": 0},
                        "reflection_probabilities": {
                            "type": "object",
                            "patternProperties": {
                                "^[0-9]+$": {
                                    "type": "number",
                                    "exclusiveMinimum": 0,
                                    "maximum": 1,
                                }
                            },
                            "additionalProperties": False,
                        },
                    },
                },
            ]
        },
        "setting": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "theta_out_deg": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 90},
                "total_order": {"type": "integer"},
            },
        },
        "device": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "separation_mm": {"type": "number", "exclusiveMinimum": 0},
                "length_mm": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "beamline": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "source_pinhole": {"$ref": "#/$defs/pinhole"},
                "exit_pinholes": {
                    "type": "array",
                    "items": {"$ref": "#/$defs/pinhole"},
                    "minItems": 1,
                },
            },
        },
        "beam": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "v_center_mps": {"type": "number", "exclusiveMinimum": 0},
                "v_width_mps": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "sampling": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "velocity_bins": {"type": "integer", "minimum": 3,
                                  "maximum": MAX_VELOCITY_BINS},
                "offset_samples": {"type": "integer", "minimum": 1,
                                   "maximum": MAX_OFFSET_SAMPLES},
            },
        },
        "baseline": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "theta_inc_deg": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 90},
                "order": {"type": "integer"},
            },
        },
    },
    "$defs": {
        "pinhole": {
            "type": "object",
            "additionalProperties": False,
            "required": ["diameter_mm", "distance_mm"],
            "properties": {
                "diameter_mm": {"type": "number", "exclusiveMinimum": 0},
                "distance_mm": {"type": "number", "exclusiveMinimum": 0},
            },
        }
    },
}

DEFAULT_CONFIG: dict = {
    "particle": "helium-4",
    "material": "si111-h1x1",
    "setting": {"theta_out_deg": 85.0, "total_order": -1},
    "device": {"separation_mm": 5.0, "length_mm": 50.0},
    "beamline": {
        "source_pinhole": {"diameter_mm": 1.0, "distance_mm": 100.0},
        "exit_pinholes": [
            {"diameter_mm": 10.0, "distance_mm": 500.0},
            {"diameter_mm": 10.0, "distance_mm": 1000.0},
        ],
    },
    "beam": {"v_center_mps": 1000.0, "v_width_mps": 500.0},
    "sampling": {
        "velocity_bins": DEFAULT_VELOCITY_BINS,
        "offset_samples": DEFAULT_OFFSET_SAMPLES,
    },
    "baseline": {"theta_inc_deg": 50.0, "order": -1},
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


@dataclass
class RunConfig:
    """Validated configuration with factories for the domain objects."""

    data: dict = field(default_factory=lambda: json.loads(json.dumps(DEFAULT_CONFIG)))

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        merged = _merge(DEFAULT_CONFIG, raw or {})
        try:
            jsonschema.validate(merged, SCHEMA)
        except jsonschema.ValidationError as exc:
            path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
            raise ConfigurationError(f"invalid config at {path}: {exc.message}") from None
        return cls(data=merged)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            raw = yaml.safe_load(Path(path).read_text())
        except (OSError, yaml.YAMLError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from None
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigurationError(f"config {path} must be a mapping")
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        return json.loads(json.dumps(self.data))

    def particle(self) -> Particle:
        spec = self.data["particle"]
        if isinstance(spec, str):
            return get_particle(spec)
        return Particle(mass=spec["mass_kg"], name=spec.get("name", "custom"))

    def grating(self) -> Grating:
        spec = self.data["material"]
        if isinstance(spec, str):
            return get_material(spec).grating
        probs = {int(k): float(v) for k, v in spec["reflection_probabilities"].items()}
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
            source_pinhole=_pinhole(spec["source_pinhole"]),
            exit_pinholes=tuple(_pinhole(p) for p in spec["exit_pinholes"]),
            device=self.device(),
            setting=self.setting(),
        )

    def beam(self) -> BeamSpec:
        spec = self.data["beam"]
        return BeamSpec(
            center_velocity=spec["v_center_mps"],
            full_width=spec["v_width_mps"],
        )

    @property
    def velocity_bins(self) -> int:
        return self.data["sampling"]["velocity_bins"]

    @property
    def offset_samples(self) -> int:
        return self.data["sampling"]["offset_samples"]

    @property
    def baseline_theta_inc(self) -> float:
        return math.radians(self.data["baseline"]["theta_inc_deg"])

    @property
    def baseline_order(self) -> int:
        return self.data["baseline"]["order"]


def _pinhole(spec: dict) -> Pinhole:
    return Pinhole(diameter=spec["diameter_mm"] * 1e-3, distance=spec["distance_mm"] * 1e-3)


def dump_default_config() -> str:
    """Default configuration as an editable YAML document."""
    return yaml.safe_dump(DEFAULT_CONFIG, sort_keys=False)
