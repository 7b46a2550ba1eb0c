"""The domain records: fields, defaults, immutability and constructor validation."""

import math

import pytest

from mwmono import (
    HELIUM_4,
    Beamline,
    BeamSpec,
    DeviceGeometry,
    Grating,
    MonochromatorSetting,
    Particle,
    Pinhole,
    RunConfig,
    enumerate_paths,
    feasibility_band,
    select_path,
    simulate_beam,
)
from mwmono.beamline import ExitRay, ScanRow
from mwmono.config import DEFAULT_CONFIG

CFG = RunConfig.from_dict({})
BEAMLINE = CFG.beamline()
PINHOLES = BEAMLINE.exit_pinholes
PATH = select_path(CFG.setting(), HELIUM_4, CFG.grating(), 1000.0, CFG.device())

#: One instance of every record, and its field names in positional order.
RECORDS = [
    (HELIUM_4, ["mass"]),
    (CFG.grating(), ["period", "reflection_probabilities"]),
    (CFG.setting(), ["theta_out", "total_order"]),
    (CFG.device(), ["separation", "length"]),
    (CFG.beam(), ["center_velocity", "full_width"]),
    (PINHOLES[0], ["diameter", "distance"]),
    (BEAMLINE, ["source_diameter", "exit_pinholes", "device", "setting"]),
    (feasibility_band(PATH, CFG.setting()), ["lower", "upper"]),
    (CFG, ["data"]),
    (ExitRay(0.01, 0.5), ["position", "angle"]),
    (simulate_beam(CFG.beam(), BEAMLINE, HELIUM_4, CFG.grating(), velocity_bins=11,
                   offset_samples=3),
     ["velocities", "weights", "mean_velocity", "delta_v", "delta_v_std", "speed_ratio",
      "input_speed_ratio", "throughput"]),
    (ScanRow(1000.0, 2.0, None, None, None), ["v_center", "input_ratio", "final_ratio",
                                              "baseline_ratio", "throughput", "flag"]),
]


@pytest.mark.parametrize("record, fields", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_fields_keep_their_order_and_are_read_only(record, fields):
    values = [getattr(record, name) for name in fields]
    assert type(record)(*values) == record == type(record)(**dict(zip(fields, values)))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None


def test_keyword_defaults():
    setting = MonochromatorSetting()
    assert (setting.theta_out, setting.total_order) == (math.radians(85.0), -1)
    assert BeamSpec(1000.0).full_width == 500.0
    assert ScanRow(1000.0, 2.0, None, None, None).flag == ""
    assert Grating(1e-10).reflection_probabilities == {}
    assert DEFAULT_CONFIG["setting"] == {"theta_out_deg": math.degrees(math.radians(85.0)),
                                         "total_order": -1}
    assert DEFAULT_CONFIG["beam"]["v_width_mps"] == 500.0


def test_grating_keeps_its_own_rates():
    rates = {0: 0.5}
    grating = Grating(1e-10, rates)
    rates[0], rates[1] = 0.25, 0.1
    assert grating.reflection_probabilities == {0: 0.5}
    assert grating.rates == ((0, 0.5),)
    with pytest.raises(AttributeError):
        grating.rates = ((0, 0.25),)
    with pytest.raises(AttributeError):
        del grating.rates
    assert Grating(1e-10).reflection_probabilities is not Grating(1e-10).reflection_probabilities
    assert grating._replace(period=3e-10).rates == grating.rates


def test_selection_reads_the_rates_of_its_own_grating():
    # Rates 1 and 1.0 share one cached path table, but each record multiplies its own.
    setting, device = CFG.setting(), CFG.device()
    gratings = [Grating(3.383e-10, {0: p, 1: p, 2: p}) for p in (1, 1.0, 1)]
    picked = [select_path(setting, HELIUM_4, grating, 1000.0, device) for grating in gratings]
    assert [repr(path.transmission) for path in picked] == ["1", "1.0", "1"]
    assert picked[0].orders == picked[1].orders
    listed = [{repr(path.transmission) for path in enumerate_paths(setting, HELIUM_4, grating, 1000.0)
               if path.transmission is not None} for grating in gratings]
    assert listed == [{"1"}, {"1.0"}, {"1"}]


@pytest.mark.parametrize("record, field, value, message", [
    (CFG.setting(), "theta_out", 0.0, "theta_out must be in (0, pi/2), got 0.0"),
    (CFG.grating(), "period", 0.0, "grating period must be positive, got 0.0"),
    (BEAMLINE, "exit_pinholes", PINHOLES[::-1], "exit pinholes must be ordered by increasing distance"),
])
def test_replace_builds_through_the_constructor(record, field, value, message):
    with pytest.raises(ValueError) as info:
        record._replace(**{field: value})
    assert str(info.value) == message
    assert record._replace(**{field: getattr(record, field)}) == record


def test_config_constructors_stay_classmethods():
    # Tracers wrap them through the class's own namespace.
    for name in ("from_dict", "from_file"):
        assert isinstance(vars(RunConfig)[name], classmethod)


@pytest.mark.parametrize("build, message", [
    (lambda: Particle(0.0), "particle mass must be positive, got 0.0"),
    (lambda: Particle(mass=math.nan), "particle mass must be positive, got nan"),
    (lambda: Grating(-1e-10), "grating period must be positive, got -1e-10"),
    (lambda: Grating(3e-10, {-1: 0.1}), "probabilities are keyed by |order|, got -1"),
    (lambda: Grating(3e-10, {0: 0.0}), "reflection probability for order 0 not in (0, 1]: 0.0"),
    (lambda: Grating(period=3e-10, reflection_probabilities={2: 1.5}),
     "reflection probability for order 2 not in (0, 1]: 1.5"),
    (lambda: MonochromatorSetting(0.0), "theta_out must be in (0, pi/2), got 0.0"),
    (lambda: MonochromatorSetting(theta_out=math.pi / 2),
     f"theta_out must be in (0, pi/2), got {math.pi / 2}"),
    (lambda: MonochromatorSetting(total_order=1.5), "total_order must be an integer, got 1.5"),
    (lambda: MonochromatorSetting(total_order=-1.0), "total_order must be an integer, got -1.0"),
    (lambda: MonochromatorSetting(total_order=-10**9 - 1),
     "|total_order| must be at most 1000000000, got -1000000001"),
    (lambda: DeviceGeometry(0.0, 1.0), "separation must be positive, got 0.0"),
    (lambda: DeviceGeometry(separation=1.0, length=-1.0), "length must be positive, got -1.0"),
    (lambda: BeamSpec(1000.0, 0.0), "full_width must be positive, got 0.0"),
    (lambda: BeamSpec(center_velocity=200.0),
     "center_velocity must exceed half the width (200.0 vs 250.0)"),
    (lambda: BeamSpec(1e308, 1.6e308), "center_velocity 1e+308 + half the width overflows"),
    (lambda: Pinhole(0.0, 1.0), "pinhole diameter and distance must be positive"),
    (lambda: Pinhole(diameter=1.0, distance=-1.0), "pinhole diameter and distance must be positive"),
    (lambda: Beamline(0.0, PINHOLES, BEAMLINE.device, BEAMLINE.setting),
     "source diameter must be positive, got 0.0"),
    (lambda: Beamline(source_diameter=1e-3, exit_pinholes=PINHOLES[::-1], device=BEAMLINE.device,
                      setting=BEAMLINE.setting),
     "exit pinholes must be ordered by increasing distance"),
])
def test_constructor_rejects_invalid_values(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
