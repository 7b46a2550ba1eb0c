"""The package's public names, of which the kernel ones load on first use."""

import pytest

import mwmono
import mwmono.beamline
import mwmono.geometry

KERNEL_NAMES = ["BeamlineResult", "ScanRow", "scan_speed_ratio",
                "simulate_beam", "single_reflection_baseline", "trace_velocity"]


def test_every_public_name_resolves():
    for name in mwmono.__all__:
        getattr(mwmono, name)
    namespace = {}
    exec("from mwmono import *", namespace)
    assert set(mwmono.__all__) <= set(namespace)


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_kernel_name_is_cached_kernel_object(monkeypatch, name):
    # Tracers wrap functions by identity, and census loops look names up per call.
    monkeypatch.delitem(vars(mwmono), name, raising=False)
    assert getattr(mwmono, name) is getattr(mwmono.beamline, name)
    assert vars(mwmono)[name] is getattr(mwmono.beamline, name)


@pytest.mark.parametrize("name", [
    "BeamSpec", "Pinhole", "Beamline", "DEFAULT_VELOCITY_BINS", "DEFAULT_OFFSET_SAMPLES",
    "MAX_VELOCITY_BINS", "MAX_OFFSET_SAMPLES", "_check_grid", "select_path",
])
def test_kernel_module_keeps_domain_names(name):
    assert getattr(mwmono.beamline, name) is getattr(mwmono.geometry, name)


def test_path_selection_comes_from_geometry():
    assert mwmono.select_path is mwmono.geometry.select_path


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        mwmono.no_such_name
