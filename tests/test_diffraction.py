import math

import pytest

from mwmono import (
    BelowCutoffError,
    EvanescentOrderError,
    GrazingSingularityError,
    MonochromatorSetting,
    cutoff_velocity,
    de_broglie_wavelength,
    diffraction_angle,
    incidence_for_output,
    velocity_divergence,
)

# Frozen with a 40-digit mpmath evaluation of 2*pi*hbar/(m*v) and the
# grating equation, CODATA 2018 hbar, helium-4 mass 6.6464731e-27 kg,
# period 3.383 Angstrom.
LAMBDA_HE4_1000 = 9.969302585366786e-11
THETA_OUT_85_M1_1000 = 0.7775091706235588  # rad, = 44.548 deg
DDV_N1_1000 = 3.381168168011044e-3  # rad per (m/s) at the matched incidence


class TestDeBroglieWavelength:
    def test_helium_1000(self, helium):
        assert de_broglie_wavelength(helium, 1000.0) == pytest.approx(
            LAMBDA_HE4_1000, rel=1e-12
        )

    def test_doubling_velocity_halves_wavelength(self, helium):
        for v in (123.0, 1000.0, 4321.5):
            assert de_broglie_wavelength(helium, 2 * v) == pytest.approx(
                de_broglie_wavelength(helium, v) / 2, rel=1e-15
            )

    def test_monotone_decay(self, helium):
        velocities = [10.0 * 2**k for k in range(20)]
        wavelengths = [de_broglie_wavelength(helium, v) for v in velocities]
        assert all(a > b for a, b in zip(wavelengths, wavelengths[1:]))
        assert wavelengths[-1] < 1e-13

    def test_rejects_nonpositive_velocity(self, helium):
        with pytest.raises(ValueError):
            de_broglie_wavelength(helium, 0.0)
        with pytest.raises(ValueError):
            de_broglie_wavelength(helium, -10.0)


class TestDiffractionAngle:
    def test_specular_identity(self, helium, grating):
        for theta in (-1.2, -0.3, 0.0, 0.7, 1.4):
            for v in (400.0, 1000.0, 3000.0):
                assert diffraction_angle(theta, 0, helium, grating, v) == theta

    def test_first_order_at_85deg(self, helium, grating):
        theta = diffraction_angle(math.radians(85.0), -1, helium, grating, 1000.0)
        assert theta == pytest.approx(THETA_OUT_85_M1_1000, abs=1e-14)
        assert math.degrees(theta) == pytest.approx(44.548, abs=1e-3)

    def test_evanescent_order(self, helium, grating):
        # At 290 m/s the second-order argument drops below -1; at 300 m/s it
        # is -0.968 and the order still propagates.
        with pytest.raises(EvanescentOrderError):
            diffraction_angle(math.radians(85.0), -2, helium, grating, 290.0)
        theta = diffraction_angle(math.radians(85.0), -2, helium, grating, 300.0)
        assert math.sin(theta) == pytest.approx(-0.9683934554931960, abs=1e-12)

    def test_evanescent_message(self, helium, grating):
        with pytest.raises(EvanescentOrderError) as info:
            diffraction_angle(0.5, 3, helium, grating, 300.0)
        assert str(info.value) == (
            "evanescent diffraction order: arcsin argument 3.4263077689816157 outside [-1, 1] "
            "(order 3)"
        )

    def test_rejects_grazing_incidence(self, helium, grating):
        with pytest.raises(ValueError):
            diffraction_angle(math.pi / 2, 0, helium, grating, 1000.0)

    def test_result_in_open_interval(self, helium, grating):
        theta = diffraction_angle(0.5, 1, helium, grating, 800.0)
        assert -math.pi / 2 < theta < math.pi / 2

    def test_specular_rejects_nonpositive_velocity(self, helium, grating):
        with pytest.raises(ValueError) as info:
            diffraction_angle(0.5, 0, helium, grating, 0.0)
        assert str(info.value) == "velocity must be positive, got 0.0"


class TestVelocityDivergence:
    def test_zeroth_order_is_zero(self, helium, grating):
        for theta in (0.0, 0.5, 1.2):
            assert velocity_divergence(theta, 0, helium, grating, 777.0) == 0.0

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("v", [-1.0, 0.0, math.nan])
    def test_rejects_nonpositive_velocity_at_every_order(self, helium, grating, order, v):
        with pytest.raises(ValueError) as info:
            velocity_divergence(0.5, order, helium, grating, v)
        assert str(info.value) == f"velocity must be positive, got {v}"

    def test_matches_finite_difference(self, helium, grating):
        h = 1e-3
        theta_inc = 0.6
        checked = 0
        for n in (-2, -1, 1):
            for v in (450.0, 900.0, 2000.0, 5000.0):
                try:
                    exact = velocity_divergence(theta_inc, n, helium, grating, v)
                except EvanescentOrderError:
                    continue
                fd = (
                    diffraction_angle(theta_inc, n, helium, grating, v + h)
                    - diffraction_angle(theta_inc, n, helium, grating, v - h)
                ) / (2 * h)
                assert exact == pytest.approx(fd, rel=1e-6)
                checked += 1
        assert checked >= 8

    def test_matched_incidence_value(self, helium, grating, setting):
        v = 1000.0
        theta_inc = incidence_for_output(setting, helium, grating, v)
        d = velocity_divergence(theta_inc, 1, helium, grating, v)
        assert abs(d) == pytest.approx(DDV_N1_1000, rel=1e-12)
        assert abs(d) == pytest.approx(3.4e-3, rel=0.01)

    def test_grazing_singularity(self, helium, grating):
        # Choose an incidence whose first-order argument is exactly 1.
        step = de_broglie_wavelength(helium, 1000.0) / grating.period
        theta_inc = math.asin(1.0 - step)
        with pytest.raises(GrazingSingularityError):
            velocity_divergence(theta_inc, 1, helium, grating, 1000.0)

    def test_grazing_message(self, helium, grating):
        setting = MonochromatorSetting(theta_out=math.radians(89.99999999), total_order=1)
        theta_inc = incidence_for_output(setting, helium, grating, 1000.0)
        with pytest.raises(GrazingSingularityError) as info:
            velocity_divergence(theta_inc, 1, helium, grating, 1000.0)
        assert str(info.value) == (
            "velocity divergence singular: |arcsin argument| = 1.0 too close to 1"
        )

    def test_evanescent_argument(self, helium, grating):
        with pytest.raises(EvanescentOrderError):
            velocity_divergence(math.radians(85.0), 1, helium, grating, 1000.0)


class TestIncidenceForOutput:
    def test_specular_fixed_point(self, helium, grating):
        setting = MonochromatorSetting(total_order=0)
        for v in (300.0, 1000.0, 5000.0):
            assert incidence_for_output(setting, helium, grating, v) == pytest.approx(
                setting.theta_out, abs=1e-15
            )

    @pytest.mark.parametrize("order", [0, -1])
    @pytest.mark.parametrize("v", [-1.0, 0.0, math.nan])
    def test_rejects_nonpositive_velocity_at_every_order(self, helium, grating, order, v):
        setting = MonochromatorSetting(total_order=order)
        with pytest.raises(ValueError) as info:
            incidence_for_output(setting, helium, grating, v)
        assert str(info.value) == f"velocity must be positive, got {v}"

    def test_value_at_1000(self, helium, grating, setting):
        theta = incidence_for_output(setting, helium, grating, 1000.0)
        assert math.degrees(theta) == pytest.approx(44.548, abs=1e-3)

    def test_round_trip(self, helium, grating, setting):
        for v in (300.0, 500.0, 1000.0, 2500.0, 5000.0):
            theta_inc = incidence_for_output(setting, helium, grating, v)
            theta_out = diffraction_angle(
                theta_inc, setting.order_magnitude, helium, grating, v
            )
            assert abs(theta_out - setting.theta_out) <= 1e-12

    def test_cutoffs_match_reported_bounds(self, helium, grating):
        expected = {1: 300.0, 2: 600.0, 3: 890.0}
        for n, bound in expected.items():
            setting = MonochromatorSetting(total_order=-n)
            cut = cutoff_velocity(setting, helium, grating)
            assert cut == pytest.approx(bound, abs=10.0)
            with pytest.raises(BelowCutoffError):
                incidence_for_output(setting, helium, grating, cut - 1.0)
            incidence_for_output(setting, helium, grating, cut + 1.0)

    @pytest.mark.parametrize("v", [200.0, 100.0])  # arcsin argument in [-1, 0) and below -1
    def test_below_cutoff_message(self, helium, grating, setting, v):
        with pytest.raises(BelowCutoffError) as info:
            incidence_for_output(setting, helium, grating, v)
        assert str(info.value) == (
            f"velocity {v} m/s below cutoff for |order| = 1 (cutoff 295.8 m/s)"
        )

    def test_zero_order_has_no_cutoff(self, helium, grating):
        assert cutoff_velocity(MonochromatorSetting(total_order=0), helium, grating) == 0.0

    def test_monotone_in_velocity(self, helium, grating):
        for n in (1, 2, 3):
            setting = MonochromatorSetting(total_order=n)
            start = cutoff_velocity(setting, helium, grating) + 1.0
            angles = [
                incidence_for_output(setting, helium, grating, v)
                for v in [start + k * 50.0 for k in range(40)]
            ]
            assert all(a < b for a, b in zip(angles, angles[1:]))

    def test_sign_of_total_order_is_ignored(self, helium, grating):
        plus = MonochromatorSetting(total_order=1)
        minus = MonochromatorSetting(total_order=-1)
        assert incidence_for_output(plus, helium, grating, 1000.0) == incidence_for_output(
            minus, helium, grating, 1000.0
        )


class TestIntegerVelocityAliasing:
    def test_scaled_order_and_velocity_satisfy_same_equation(self, helium, grating):
        # If (N, v1) solves sin(out) = sin(inc) + N * 2*pi*hbar/(m v a), then
        # (k N, k v1) leaves the equation residual unchanged.
        from mwmono.diffraction import HBAR

        theta_inc = 0.4
        v1 = 700.0
        n = 1
        coeff = 2 * math.pi * HBAR / (helium.mass * grating.period)
        sin_out = math.sin(theta_inc) + n * coeff / v1
        for k in (1, 2, 3, 5, 8):
            residual = sin_out - math.sin(theta_inc) - (k * n) * coeff / (k * v1)
            assert abs(residual) <= 1e-12
