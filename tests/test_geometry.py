import math

import pytest

from mwmono import (
    BelowCutoffError,
    DeviceGeometry,
    DiffractionPath,
    MonochromatorSetting,
    PathGroup,
    diffraction_angle,
    enumerate_paths,
    feasibility_band,
    group_paths_by_geometry,
    incidence_for_output,
    path_census,
    select_path,
)


def make_path(n1, n2, n3, alpha1=0.3, alpha2=0.4, transmission=1e-4):
    return DiffractionPath(
        n1=n1, n2=n2, n3=n3,
        alpha1=alpha1, alpha2=alpha2,
        geometry_ratio=math.tan(alpha1) + math.tan(alpha2),
        transmission=transmission,
    )


class TestEnumeratePaths:
    def test_order_conservation(self, setting, helium, grating):
        for v in (300.0, 700.0, 1000.0, 3000.0):
            for path in enumerate_paths(setting, helium, grating, v):
                assert path.n1 + path.n2 + path.n3 == abs(setting.total_order)

    def test_exit_angle_chains_to_theta_out(self, setting, helium, grating):
        for v in (400.0, 1000.0, 2500.0):
            theta_inc = incidence_for_output(setting, helium, grating, v)
            for path in enumerate_paths(setting, helium, grating, v):
                a1 = diffraction_angle(theta_inc, path.n1, helium, grating, v)
                a2 = diffraction_angle(a1, path.n2, helium, grating, v)
                out = diffraction_angle(a2, path.n3, helium, grating, v)
                assert a1 == pytest.approx(path.alpha1, abs=1e-15)
                assert a2 == pytest.approx(path.alpha2, abs=1e-15)
                assert abs(out - setting.theta_out) <= 1e-9

    def test_geometry_ratio_formula(self, setting, helium, grating):
        for path in enumerate_paths(setting, helium, grating, 1000.0):
            expected = math.tan(path.alpha1) + math.tan(path.alpha2)
            assert abs(path.geometry_ratio - expected) <= 1e-12

    def test_census_at_1000(self, setting, helium, grating):
        # 25 combinations; at 1000 m/s seventeen propagate, in twelve
        # geometry groups (five symmetric pairs).
        assert path_census(setting, helium, grating, 1000.0) == (25, 17, 12)

    def test_census_in_low_velocity_window(self, setting, helium, grating):
        # Between about 591 and 738 m/s one fewer combination propagates.
        assert path_census(setting, helium, grating, 700.0) == (25, 16, 11)

    def test_empty_below_cutoff_is_error_free_elsewhere(self, setting, helium, grating):
        paths = enumerate_paths(setting, helium, grating, 296.0)
        assert isinstance(paths, list)
        assert paths  # just above the first-order cutoff

    def test_transmission_attached_when_orders_known(self, setting, helium, grating):
        paths = enumerate_paths(setting, helium, grating, 1000.0)
        by_orders = {p.orders: p for p in paths}
        assert by_orders[(0, 0, 1)].transmission == pytest.approx(0.06 * 0.06 * 0.03)
        # |n3| beyond the grating's known orders: no transmission rate.
        assert by_orders[(-2, -2, 5)].transmission is None


#: The three path walkers, each called as ``walk(setting, particle, grating, v)``.
WALKERS = {
    "path_census": path_census,
    "select_path": lambda *a: select_path(*a, DeviceGeometry(separation=1.0, length=10.0)),
    "enumerate_paths": enumerate_paths,
}


class TestWalkerErrors:
    @pytest.mark.parametrize("walker", WALKERS)
    @pytest.mark.parametrize("order", [0, -1])
    @pytest.mark.parametrize("v", [-1.0, 0.0, math.nan])
    def test_nonpositive_velocity(self, helium, grating, walker, order, v):
        setting = MonochromatorSetting(total_order=order)
        with pytest.raises(ValueError) as info:
            WALKERS[walker](setting, helium, grating, v)
        assert type(info.value) is ValueError
        assert str(info.value) == f"velocity must be positive, got {v}"

    @pytest.mark.parametrize("walker", WALKERS)
    def test_below_cutoff(self, setting, helium, grating, walker):
        with pytest.raises(BelowCutoffError) as info:
            WALKERS[walker](setting, helium, grating, 200.0)
        assert str(info.value) == (
            "velocity 200.0 m/s below cutoff for |order| = 1 (cutoff 295.8 m/s)"
        )


def transmissions(total_order, helium, grating, v=1000.0):
    """Each enumerated record's transmission at ``v``, keyed by its orders."""
    setting = MonochromatorSetting(total_order=total_order)
    return {p.orders: p.transmission for p in enumerate_paths(setting, helium, grating, v)}


class TestPathTransmission:
    def test_first_order_pair_product(self, helium, grating):
        # One first-order bounce and two specular ones, in any position.
        by_orders = transmissions(1, helium, grating)
        for orders in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            assert by_orders[orders] == pytest.approx(1.08e-4, rel=1e-12)

    def test_all_specular(self, helium, grating):
        assert transmissions(0, helium, grating)[(0, 0, 0)] == pytest.approx(2.16e-4)

    def test_permutation_invariant(self, helium, grating):
        # Three orderings of (0, -1, 2) propagate; the other three meet an evanescent bounce.
        values = [t for orders, t in transmissions(1, helium, grating).items()
                  if sorted(orders) == [-1, 0, 2]]
        assert values == [pytest.approx(2.7e-5, rel=1e-12)] * 3

    def test_bounded_by_max_probability_cubed(self, setting, helium, grating):
        top = max(grating.reflection_probabilities.values()) ** 3
        for path in enumerate_paths(setting, helium, grating, 1500.0):
            if path.transmission is not None:
                assert 0.0 < path.transmission <= top


class TestFeasibilityBand:
    def test_width_is_tan_theta_out(self, setting, helium, grating):
        for path in enumerate_paths(setting, helium, grating, 900.0):
            band = feasibility_band(path, setting)
            assert band.upper - band.lower == pytest.approx(math.tan(setting.theta_out), rel=1e-12)
            assert band.lower < band.upper

    def test_forty_five_degree_bounces(self, setting):
        path = make_path(0, 0, 1, alpha1=math.pi / 4, alpha2=math.pi / 4)
        band = feasibility_band(path, setting)
        assert band.lower == pytest.approx(2.0, rel=1e-12)

    def test_ratio_ten_covered_across_range(self, setting, helium, grating):
        device = DeviceGeometry(separation=5e-3, length=50e-3)
        ratio = device.length / device.separation
        assert ratio == pytest.approx(10.0)
        for v in range(300, 5001, 100):
            paths = enumerate_paths(setting, helium, grating, float(v))
            assert any(feasibility_band(p, setting).contains(ratio) for p in paths)


class TestGrouping:
    def test_singleton(self):
        groups = group_paths_by_geometry([make_path(0, 0, 1)])
        assert len(groups) == 1
        assert len(groups[0].members) == 1

    def test_swap_symmetry(self, setting, helium, grating):
        # (n1, n2) and (n1+n2, -n2) swap the two internal angles and share
        # the geometry ratio exactly.
        for v in (500.0, 1000.0, 4000.0):
            paths = {p.orders[:2]: p for p in enumerate_paths(setting, helium, grating, v)}
            checked = 0
            for (n1, n2), path in paths.items():
                partner = paths.get((n1 + n2, -n2))
                if partner is None or partner is path:
                    continue
                assert partner.geometry_ratio == pytest.approx(
                    path.geometry_ratio, rel=1e-12
                )
                assert partner.alpha1 == pytest.approx(path.alpha2, abs=1e-12)
                assert partner.alpha2 == pytest.approx(path.alpha1, abs=1e-12)
                checked += 1
            assert checked >= 2

    @pytest.mark.parametrize("theta_out_deg, v", [(85.0, 1000.0), (89.99, 1179.0),
                                                  (89.9999999, 572.0)])
    def test_input_order_does_not_matter(self, helium, grating, theta_out_deg, v):
        # Symmetric pairs tie on the ratio or differ in its last digits; the orders break the tie.
        setting = MonochromatorSetting(theta_out=math.radians(theta_out_deg))
        paths = enumerate_paths(setting, helium, grating, v)
        expected = group_paths_by_geometry(paths)
        for shuffled in (paths[::-1], paths[1::2] + paths[::2]):
            assert group_paths_by_geometry(shuffled) == expected

    def test_a_symmetric_pair_joins_although_its_ratios_differ(self, helium, grating):
        # Near grazing exit the float d/s of (1, -2, 2) and (-1, 2, 0), index pair {-2, 0},
        # differ by 3.6e-9 relative; they still form one group, and 17 paths form 12.
        setting = MonochromatorSetting(theta_out=math.radians(89.99))
        paths = {p.orders: p for p in enumerate_paths(setting, helium, grating, 1179.0)}
        first, second = paths[1, -2, 2], paths[-1, 2, 0]
        assert 3.6e-9 < second.geometry_ratio / first.geometry_ratio - 1.0 < 3.7e-9
        groups = group_paths_by_geometry(list(paths.values()))
        assert (len(paths), len(groups)) == (17, 12)
        assert PathGroup(first.geometry_ratio, (first, second)) in groups

    def test_equal_ratios_of_two_index_pairs_stay_apart(self, helium, grating):
        # At 89.9999999 degrees the pairs {-2, 0} and {-1, 0} both meet a bounce at 90 degrees,
        # and all four paths' d/s are the same float; they still form two groups.
        setting = MonochromatorSetting(theta_out=math.radians(89.9999999))
        paths = {p.orders: p for p in enumerate_paths(setting, helium, grating, 572.0)}
        two = [paths[1, -2, 2], paths[-1, 2, 0]]  # {n3, n2 + n3} = {2, 0}
        one = [paths[0, 1, 0], paths[1, -1, 1]]  # {0, 1}
        assert len({p.geometry_ratio for p in two + one}) == 1
        groups = group_paths_by_geometry(list(paths.values()))
        assert (len(paths), len(groups)) == (14, 9)
        assert [set(g.members) for g in groups if set(g.members) & set(two + one)] == [
            set(two), set(one)]

    def test_the_key_is_read_from_the_record_alone(self):
        # (0, -1, 2) and (-1, 1, 1) share {n3, n2 + n3} = {1, 2} and join at any ratios;
        # (1, 0, 0), {0, 0}, stays apart at a ratio equal to one of theirs.
        a = make_path(0, -1, 2, alpha1=0.3, alpha2=0.4)
        b = make_path(-1, 1, 1, alpha1=0.9, alpha2=0.3)
        c = make_path(1, 0, 0, alpha1=0.3, alpha2=0.4)
        assert a.geometry_ratio == c.geometry_ratio < b.geometry_ratio
        assert group_paths_by_geometry([b, c, a]) == [
            PathGroup(a.geometry_ratio, (a, b)), PathGroup(c.geometry_ratio, (c,))]

    def test_groups_are_ordered_and_cover_all_paths(self, setting, helium, grating):
        paths = enumerate_paths(setting, helium, grating, 1000.0)
        groups = group_paths_by_geometry(paths)
        ratios = [g.geometry_ratio for g in groups]
        assert ratios == sorted(ratios)
        assert sum(len(g.members) for g in groups) == len(paths)


class TestPathRecords:
    def test_equal_paths_hash_equal(self, setting, helium, grating):
        first = enumerate_paths(setting, helium, grating, 1000.0)
        second = enumerate_paths(setting, helium, grating, 1000.0)
        assert first == second
        assert [hash(p) for p in first] == [hash(p) for p in second]
        assert len(set(first) | set(second)) == len(first)
        assert hash(make_path(0, -1, 2)) == hash(make_path(0, -1, 2))
        groups = group_paths_by_geometry(first)
        assert hash(tuple(groups)) == hash(tuple(group_paths_by_geometry(second)))

    def test_keyword_construction(self):
        path = make_path(0, -1, 2, alpha1=0.25, alpha2=0.5, transmission=None)
        assert path.orders == (0, -1, 2)
        assert (path.alpha1, path.alpha2, sum(path.orders)) == (0.25, 0.5, 1)
        assert path.geometry_ratio == math.tan(0.25) + math.tan(0.5)
        assert path.transmission is None
        assert PathGroup(geometry_ratio=1.5, members=(path,)).members == (path,)

