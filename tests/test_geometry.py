import math
from dataclasses import fields, replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dmirs.geometry import PATH_LOSS_RULES, GeometryError, Position, angle_of, distance, link_budget
from dmirs.scenario import Scenario
from oracles import combined_path_loss, link_budget_composed, link_budget_oracle, path_loss

ALICE = Position(0.0, 0.0)
BOB = Position(20.0, 0.0)
IRS = Position(20.0, -15.0)
GOLDEN_PROBE = Position(30.0, 20.0)
# LinkBudget field: the link_budget_oracle key of the same quantity at the probe
ORACLE_KEYS = {"phi": "phi_ae", "theta": "theta_e", "l_direct": "l_ae", "l_reflect": "l_are"}


def receivers():
    """Receivers in the baseline scene: the intended one, or any point clear of ALICE and IRS."""
    coordinate = st.floats(-1e3, 1e3)
    clear = st.builds(Position, coordinate, coordinate).filter(
        lambda p: all(math.hypot(p.x - q.x, p.y - q.y) > 1e-2 for q in (ALICE, IRS))
    )
    return st.one_of(st.just(BOB), clear)


class TestDistance:
    def test_axis_aligned(self):
        assert distance(ALICE, BOB) == 20.0
        assert distance(BOB, IRS) == 15.0

    def test_three_four_five_triangle(self):
        assert distance(ALICE, IRS) == 25.0

    def test_coincident_points_rejected(self):
        with pytest.raises(GeometryError):
            distance(BOB, Position(20.0, 0.0))

    def test_distance_beyond_the_float_range_names_both_points(self):
        far = [Position(1e308, 0.0), Position(-1e308, 0.0)]
        with pytest.raises(GeometryError, match=r"points Position\(x=1e\+308.* are too far apart"):
            distance(*far)
        with pytest.raises(GeometryError, match="too far apart"):
            distance(Position(0.0, 0.0), Position(1.5e308, 1.5e308))


class TestAngleOf:
    def test_along_axis(self):
        assert angle_of(ALICE, BOB) == 0.0

    def test_perpendicular(self):
        assert angle_of(IRS, BOB) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_diagonal(self):
        assert angle_of(ALICE, IRS) == pytest.approx(0.6435011087932844, abs=1e-12)

    def test_range_is_unsigned(self):
        assert angle_of(BOB, ALICE) == pytest.approx(math.pi, abs=1e-15)
        assert 0.0 <= angle_of(ALICE, Position(-3.0, -4.0)) <= math.pi

    def test_coincident_points_rejected(self):
        with pytest.raises(GeometryError):
            angle_of(ALICE, Position(0.0, 0.0))


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss(1.0, 1.0) == 1.0

    def test_inverse_square(self):
        assert path_loss(20.0, 1.0) == pytest.approx(2.5e-3, rel=1e-12)
        assert path_loss(40.0, 1.0) == pytest.approx(6.25e-4, rel=1e-12)

    def test_strictly_decreasing(self):
        values = [path_loss(d, 1.0) for d in (1.0, 2.0, 5.0, 17.0, 100.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_bad_distances(self):
        with pytest.raises(GeometryError):
            path_loss(0.0, 1.0)
        with pytest.raises(GeometryError):
            path_loss(10.0, -1.0)

    def test_combine_rules(self):
        assert combined_path_loss(25.0, 15.0, 1.0, "sum-distance") == pytest.approx(40.0 ** -2)
        assert combined_path_loss(25.0, 15.0, 1.0, "product") == pytest.approx(
            25.0 ** -2 * 15.0 ** -2
        )
        with pytest.raises(ValueError):
            combined_path_loss(25.0, 15.0, 1.0, "geometric")
        with pytest.raises(GeometryError, match="hops of 9e[+]307 m and 1e[+]308 m add up beyond"):
            combined_path_loss(9e307, 1e308, 1.0, "sum-distance")


class TestLinkBudget:
    def test_baseline_scene_with_probe_at_receiver(self):
        scenario = Scenario()
        budget = link_budget(scenario, BOB)
        assert distance(scenario.alice, scenario.bob) == 20.0
        assert distance(scenario.alice, scenario.irs) == 25.0
        assert distance(scenario.irs, scenario.bob) == 15.0
        assert budget.l_direct == pytest.approx(2.5e-3, rel=1e-12)
        assert budget.l_reflect == pytest.approx(6.25e-4, rel=1e-12)

    @example(probe=GOLDEN_PROBE, rule="sum-distance")
    @given(probe=receivers(), rule=st.sampled_from(PATH_LOSS_RULES))
    def test_golden_probe_matches_independent_oracle(self, probe, rule):
        scenario = Scenario(path_loss_combine=rule)
        budget = link_budget(scenario, probe)
        want = link_budget_oracle((0, 0), (20, 0), (20, -15), (probe.x, probe.y), rule=rule)
        for f in fields(budget):
            assert getattr(budget, f.name) == pytest.approx(want[ORACLE_KEYS[f.name]], rel=1e-12), f.name
        alice, bob, irs = scenario.alice, scenario.bob, scenario.irs
        pairs = {"d_ab": (alice, bob), "d_ar": (alice, irs), "d_rb": (irs, bob), "d_ae": (alice, probe),
                 "d_re": (irs, probe)}
        for name, (a, b) in pairs.items():
            assert distance(a, b) == pytest.approx(want[name], rel=1e-12), name
        if (probe, rule) == (GOLDEN_PROBE, "sum-distance"):
            # spot values pinned from the oracle run
            assert distance(alice, probe) == pytest.approx(36.05551275463989, rel=1e-12)
            assert budget.theta == pytest.approx(1.2924966677897853, rel=1e-12)
            assert budget.l_reflect == pytest.approx(2.652500564895315e-4, rel=1e-12)

    @given(receivers(), receivers())
    def test_moving_the_intended_receiver_leaves_a_record_unchanged(self, receiver, bob):
        base = Scenario()
        assert link_budget(replace(base, bob=bob), receiver) == link_budget(base, receiver)

    def test_product_rule_switch(self):
        scenario = Scenario(path_loss_combine="product")
        budget = link_budget(scenario, BOB)
        assert budget.l_reflect == pytest.approx((25.0 * 15.0) ** -2, rel=1e-12)

    @given(
        st.floats(min_value=-1e3, max_value=1e3),
        st.floats(min_value=-1e3, max_value=1e3),
    )
    def test_translation_invariance(self, ox, oy):
        base = Scenario()
        probe = Position(30.0, 20.0)
        shifted = replace(
            base,
            alice=Position(base.alice.x + ox, base.alice.y + oy),
            bob=Position(base.bob.x + ox, base.bob.y + oy),
            irs=Position(base.irs.x + ox, base.irs.y + oy),
        )
        a = link_budget(base, probe)
        b = link_budget(shifted, Position(probe.x + ox, probe.y + oy))
        for f in fields(a):
            assert getattr(b, f.name) == pytest.approx(getattr(a, f.name), rel=1e-12, abs=1e-12), f.name

    def test_x_axis_reflection_invariance(self):
        base = Scenario()
        probe = Position(30.0, 20.0)
        mirrored = replace(
            base,
            alice=Position(base.alice.x, -base.alice.y),
            bob=Position(base.bob.x, -base.bob.y),
            irs=Position(base.irs.x, -base.irs.y),
        )
        a = link_budget(base, probe)
        b = link_budget(mirrored, Position(probe.x, -probe.y))
        for f in fields(a):
            assert getattr(b, f.name) == getattr(a, f.name), f.name

    @example(probe=GOLDEN_PROBE, rule="sum-distance", d0=1.0)
    @example(probe=Position(1e4, 0.0), rule="sum-distance", d0=1e-150)  # both gains underflow
    @example(probe=Position(-0.0, 1e-300), rule="product", d0=1e-3)
    @given(
        probe=st.one_of(receivers(), st.builds(Position, *[st.floats(allow_nan=False, allow_infinity=False)] * 2)),
        rule=st.sampled_from(PATH_LOSS_RULES),
        d0=st.floats(1e-200, 1e200),
    )
    def test_equals_the_helper_composition_bit_for_bit(self, probe, rule, d0):
        """One pass per hop gives the record of distance -> combined_path_loss ->
        path_loss -> angle_of, every field bit for bit, or the same GeometryError."""
        scenario = Scenario(path_loss_combine=rule, d0_m=d0)
        try:
            want = link_budget_composed(scenario, probe)
        except GeometryError as error:
            with pytest.raises(GeometryError) as info:
                link_budget(scenario, probe)
            assert type(info.value) is GeometryError and str(info.value) == str(error)
            return
        got = link_budget(scenario, probe)
        assert got == want and list(vars(got)) == list(vars(want))  # a LinkBudget, its fields in order
        assert [getattr(got, f.name).hex() for f in fields(got)] == [getattr(want, f.name).hex() for f in fields(want)]

    @pytest.mark.parametrize(
        "scene, receiver, message",
        [
            ({}, Position(0.0, 0.0), "coincident points Position(x=0.0, y=0.0) and Position(x=0.0, y=0.0)"),
            ({"path_loss_combine": "product"}, Position(20.0, -15.0),
             "coincident points Position(x=20.0, y=-15.0) and Position(x=20.0, y=-15.0)"),
            ({}, Position(1.5e308, 1.5e308),
             "points Position(x=0.0, y=0.0) and Position(x=1.5e+308, y=1.5e+308) are too far apart: "
             "their distance exceeds the float range"),
            # both gains fall below the normal range; the reflect one is named
            ({"d0_m": 1e-150}, Position(1e4, 0.0),
             f"path-loss gain at distance {25.0 + math.hypot(1e4 - 20.0, 15.0)!r} m with d0_m = 1e-150 "
             "falls below the normal float range; lower the distance or raise d0_m"),
            # each hop's gain is normal, their product is not
            ({"path_loss_combine": "product"}, Position(1e153, 0.0),
             f"path-loss gain at distances 25.0 m and {math.hypot(1e153 - 20.0, 15.0)!r} m with d0_m = 1.0 "
             "falls below the normal float range; lower the distance or raise d0_m"),
        ],
    )
    def test_rejects_as_the_helper_composition_does(self, scene, receiver, message):
        scenario = Scenario(**scene)
        for budget in (link_budget, link_budget_composed):
            with pytest.raises(GeometryError) as info:
                budget(scenario, receiver)
            assert type(info.value) is GeometryError and str(info.value) == message, budget.__name__

    def test_probe_on_transmitter_rejected(self):
        with pytest.raises(GeometryError):
            link_budget(Scenario(), Position(0.0, 0.0))

    def test_non_finite_position_rejected(self):
        with pytest.raises(GeometryError):
            Position(math.nan, 0.0)
