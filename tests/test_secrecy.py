import decimal
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dmirs import secrecy
from dmirs.arrays import ArraySpec, steering_vector
from dmirs.geometry import PATH_LOSS_RULES, GeometryError, LinkBudget, Position, angle_of, link_budget
from dmirs.scenario import MAX_NA, MAX_NR, MAX_SPACING_WAVELENGTHS, ConfigError, Scenario
from dmirs.secrecy import (
    AN_MODES,
    MAX_SNR,
    SecrecyMetrics,
    ber_from_snrs,
    check_snr,
    mc_mean_ber,
    probe_block,
    probe_grid,
    rate_bits,
    secrecy_metrics,
    secrecy_rates,
    snr_bob,
)
from dmirs.transmitter import complex_normal
from oracles import (
    an_leak_row,
    benchmark_no_irs,
    bob_snr_oracle,
    cascaded_gain_bruteforce,
    cascaded_gain_closed,
    channel_rows,
    eve_reference,
    eve_sinr_oracle,
    exact_leak_rows,
    expected_leak_range,
    irs_beam,
    leak_row_bound,
    mc_mean_ber_per_sample,
    probe_amplitude,
    probe_setup,
    probe_signal,
    q_exact,
    qpsk_ber_scalar,
    rate_reference,
    secrecy_rate,
    signal_range,
    sinr,
)

EVE = Position(30.0, 20.0)


def probe_inputs(scenario, probe):
    """The intended receiver's and a probe's link budgets, with the scenario's
    direct beam and the probe's exact noise leak row."""
    bob_budget, w_a = probe_setup(scenario)
    probe_budget = link_budget(scenario, probe)
    return bob_budget, probe_budget, w_a, an_leak_row(probe_budget, scenario.alice_array(), w_a)


class TestProbeGrid:
    def test_one_value_per_probe(self):
        sinr_db, ber = probe_grid(Scenario(), [0.2, 1.1], [0.3, 1.4, 2.9])
        assert sinr_db.shape == ber.shape == (6,)


class TestCascadedGainBruteforce:
    @pytest.mark.parametrize("nr", [1, 2, 7, 50])
    @pytest.mark.parametrize("na", [1, 4, 16])
    def test_tuned_deflection_gain_is_element_count(self, nr, na):
        gain = cascaded_gain_bruteforce(1.1, 1.1, ArraySpec(na), ArraySpec(nr), 0.7)
        assert gain == pytest.approx(nr, abs=1e-9)

    def test_first_null(self):
        theta_b = math.pi / 2
        theta_e = math.acos(2.0 / 50.0)
        gain = cascaded_gain_bruteforce(theta_e, theta_b, ArraySpec(16), ArraySpec(50), 0.7)
        assert abs(gain) < 1e-9

    def test_small_offset_value(self):
        theta_b = math.pi / 2
        theta_e = math.acos(0.01)
        gain = cascaded_gain_bruteforce(theta_e, theta_b, ArraySpec(16), ArraySpec(50), 0.7)
        assert gain.real == pytest.approx(45.018, abs=1e-3)
        assert abs(gain.imag) < 1e-9


class TestCascadedGainClosed:
    def test_tuned_deflection_limit(self):
        assert cascaded_gain_closed(0.77, 0.77, 50) == 50.0

    @pytest.mark.parametrize("k", [1, 5, 24, 49])
    def test_kernel_nulls(self, k):
        # cosine offset of 2k/n_r, anchored at end-fire so every k is realizable
        theta_e = math.acos(2.0 * k / 50.0 - 1.0)
        assert cascaded_gain_closed(theta_e, math.pi, 50) == pytest.approx(0.0, abs=1e-9)

    def test_grating_point(self):
        # opposite end-fire: every element realigns up to a common sign flip
        assert cascaded_gain_closed(0.0, math.pi, 50) == -50.0
        assert cascaded_gain_closed(0.0, math.pi, 51) == 51.0

    @pytest.mark.parametrize("nr", [1, 2, 7, 50, 128])
    @pytest.mark.parametrize("theta_b_deg", [30.0, 90.0, 126.86989764584402])
    def test_matches_bruteforce_on_coarse_grid(self, nr, theta_b_deg):
        theta_b = math.radians(theta_b_deg)
        for theta_e_deg in range(0, 181, 10):
            theta_e = math.radians(theta_e_deg)
            closed = cascaded_gain_closed(theta_e, theta_b, nr)
            brute = cascaded_gain_bruteforce(theta_e, theta_b, ArraySpec(4), ArraySpec(nr), 0.5)
            assert closed == pytest.approx(brute.real, abs=1e-9)
            assert abs(brute.imag) < 1e-9

    def test_bounded_by_element_count(self):
        for theta_e_deg in range(0, 181):
            gain = cascaded_gain_closed(math.radians(theta_e_deg), 1.0, 50)
            assert abs(gain) <= 50.0 + 1e-12

    def test_non_default_spacing(self):
        gain = cascaded_gain_closed(1.0, 1.3, 20, spacing_wavelengths=0.7)
        brute = cascaded_gain_bruteforce(1.0, 1.3, ArraySpec(4), ArraySpec(20, 0.7), 0.5)
        assert gain == pytest.approx(brute.real, abs=1e-9)

    def test_keeps_relative_precision_near_grating_points(self):
        # spacing 1.5 between the two end-fires: 1e-4 rad off end-fire is 7.5e-9 off
        # the third grating point, where sin(pi * spacing * offset) alone keeps ~8 digits
        gain = cascaded_gain_closed(1e-4, math.pi, 7, spacing_wavelengths=1.5)
        brute = cascaded_gain_bruteforce(1e-4, math.pi, ArraySpec(2), ArraySpec(7, 1.5), 0.5)
        assert gain == pytest.approx(brute.real, rel=1e-13)

    def test_broadcasts_over_angles_element_counts_and_spacings(self):
        theta_e = np.linspace(0.0, math.pi, 5)[:, np.newaxis]
        gains = cascaded_gain_closed(theta_e, 1.1, np.array([1, 2, 50]), np.array([0.5, 0.7, 1.3]))
        assert gains.shape == (5, 3)
        for row, t in zip(gains.tolist(), theta_e[:, 0].tolist()):
            expected = [cascaded_gain_closed(t, 1.1, n, d) for n, d in ((1, 0.5), (2, 0.7), (50, 1.3))]
            assert row == pytest.approx(expected, rel=1e-15, abs=1e-15)
        with pytest.raises(ValueError, match="element count must be at least 1, got 0"):
            cascaded_gain_closed(theta_e, 1.1, np.array([3, 0, 2]))


    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, MAX_NR),
        st.floats(0.0, MAX_SPACING_WAVELENGTHS, exclude_min=True),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    @example(50, 0.5, 0.77, 0.77)  # tuned: exactly n
    @example(50, 0.5, 0.0, math.pi)  # grating points, k = 1: -n, then +n
    @example(51, 0.5, 0.0, math.pi)
    @example(7, 1.5, 0.0, math.pi)  # k = 3: +n, then -n
    @example(8, 1.5, 0.0, math.pi)
    @example(16, 0.5, 0.0, 1.0)  # end-fire probes
    @example(MAX_NR, MAX_SPACING_WAVELENGTHS, math.pi, 0.3)
    @example(2, 0.5, 0.4, 1.9)  # na = 2 and nr = 1
    @example(1, 1.0, 0.3, 2.0)
    def test_scalar_kernel_matches_the_block_kernel(self, n, spacing, theta_e, theta_b):
        """The package's scalar kernel _dirichlet against the array
        reference cascaded_gain_closed, on the offset _eve_amplitude forms.
        Tuned and grating points (a whole offset) take the limit +-n
        exactly, sign included.  Elsewhere, with
        u = 2**-53 and each cos and sin within an ulp (2u relative) of
        another host's libm: the cosines' difference moves by at most 4u and
        its rounding by 4u, the product by 8u*spacing and its rounding by
        4u*spacing, so the offsets differ by at most 12u*spacing.  The signed
        kernel is sum_j cos(pi*(n-1-2j)*offset), of slope at most pi*n^2/2,
        so that moves it by at most 6*pi*u*n^2*spacing; the two sines and
        the quotient add 5u of |K| <= n.  Where both routes call one libm,
        they agree bit for bit."""
        offset = spacing * (math.cos(theta_e) - math.cos(theta_b))
        scalar = secrecy._dirichlet(offset, n)
        block = cascaded_gain_closed(theta_e, theta_b, n, spacing)
        assert type(scalar) is float
        if offset == round(offset):
            assert scalar == block == (-n if round(offset) * (n - 1) % 2 else n)
        assert abs(scalar - block) <= 2.0**-53 * n * (6.0 * math.pi * n * spacing + 5.0)


class TestSnrBob:
    def test_baseline_golden(self):
        scenario = Scenario()
        budget = link_budget(scenario, scenario.bob)
        golden = bob_snr_oracle()
        assert golden == pytest.approx(32065.495, rel=1e-3)
        assert snr_bob(scenario, budget) == pytest.approx(golden, rel=1e-12)

    def test_no_signal_power(self):
        scenario = Scenario(alpha=0.0)
        budget = link_budget(scenario, scenario.bob)
        assert snr_bob(scenario, budget) == 0.0

    def test_strictly_increasing_in_element_count(self):
        values = []
        for nr in (1, 10, 50, 100, 200):
            scenario = Scenario(nr=nr)
            values.append(snr_bob(scenario, link_budget(scenario, scenario.bob)))
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_matches_assembled_channel_route(self):
        scenario = Scenario()
        budget = link_budget(scenario, scenario.bob)
        phi_ar = angle_of(scenario.alice, scenario.irs)
        direct, reflect = channel_rows(budget, budget, phi_ar, scenario.na, scenario.nr, budget.theta)
        _, w_a = probe_setup(scenario)
        amp = direct @ w_a + reflect @ irs_beam(scenario)
        via_channel = scenario.alpha * scenario.pt_mw * abs(amp) ** 2 / scenario.noise_mw
        assert snr_bob(scenario, budget) == pytest.approx(via_channel, rel=1e-12)


class TestSinrEve:
    def test_probe_at_receiver_equals_receiver_snr(self):
        scenario = Scenario()
        bob_budget = link_budget(scenario, scenario.bob)
        gamma_e = secrecy_metrics(scenario, scenario.bob).gamma_e
        assert gamma_e == pytest.approx(snr_bob(scenario, bob_budget), rel=1e-9)

    @pytest.mark.parametrize(
        "probe", [EVE, Position(10.0, 5.0), Position(-5.0, -20.0), Position(35.0, -2.0)]
    )
    def test_strictly_below_receiver_snr(self, probe):
        scenario = Scenario()
        metrics = secrecy_metrics(scenario, probe)
        assert metrics.gamma_e < metrics.gamma_b

    def test_golden_probe_matches_independent_oracle(self):
        scenario = Scenario()
        gamma_e = secrecy_metrics(scenario, EVE).gamma_e
        assert gamma_e == pytest.approx(0.002270347638620266, rel=1e-9)
        assert gamma_e == pytest.approx(eve_sinr_oracle((30.0, 20.0)), rel=1e-12)

    def test_instantaneous_with_zero_draw_is_noise_limited(self, monkeypatch):
        scenario = Scenario()
        monkeypatch.setattr(secrecy, "complex_normal", lambda rng, shape: np.zeros(shape, complex))
        gamma = secrecy_metrics(replace(scenario, an_mode="instantaneous"), EVE).gamma_e
        expected = secrecy_metrics(scenario, EVE).gamma_e
        assert gamma > expected  # no leaked noise in this single draw

    def test_expected_an_power_matches_monte_carlo(self):
        scenario = Scenario()
        row = probe_inputs(scenario, EVE)[3]
        z = complex_normal(np.random.default_rng(9), (100_000, 16))
        mc = float(np.mean(np.abs(z @ row) ** 2))
        assert mc == pytest.approx(float(np.linalg.norm(row) ** 2), rel=0.02)


class TestBerFromSnr:
    def test_zero_snr_is_coin_flip(self):
        assert ber_from_snrs(np.array([0.0])).tolist() == [0.5]

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    def test_qpsk_shortcut_equals_general_formula(self, gamma):
        from dmirs.numerics import q_function

        assert ber_from_snrs(np.array([gamma]))[0] == pytest.approx(q_function(math.sqrt(gamma)), rel=1e-12)

    def test_nine_snr_golden(self):
        expected = q_exact(3.0)
        assert expected == pytest.approx(1.3499e-3, abs=1e-7)
        assert ber_from_snrs(np.array([9.0]))[0] == pytest.approx(expected, abs=1e-10)

    def test_strictly_decreasing(self):
        gammas = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
        bers = ber_from_snrs(np.array(gammas)).tolist()
        assert all(a > b for a, b in zip(bers, bers[1:]))

    def test_rejects_negative_snr(self):
        with pytest.raises(ValueError):
            ber_from_snrs(np.array([-1.0]))

    @given(st.lists(st.floats(0.0, MAX_SNR), max_size=50))
    def test_array_form_equals_scalar_form_bit_for_bit(self, gammas):
        assert ber_from_snrs(np.array(gammas, dtype=float)).tolist() == [qpsk_ber_scalar(g) for g in gammas]

    @pytest.mark.parametrize("bad", [-1e-300, -2.0, math.nan, math.inf])
    def test_array_form_rejects_negative_or_non_finite_snr(self, bad):
        with pytest.raises(ValueError, match=f"SNR must be non-negative and finite, got {bad!r}"):
            ber_from_snrs(np.array([1.0, bad, 3.0]))


END_FIRE = (0.0, math.pi)


@st.composite
def probe_blocks(draw):
    """A scene and a block of 1-8 probe (phi, theta) pairs in [0, pi].

    The intended receiver moves over a 200 m box, so the probes' path gains
    (its own) span many decades, and the element spacings reach past 0.5
    wavelengths, where grating lobes appear."""
    coordinate, spacing = st.floats(-100.0, 100.0), st.floats(0.3, 1.2)
    bob = Position(draw(coordinate), draw(coordinate))
    default = Scenario()
    assume(all(math.hypot(bob.x - p.x, bob.y - p.y) > 1e-2 for p in (default.alice, default.irs)))
    scenario = Scenario(
        na=draw(st.integers(2, 64)),
        nr=draw(st.integers(1, 500)),
        alpha=draw(st.floats(0.01, 1.0)),
        pt_dbm=draw(st.floats(-30.0, 60.0)),
        alice_spacing_wavelengths=draw(spacing),
        irs_spacing_wavelengths=draw(spacing),
        bob=bob,
    )
    angle = st.floats(0.0, math.pi) | st.sampled_from(END_FIRE)
    return scenario, draw(st.lists(st.tuples(angle, angle), min_size=1, max_size=8))


class TestProbeBlock:
    @settings(max_examples=60, deadline=None)
    @given(probe_blocks())
    @example(
        (Scenario(na=2, nr=1, alice_spacing_wavelengths=0.9, irs_spacing_wavelengths=1.2), [END_FIRE, END_FIRE[::-1]])
    )
    @example((Scenario(na=64, nr=500, irs_spacing_wavelengths=0.7), [(0.0, 0.0), (math.pi, math.pi), (1.0, 2.0)]))
    # x*x + y*y and abs(x + iy) ** 2 differ here by 1.4 u, as at about 1 probe in 2,000
    @example((Scenario(na=16), [(0.8, 0.6)]))
    def test_signal_is_scalar_route_and_leak_within_its_rounding_bound(self, inputs):
        """The signal is alpha*Pt*(x*x + y*y) of probe_amplitude's x + iy,
        bit for bit, and inside signal_range, its own rounding of the exact
        square; each leak row entry is the exact row's (exact_leak_rows of the
        same stored steering row and w_a) to leak_row_bound, and the SINR
        is inside sinr at the ends of signal_range and of exact_leak_rows' leak range."""
        scenario, angles = inputs
        bob, w_a = probe_setup(scenario)
        signal, gammas, rows = probe_block(scenario, bob, w_a, angles)
        cells = [LinkBudget(phi, theta, bob.l_direct, bob.l_reflect) for phi, theta in angles]
        amplitudes = [probe_amplitude(scenario, bob, cell, w_a) for cell in cells]
        power = scenario.alpha * scenario.pt_mw
        assert signal.tolist() == [power * (a.real * a.real + a.imag * a.imag) for a in amplitudes]
        h = np.array([steering_vector(scenario.alice_array(), phi) for phi, _ in angles])
        exact_rows, *leak = exact_leak_rows(h, w_a)
        assert np.abs(rows - exact_rows).max() <= leak_row_bound(scenario.na)
        for s, gamma, amplitude, a_lo, a_hi in zip(signal.tolist(), gammas.tolist(), amplitudes, *leak):
            s_lo, s_hi = signal_range(scenario, amplitude)
            assert s_lo <= s <= s_hi
            assert sinr(scenario, s_lo, a_hi) <= gamma <= sinr(scenario, s_hi, a_lo)

    # leak_row_tol, the bound on the closed form against a textbook row built in
    # extended precision that leak_row_bound replaced, at each na: (1 + 1e-9) *
    # (sqrt(2) * (gamma_n(2 na) + 2 gamma_v(2 na)) + 13 u + 10 v) / sqrt(na (na - 1)),
    # gamma_v(n) = n v/(1 - n v), v = 2**-64 (x87 extended precision), evaluated in double
    OLD_LEAK_ROW_TOL = {2: 1.465466313683148e-15, 3: 9.74410076130416e-16, 16: 4.178325768320257e-16,
                        1024: 3.1588942351364864e-16}

    @pytest.mark.parametrize("na", [2, 3, 16, 1024])
    def test_leak_bound_is_a_few_eps_an_entry(self, na):
        # about (2 sqrt(2) na + 13) u / sqrt(na (na - 1)): from 6.5 eps at na = 2 down to
        # sqrt(2) eps, and never above the bound it replaced, so the rows' norms may
        # differ by a few eps * sqrt(na), no more
        eps = np.finfo(float).eps
        assert math.sqrt(2.0) * eps < leak_row_bound(na) <= self.OLD_LEAK_ROW_TOL[na] <= 8.0 * eps

    # the IRS phase sums are one row-wise reduction per block; nr = 500 is past numpy's
    # 128-element pairwise-sum block
    @pytest.mark.parametrize("nr", [1, 11, 500])
    def test_block_split_changes_no_bit(self, nr):
        """Each probe's values are the same whether it is evaluated alone or in a block."""
        scenario = Scenario(na=37, nr=nr, alice_spacing_wavelengths=0.8)
        bob, w_a = probe_setup(scenario)
        angles = [(0.1 * k, 3.0 - 0.1 * k) for k in range(30)] + [END_FIRE]
        whole = probe_block(scenario, bob, w_a, angles)
        for slot, pair in enumerate(angles):
            alone = probe_block(scenario, bob, w_a, [pair])
            for block_values, values in zip(whole, alone):
                assert block_values[slot].tolist() == values[0].tolist()


@st.composite
def probe_scenes(draw):
    scenario = Scenario(
        na=draw(st.integers(2, 64)),
        nr=draw(st.integers(1, 500)),
        alpha=draw(st.floats(0.01, 1.0)),
        pt_dbm=draw(st.floats(-30.0, 60.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    coordinate = st.floats(-100.0, 100.0)
    probe = Position(draw(coordinate), draw(coordinate))
    assume(all(math.hypot(probe.x - p.x, probe.y - p.y) > 1e-2 for p in (scenario.alice, scenario.irs)))
    return scenario, probe


class TestSinrEveRoute:
    @pytest.mark.parametrize("an_mode", AN_MODES)
    @settings(max_examples=25, deadline=None)
    @given(probe_scenes())
    def test_matches_scalar_oracle_route(self, an_mode, inputs):
        scenario, probe = inputs
        scenario = replace(scenario, an_mode=an_mode, eve=probe)
        _, (lo, hi), _ = eve_reference(scenario)
        assert lo <= secrecy_metrics(scenario, probe).gamma_e <= hi


def probe_row(scenario, probe, more_x):
    """``probe`` and a probe at its y for each x in ``more_x``, none within
    1 cm of the transmitter or the IRS."""
    probes = [probe] + [Position(x, probe.y) for x in more_x]
    assume(all(math.hypot(p.x - q.x, p.y - q.y) > 1e-2 for p in probes for q in (scenario.alice, scenario.irs)))
    return probes


def rated_snrs(run, include_irs):
    """The gamma_b and gamma_e arrays of one column, one row per scene and
    one column per power, that secrecy_rates rates while ``run()`` runs, and
    its value.  _snrs rates each block's (column, scene, power) triples,
    [0] the proposed column and [1] the no-IRS one."""
    blocks = []
    snrs = secrecy._snrs
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(secrecy, "_snrs", lambda terms, pt_mw: blocks.append(snrs(terms, pt_mw)) or blocks[-1])
        value = run()
    gamma_b, gamma_e = (np.concatenate(arrays, axis=1)[0 if include_irs else 1] for arrays in zip(*blocks))
    return gamma_b, gamma_e, value


def rates_in_blocks(scenes, pts, block):
    """secrecy_rates of ``scenes``, all of one na, taken ``block`` at a time:
    secrecy.BLOCK_VALUES sized to ``block`` scenes of four na-long rows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(secrecy, "BLOCK_VALUES", block * 4 * scenes[0].na)
        return secrecy_rates(iter(scenes), pts)


def assert_rates_match_scalar_route(scenes, pts, include_irs, block):
    """secrecy_rates at every (scene, power) against oracles.rate_reference:
    gamma_b exactly, gamma_e and the rate within the route's rounding of the
    exact values, which rate_reference holds to the scalar route's."""
    gamma_b, gamma_e, rates = rated_snrs(lambda: rates_in_blocks(scenes, pts, block), include_irs)
    assert rates.shape == (2, len(scenes), len(pts)) and gamma_b.shape == rates.shape[1:]
    rates = rates[0 if include_irs else 1]
    for slot, scene in enumerate(scenes):
        for column, pt in enumerate(pts):
            (expected_b, _, _), (lo, hi), (rate_lo, rate_hi) = rate_reference(replace(scene, pt_dbm=pt), include_irs)
            assert gamma_b[slot, column] == expected_b
            assert lo <= gamma_e[slot, column] <= hi
            assert rate_lo <= rates[slot, column] <= rate_hi


@st.composite
def edge_rate_scenes(draw):
    """1-6 scenes at the closed form's edges, 1-3 powers and a block of 1-4
    scenes.  na = 2 and each scene's nr = 1 as often as not; eves at
    end-fire, on the IRS's line (theta = 0 or pi) or the transmitter's
    (phi = 0 or pi); both spacings above 0.5, so grating lobes are in
    view; either combine rule."""
    spacing = st.floats(0.5, 1.7, exclude_min=True)
    base = Scenario(
        na=draw(st.one_of(st.just(2), st.integers(2, 64))),
        alice_spacing_wavelengths=draw(spacing),
        irs_spacing_wavelengths=draw(spacing),
        path_loss_combine=draw(st.sampled_from(PATH_LOSS_RULES)),
        alpha=draw(st.floats(0.01, 1.0)),
    )
    scenes = []
    for _ in range(draw(st.integers(1, 6))):
        eve = Position(draw(st.floats(-100.0, 100.0)), draw(st.sampled_from([base.irs.y, base.alice.y])))
        assume(all(math.hypot(eve.x - p.x, eve.y - p.y) > 1e-2 for p in (base.alice, base.irs)))
        scenes.append(replace(base, eve=eve, nr=draw(st.one_of(st.just(1), st.integers(1, 500)))))
    return scenes, draw(st.lists(st.floats(-30.0, 60.0), min_size=1, max_size=3)), draw(st.integers(1, 4))


BAD_SCENES = [
    # its receiver's path gain underflows when the scene is set up
    (lambda: Scenario(bob=Position(1e200, 0.0)), GeometryError, "falls below the normal float range"),
    (lambda: Scenario(nr=0), ConfigError, "nr must be at least 1, got 0"),  # raised while taking the scene
]


class TestSecrecyRates:
    @pytest.mark.parametrize("include_irs", [True, False])
    @settings(max_examples=40, deadline=None)
    @given(edge_rate_scenes())
    @example(([Scenario(na=2, nr=1, irs_spacing_wavelengths=1.0, path_loss_combine="product", eve=Position(50.0, -15.0))], [25.0], 1))
    def test_closed_form_matches_scalar_route_at_the_edges(self, include_irs, inputs):
        assert_rates_match_scalar_route(*inputs[:2], include_irs, inputs[2])

    @pytest.mark.parametrize("include_irs", [True, False])
    @settings(max_examples=25, deadline=None)
    @given(
        probe_scenes(),
        st.lists(st.floats(-30.0, 60.0), min_size=1, max_size=4),
        st.lists(st.floats(-100.0, 100.0), max_size=2),
        st.integers(1, 3),
    )
    def test_matches_one_pipeline_per_power(self, include_irs, inputs, pts, more_x, block):
        """The rates and SINRs of secrecy_metrics, or without the IRS of the
        scalar oracle, at each power and each scene's eve, whatever the
        scenario's pt_dbm and an_mode and however the scenes split into blocks."""
        scenario, probe = inputs
        probes = probe_row(scenario, probe, more_x)
        scenes = [replace(scenario, eve=p, an_mode="instantaneous") for p in probes]
        assert_rates_match_scalar_route(scenes, pts, include_irs, block)

    @settings(max_examples=60, deadline=None)
    @given(probe_scenes(), st.lists(st.floats(-100.0, 100.0), max_size=7), st.integers(1, 4))
    def test_no_irs_sinrs_match_scalar_signal_and_leak_sinr(self, inputs, more_x, block):
        """The no-IRS column's gamma_b is the direct gain's expression, bit for
        bit, and its gamma_e within the route's rounding of the exact signal
        and leak, whatever the block split."""
        scenario, probe = inputs
        probes = probe_row(scenario, probe, more_x)
        scenes = [replace(scenario, eve=p) for p in probes]
        gamma_b, gamma_e, _ = rated_snrs(lambda: rates_in_blocks(scenes, [scenario.pt_dbm], block), include_irs=False)
        bob = link_budget(scenario, scenario.bob)
        for slot, scene in enumerate(scenes):
            assert gamma_b[slot, 0] == scenario.alpha * scenario.pt_mw * bob.l_direct / scenario.noise_mw
            _, (lo, hi), _ = rate_reference(scene, include_irs=False)
            assert lo <= gamma_e[slot, 0] <= hi

    @pytest.mark.parametrize(
        "scene, pts, message",
        [
            (Scenario(noise_dbm=-40.0), [10.0, 3070.0, 3071.0], "pt_dbm = 3070.0 and noise_dbm = -40.0 give an SNR"),
            # alpha = 1 and an eve where the IRS path cancels part of the direct one:
            # only the no-IRS column overflows, and only at 3081 dBm
            (Scenario(alpha=1.0, nr=1, eve=Position(-7.5, -2.5)), [3080.0, 3081.0],
             "pt_dbm = 3081.0 and noise_dbm = -20.0 give an SNR"),
        ],
        ids=["proposed", "no-irs"],
    )
    def test_overflowing_snr_names_the_power_that_caused_it(self, scene, pts, message):
        with pytest.raises(ValueError, match=message):
            secrecy_rates([scene], pts)

    @pytest.mark.parametrize("block", [1, 2, 3, 4])
    @pytest.mark.parametrize("third, error, message", BAD_SCENES, ids=["set-up", "taking"])
    def test_a_bad_scene_wins_over_an_earlier_overflow(self, monkeypatch, block, third, error, message):
        """A bad third scene's fault is raised whether or not the first scene
        overflows, however the scenes split into blocks, the bad scene's own
        included; an overflow alone is raised after the last scene."""
        monkeypatch.setattr(secrecy, "BLOCK_VALUES", block * 4 * Scenario().na)

        def scenes(first):
            yield first
            yield Scenario(nr=20)
            yield third()
            yield Scenario(nr=30)

        pts = [10.0, 3060.0]
        assert secrecy_rates([Scenario(nr=n) for n in (10, 20, 30)], pts).shape == (2, 3, 2)  # no overflow
        for first in (Scenario(nr=10), Scenario(noise_dbm=-40.0)):
            with pytest.raises(error, match=message):
                secrecy_rates(scenes(first), pts)
        with pytest.raises(ValueError, match="pt_dbm = 3060.0 and noise_dbm = -40.0 give an SNR"):
            secrecy_rates([Scenario(noise_dbm=-40.0), Scenario(nr=20), Scenario(nr=30)], pts)

    @pytest.mark.parametrize("first, error, message", BAD_SCENES, ids=["set-up", "taking"])
    def test_a_bad_first_scene_is_raised_as_any_other(self, first, error, message):
        """The first scene, whose na sizes the passes, is taken and set up as
        every other scene is, so its fault is the one raised."""
        with pytest.raises(error, match=message) as info:
            secrecy_rates((scene() for scene in (first, lambda: Scenario(nr=20))), [10.0])
        assert type(info.value) is error

    def test_a_pass_takes_its_scenes_before_it_sets_any_up(self, monkeypatch):
        """Taking the first scene early changes no fault: with two scenes a
        pass, the second's fault in taking still wins over the first's in
        set-up, and with one scene a pass the first's wins."""

        def scenes():
            yield BAD_SCENES[0][0]()
            yield BAD_SCENES[1][0]()

        for block, (_, error, message) in ((1, BAD_SCENES[0]), (2, BAD_SCENES[1])):
            monkeypatch.setattr(secrecy, "BLOCK_VALUES", block * 4 * Scenario().na)
            with pytest.raises(error, match=message):
                secrecy_rates(scenes(), [10.0])

    @pytest.mark.parametrize("scenes_a_pass", [1, None], ids=["one-scene", "default"])
    @pytest.mark.parametrize("empty", [list, iter])
    def test_no_scenes_give_an_empty_array(self, monkeypatch, scenes_a_pass, empty):
        if scenes_a_pass is not None:
            monkeypatch.setattr(secrecy, "BLOCK_VALUES", scenes_a_pass * 4 * Scenario().na)
        rates = secrecy_rates(empty([]), [10.0, 15.0, 20.0])
        assert rates.shape == (2, 0, 3) and rates.dtype == np.float64

    def test_one_scene_a_pass_gives_the_default_bits(self, monkeypatch):
        scenes = [Scenario(nr=10 * (k + 1), eve=Position(-5.0 + k, 3.0)) for k in range(7)]
        pts = [10.0, 15.0, 30.0]
        default = secrecy_rates(scenes, pts)
        assert secrecy.BLOCK_VALUES // (4 * Scenario().na) >= len(scenes)  # the default takes them in one pass
        monkeypatch.setattr(secrecy, "BLOCK_VALUES", 4 * Scenario().na)
        assert secrecy_rates(iter(scenes), pts).tolist() == default.tolist()

    @pytest.mark.parametrize("n_scenes, block", [(1, 1), (5, 2), (4, 4), (3, 8)])
    def test_any_block_size_gives_one_rate_per_scene_and_power(self, monkeypatch, n_scenes, block):
        monkeypatch.setattr(secrecy, "BLOCK_VALUES", block * 4 * Scenario().na)
        rates = secrecy_rates([Scenario(nr=10 * (k + 1)) for k in range(n_scenes)], [10.0, 15.0])
        assert rates.shape == (2, n_scenes, 2)


class TestCheckSnr:
    def test_largest_accepted_snr_still_has_a_ber(self):
        check_snr(25.0, -20.0, MAX_SNR, 0.0)
        assert ber_from_snrs(np.array([MAX_SNR])).tolist() == [0.0]

    @pytest.mark.parametrize("gamma", [math.inf, math.nan, math.nextafter(MAX_SNR, math.inf)])
    def test_rejects_larger_or_non_finite_naming_power_levels(self, gamma):
        with pytest.raises(ValueError, match="pt_dbm = 25.0 and noise_dbm = -20.0 give an SNR"):
            check_snr(25.0, -20.0, 1.0, gamma)


class TestRates:
    def test_synthetic_one_bit_gap(self):
        assert secrecy_rate(3.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_clamped_at_zero(self):
        assert secrecy_rate(1.0, 3.0) == 0.0

    def test_rate_bits(self):
        assert rate_bits(1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            rate_bits(-0.5)

    @pytest.mark.parametrize("gamma", [1e-9, 1e-12, 1e-30, 0.5, 3.0e4])
    def test_rate_bits_keeps_its_relative_precision_at_small_snrs(self, gamma):
        """log2(1 + gamma) to within 2 ulps of its 80-digit value, 1.44269504e-09
        at gamma = 1e-9; rounding 1 + gamma first read 1.44269516e-09."""
        with decimal.localcontext(prec=80):
            true = (1 + decimal.Decimal(gamma)).ln() / decimal.Decimal(2).ln()
        assert abs(decimal.Decimal(rate_bits(gamma)) - true) <= 2 * decimal.Decimal(math.ulp(float(true)))
        if gamma == 1e-9:
            assert format(rate_bits(gamma), ".9g") == "1.44269504e-09"


@st.composite
def edge_probe_scenes(draw):
    """A scene whose eve probes the closed form's edges.  na = 2 and nr = 1 as
    often as not; both spacings above 0.5, so grating lobes are in view;
    either combine rule and noise mode; the intended receiver at its default
    end-fire position or anywhere; the eve at end-fire of the transmitter
    (phi = 0 or pi) or of the IRS (theta = 0 or pi), at the intended
    receiver, or on its ray from the transmitter, where 1 - d^2 cancels."""
    spacing = st.floats(0.5, 1.7, exclude_min=True)
    coordinate = st.floats(-100.0, 100.0)
    far = lambda p: all(math.hypot(p.x - q.x, p.y - q.y) > 1e-2 for q in (Position(0.0, 0.0), Position(20.0, -15.0)))
    bob = draw(st.one_of(st.just(Position(20.0, 0.0)), st.builds(Position, coordinate, coordinate).filter(far)))
    scenario = Scenario(
        na=draw(st.one_of(st.just(2), st.integers(2, 64))),
        nr=draw(st.one_of(st.just(1), st.integers(1, 500))),
        alice_spacing_wavelengths=draw(spacing),
        irs_spacing_wavelengths=draw(spacing),
        path_loss_combine=draw(st.sampled_from(PATH_LOSS_RULES)),
        alpha=draw(st.floats(0.01, 1.0)),
        pt_dbm=draw(st.floats(-30.0, 60.0)),
        an_mode=draw(st.sampled_from(AN_MODES)),
        seed=draw(st.integers(0, 2**32 - 1)),
        bob=bob,
    )
    where = draw(st.sampled_from(["end-fire", "receiver", "ray"]))
    if where == "end-fire":
        probe = Position(draw(coordinate), draw(st.sampled_from([scenario.alice.y, scenario.irs.y])))
    elif where == "receiver":
        probe = bob
    else:
        t = draw(st.floats(0.01, 5.0))
        probe = Position(scenario.alice.x + t * (bob.x - scenario.alice.x), scenario.alice.y + t * (bob.y - scenario.alice.y))
    assume(far(probe))
    return replace(scenario, eve=probe)


class TestSecrecyMetrics:
    @settings(max_examples=80, deadline=None)
    @given(edge_probe_scenes())
    @example(Scenario(na=2, nr=1, irs_spacing_wavelengths=1.0, path_loss_combine="product", eve=Position(20.0, 0.0)))
    @example(Scenario(na=3, nr=1, bob=Position(17.0, 9.0), eve=Position(17.0 * 2.3, 9.0 * 2.3), pt_dbm=60.0))
    def test_closed_form_matches_scalar_route_at_the_edges(self, scenario):
        """gamma_b and ber_b exactly, gamma_e and rate_s within eve_reference's
        ranges, and ber_probe the one BER route's at gamma_e."""
        metrics = secrecy_metrics(scenario, scenario.eve)
        (gamma_b, _, _), (lo, hi), (rate_lo, rate_hi) = eve_reference(scenario)
        assert (metrics.gamma_b, metrics.rate_b) == (gamma_b, rate_bits(gamma_b))
        assert metrics.ber_b == qpsk_ber_scalar(gamma_b)
        assert lo <= metrics.gamma_e <= hi
        assert rate_lo <= metrics.rate_s <= rate_hi
        assert metrics.ber_probe == qpsk_ber_scalar(metrics.gamma_e)

    def test_leak_keeps_its_precision_near_the_receivers_ray(self):
        """5e-10 rad off the receiver's ray, d = <h, w_a> rounds to 1 + 2**-52,
        so 1 - d^2 from d is round-off, yet A = 9.8e-19 sets gamma_e at 260 dB
        of Pt over noise.  The constants are a 60-digit mpmath evaluation
        from the same positions; the float angles' rounding moves gamma_e by
        about 2e-6 of itself.  eve_reference, from the stored angles,
        reproduces them, and its range stays well under 1% of gamma_e here."""
        scenario = Scenario(
            na=3, nr=1, bob=Position(0.0, 20.0), eve=Position(-1.6405e-08, 30.0), pt_dbm=60.0, noise_dbm=-200.0
        )
        metrics = secrecy_metrics(scenario, scenario.eve)
        assert metrics.gamma_e == pytest.approx(3.33994046743178e15, rel=1e-5)
        assert metrics.rate_s == pytest.approx(26.191373434767, abs=1e-4)
        (_, gamma_e, rate_s), (lo, hi), _ = eve_reference(scenario)
        assert gamma_e == pytest.approx(3.33994046743178e15, rel=1e-5)
        assert rate_s == pytest.approx(26.191373434767, abs=1e-4)
        assert hi - lo < 1e-2 * gamma_e
        assert lo <= metrics.gamma_e <= hi

    @pytest.mark.parametrize("na, small", [(3, 2.0**-30), (16, -(2.0**-40))])
    def test_leak_at_a_grating_lobe_equals_the_leak_as_far_off_the_main_lobe(self, na, small):
        """A grating lobe k lies at a whole spacing-scaled offset k; the leak a
        small offset beyond it is the same, bit for bit, as that offset from
        the intended receiver, since the offset is reduced exactly first."""
        for k in (1, 2, -3):
            assert secrecy._expected_leak(na, k + small) == secrecy._expected_leak(na, small) > 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, MAX_NA),
        st.one_of(
            # near the receiver's ray (k = 0) and its grating points (k != 0)
            st.tuples(st.integers(-4, 4), st.floats(1e-140, 1e-2) | st.floats(-1e-2, -1e-140)),
            # anywhere in the range spacing * (cos(phi) - cos(phi_b)) takes
            st.tuples(st.just(0), st.floats(-2.0 * MAX_SPACING_WAVELENGTHS, 2.0 * MAX_SPACING_WAVELENGTHS)),
        ),
    )
    @example(2, (0, 0.3))
    @example(MAX_NA, (0, 0.3))
    @example(16, (0, 0.5))  # y = pi/2: every odd m's sin^2 is 1, every even one's round-off
    @example(16, (0, 1e-140))
    @example(MAX_NA, (-3, 2.0**-30))
    @example(3, (0, 2.0 * MAX_SPACING_WAVELENGTHS - 2.0**-20))
    def test_float_leak_matches_the_exact_sum(self, na, point):
        """_expected_leak's math.fsum within its own rounding of the exact sum
        of the same terms (oracles.expected_leak_range derives the range), a
        few u of A however near the receiver's ray.  Offsets nearer an integer
        than 1e-140 are left out: there the terms (na - m)*sin^2(m*y) fall
        below the normal range."""
        k, near = point
        offset = k + near
        got = secrecy._expected_leak(na, offset)
        _, lo, hi = expected_leak_range(na, offset)
        assert type(got) is float
        assert lo <= got <= hi

    @given(st.integers(2, MAX_NA), st.integers(-2 * MAX_SPACING_WAVELENGTHS, 2 * MAX_SPACING_WAVELENGTHS))
    @example(MAX_NA, 0)
    @example(MAX_NA, -2 * MAX_SPACING_WAVELENGTHS)
    def test_float_leak_is_zero_at_whole_offsets(self, na, k):
        """On the receiver's ray and at each grating point every sin(m*y) is
        sin(0) = 0, so A is exactly 0.0, as the exact oracle's."""
        assert secrecy._expected_leak(na, float(k)) == expected_leak_range(na, float(k))[0] == 0.0

    def test_probe_at_receiver_gives_zero_secrecy_rate(self):
        metrics = secrecy_metrics(Scenario(), Position(20.0, 0.0))
        assert metrics.rate_s == pytest.approx(0.0, abs=1e-9)
        assert metrics.gamma_e == pytest.approx(metrics.gamma_b, rel=1e-9)

    def test_golden_probe_metrics(self):
        metrics = secrecy_metrics(Scenario(), EVE)
        assert metrics.gamma_b == pytest.approx(32065.49547410737, rel=1e-12)
        assert metrics.gamma_e == pytest.approx(0.002270347638620266, rel=1e-9)
        assert metrics.rate_b == pytest.approx(14.968779070765951, rel=1e-12)
        assert metrics.rate_e == pytest.approx(0.0032717067272457563, rel=1e-9)
        assert metrics.rate_s == pytest.approx(14.965507364038706, rel=1e-9)
        assert metrics.ber_b == 0.0  # underflows: SNR is enormous
        assert metrics.ber_probe == pytest.approx(0.4809983226937116, rel=1e-9)

    @pytest.mark.parametrize("probe", [EVE, Position(20.0, 0.0), Position(-30.0, 0.0)])
    def test_one_expected_probe_runs_on_floats_alone(self, monkeypatch, probe):
        """No numpy call at all, so no noise projector, steering row or BER
        array, serves one expected-mode probe, away from the receiver, on it
        (both kernels at their limit) or at end-fire behind the transmitter;
        every field is a plain float."""

        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"one probe read np.{name}")

        monkeypatch.setattr(secrecy, "np", NoNumpy())
        metrics = secrecy_metrics(Scenario(), probe)
        assert [type(getattr(metrics, f.name)) for f in fields(SecrecyMetrics)] == [float] * 7

    def test_instantaneous_mode_is_seed_deterministic(self):
        a = secrecy_metrics(Scenario(seed=5, an_mode="instantaneous"), EVE)
        b = secrecy_metrics(Scenario(seed=5, an_mode="instantaneous"), EVE)
        c = secrecy_metrics(Scenario(seed=6, an_mode="instantaneous"), EVE)
        assert a == b
        assert a.gamma_e != c.gamma_e


class TestBenchmarkNoIrs:
    def test_baseline_golden(self):
        metrics = benchmark_no_irs(Scenario(), EVE)
        assert metrics.gamma_b == pytest.approx(47.434, rel=1e-3)
        assert metrics.gamma_e == pytest.approx(
            eve_sinr_oracle((30.0, 20.0), include_irs=False), rel=1e-12
        )

    def test_independent_of_element_count(self):
        reference = benchmark_no_irs(Scenario(nr=50), EVE)
        for nr in (1, 10, 200):
            assert benchmark_no_irs(Scenario(nr=nr), EVE) == reference

    @pytest.mark.parametrize(
        "probe", [EVE, Position(10.0, 5.0), Position(-5.0, -20.0), Position(41.0, 13.0)]
    )
    def test_reflect_path_never_hurts(self, probe):
        scenario = Scenario()
        assert secrecy_metrics(scenario, probe).rate_s >= benchmark_no_irs(scenario, probe).rate_s

    def test_matches_receiver_snr_with_reflect_term_dropped(self):
        scenario = Scenario()
        budget = link_budget(scenario, scenario.bob)
        direct_only = scenario.alpha * scenario.pt_mw * budget.l_direct / scenario.noise_mw
        assert benchmark_no_irs(scenario, EVE).gamma_b == direct_only


def mc_ber(scenario, probe, samples, seed):
    """Monte-Carlo QPSK BER over ``samples`` draws at a probe position, with
    the probe's own path gains: its signal power and leak row from the
    scalar probe route."""
    scenario = replace(scenario, mc_samples=samples)
    bob_budget, probe_budget, w_a, row = probe_inputs(scenario, probe)
    return mc_mean_ber(scenario, probe_signal(scenario, bob_budget, probe_budget, w_a), row, seed)


class TestMcBer:
    def test_probe_at_receiver_matches_closed_form_every_draw(self):
        scenario = Scenario()
        budget = link_budget(scenario, scenario.bob)
        expected = qpsk_ber_scalar(snr_bob(scenario, budget))
        for seed in (0, 1, 2):
            assert mc_ber(scenario, scenario.bob, 50, seed) == expected

    def test_seed_determinism(self):
        scenario = Scenario()
        assert mc_ber(scenario, EVE, 1000, 7) == mc_ber(scenario, EVE, 1000, 7)
        assert mc_ber(scenario, EVE, 1000, 7) != mc_ber(scenario, EVE, 1000, 8)

    def test_converges_to_long_run_value(self):
        scenario = Scenario()
        probe = EVE
        estimate = mc_ber(scenario, probe, 10_000, 1)
        # 1,000,000 samples, as 100 runs of 10,000 (the most one run may draw)
        runs = [mc_ber(scenario, probe, 10_000, np.random.SeedSequence([2, k])) for k in range(100)]
        long_run = float(np.mean(runs))

        # spread of single-draw BERs, estimated from an auxiliary stream
        bob_budget, probe_budget, w_a, row = probe_inputs(scenario, probe)
        signal = scenario.alpha * scenario.pt_mw * abs(
            probe_amplitude(scenario, bob_budget, probe_budget, w_a)
        ) ** 2
        z = complex_normal(np.random.default_rng(3), (10_000, 16))
        an_power = np.abs(z @ row) ** 2
        gammas = signal / ((1 - scenario.alpha) * scenario.pt_mw * an_power + scenario.noise_mw)
        bers = ber_from_snrs(gammas)
        standard_error = bers.std(ddof=1) / math.sqrt(len(bers))

        assert abs(estimate - long_run) <= 3.0 * standard_error


@st.composite
def mc_inputs(draw):
    na = draw(st.integers(2, 32))
    alpha = draw(st.floats(0.0, 1.0))
    signal_mw = 10.0 ** draw(st.floats(-9.0, 3.0))
    part = st.floats(-1.0, 1.0)
    row = np.array([complex(draw(part), draw(part)) for _ in range(na)]) * 10.0 ** draw(st.floats(-3.0, 1.0))
    scenario = Scenario(na=na, alpha=alpha, mc_samples=draw(st.integers(1, 2000)))
    return scenario, signal_mw, row, draw(st.integers(0, 2**32 - 1))


class TestMcMeanBer:
    @settings(max_examples=60, deadline=None)
    @given(mc_inputs())
    def test_equals_per_sample_oracle_exactly(self, inputs):
        assert mc_mean_ber(*inputs) == mc_mean_ber_per_sample(*inputs)

    @pytest.mark.parametrize("signal_mw", [-1e-6, -2.0, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_signal(self, signal_mw):
        row = np.full(16, 0.1 + 0.05j)
        with pytest.raises(ValueError, match="SNR"):
            mc_mean_ber(Scenario(mc_samples=10), signal_mw, row, 1)
