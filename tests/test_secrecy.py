import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dmirs import secrecy
from dmirs.arrays import ArraySpec
from dmirs.geometry import LinkBudget, Position, angle_of, link_budget
from dmirs.scenario import Scenario
from dmirs.secrecy import (
    AN_MODES,
    MAX_SNR,
    an_leak_row,
    ber_from_snrs,
    benchmark_no_irs,
    cascaded_gain_closed,
    check_snr,
    mc_mean_ber,
    probe_amplitude,
    probe_block,
    probe_setup,
    rate_bits,
    secrecy_metrics,
    secrecy_rate,
    snr_bob,
)
from dmirs.transmitter import complex_normal, make_precoders
from oracles import (
    bob_snr_oracle,
    cascaded_gain_bruteforce,
    channel_rows,
    eve_sinr_oracle,
    leak_sinr,
    mc_mean_ber_per_sample,
    probe_signal,
    q_via_integration,
    qpsk_ber_scalar,
    sinr_eve_scalar,
)

EVE = Position(30.0, 20.0)


def probe_inputs(scenario, probe):
    """The intended receiver's and a probe's link budgets, with the scenario's
    precoders and noise projector."""
    bob_budget, precoders, projector = probe_setup(scenario)
    return bob_budget, link_budget(scenario, probe), precoders, projector


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
        p = make_precoders(scenario, budget)
        amp = direct @ p.w_a + reflect @ p.w_r
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
        _, probe_budget, _, projector = probe_inputs(scenario, EVE)
        row = an_leak_row(probe_budget, scenario.alice_array(), projector)
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
        expected = q_via_integration(3.0)
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


@st.composite
def probe_blocks(draw):
    """A scene and a block of 1-8 receiver records with angles in [0, pi]
    and path gains spanning twelve decades."""
    scenario = Scenario(
        na=draw(st.integers(2, 64)),
        nr=draw(st.integers(1, 500)),
        alpha=draw(st.floats(0.01, 1.0)),
        pt_dbm=draw(st.floats(-30.0, 60.0)),
    )
    angle, gain = st.floats(0.0, math.pi), st.floats(-12.0, 0.0).map(lambda e: 10.0**e)
    records = st.builds(LinkBudget, angle, angle, gain, gain)
    return scenario, draw(st.lists(records, min_size=1, max_size=8))


class TestProbeBlock:
    @pytest.mark.parametrize("include_irs", [True, False])
    @settings(max_examples=60, deadline=None)
    @given(probe_blocks())
    def test_equals_scalar_signal_and_leak_sinr_bit_for_bit(self, include_irs, inputs):
        scenario, cells = inputs
        bob, precoders, projector = probe_setup(scenario)
        signal, gammas, rows = probe_block(
            scenario, bob, precoders, projector, iter(cells), len(cells), include_irs
        )
        expected = [probe_signal(scenario, bob, cell, precoders, include_irs) for cell in cells]
        assert signal.tolist() == expected
        alice = scenario.alice_array()
        assert rows.tolist() == [an_leak_row(cell, alice, projector).tolist() for cell in cells]
        assert gammas.tolist() == [leak_sinr(scenario, s, row) for s, row in zip(expected, rows)]


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
    @pytest.mark.parametrize("include_irs", [True, False])
    @pytest.mark.parametrize("an_mode", AN_MODES)
    @settings(max_examples=25, deadline=None)
    @given(probe_scenes())
    def test_equals_scalar_oracle_route(self, an_mode, include_irs, inputs):
        scenario, probe = inputs
        scenario = replace(scenario, an_mode=an_mode)
        metrics = secrecy_metrics if include_irs else benchmark_no_irs
        expected = sinr_eve_scalar(scenario, *probe_inputs(scenario, probe), include_irs)
        assert metrics(scenario, probe).gamma_e == expected


class TestCheckSnr:
    def test_largest_accepted_snr_still_has_a_ber(self):
        check_snr(Scenario(), MAX_SNR, 0.0)
        assert ber_from_snrs(np.array([MAX_SNR])).tolist() == [0.0]

    @pytest.mark.parametrize("gamma", [math.inf, math.nan, math.nextafter(MAX_SNR, math.inf)])
    def test_rejects_larger_or_non_finite_naming_power_levels(self, gamma):
        with pytest.raises(ValueError, match="pt_dbm = 25.0 and noise_dbm = -20.0 give an SNR"):
            check_snr(Scenario(), 1.0, gamma)


class TestRates:
    def test_synthetic_one_bit_gap(self):
        assert secrecy_rate(3.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_clamped_at_zero(self):
        assert secrecy_rate(1.0, 3.0) == 0.0

    def test_rate_bits(self):
        assert rate_bits(1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            rate_bits(-0.5)


class TestSecrecyMetrics:
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
    """Monte-Carlo QPSK BER over ``samples`` draws at a probe position,
    composed as a heatmap cell is."""
    scenario = replace(scenario, mc_samples=samples)
    bob_budget, probe_budget, precoders, projector = probe_inputs(scenario, probe)
    signal, _, rows = probe_block(scenario, bob_budget, precoders, projector, [probe_budget], 1, True)
    return mc_mean_ber(scenario, float(signal[0]), rows[0], seed)


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
        bob_budget, probe_budget, precoders, projector = probe_inputs(scenario, probe)
        signal = scenario.alpha * scenario.pt_mw * abs(
            probe_amplitude(scenario, bob_budget, probe_budget, precoders)
        ) ** 2
        row = an_leak_row(probe_budget, scenario.alice_array(), projector)
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
