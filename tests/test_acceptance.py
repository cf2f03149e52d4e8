"""Acceptance suite: one test per contract criterion, at stated tolerances.

Each criterion prints a PASS or FAIL line (visible with ``pytest -s`` or on
failure) and enforces its runtime budget where one is stated.

The BER-map criteria define each beam band the way a uniform linear array
responds: through ``d * cos(angle)`` modulo 1, not in degrees.  A band is the
main lobe between its first nulls, grating lobes included, widened by one
grid cell.  On the baseline scene the intended receiver lies along the
transmit array's axis, where the direct beam's main lobe spans about 29
degrees and a half-wavelength array has a grating lobe at 180 degrees; both
lie inside the direct-beam band.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from dmirs import cli, secrecy
from dmirs.arrays import ArraySpec, steering_vector
from dmirs.geometry import Position, link_budget
from dmirs.scenario import Scenario
from dmirs.secrecy import (
    probe_setup,
    secrecy_metrics,
    snr_bob,
)
from dmirs.sweeps import run_heatmap, run_sweep_dab, run_sweep_nr
from dmirs.transmitter import an_projector, complex_normal
from oracles import an_leak_row, benchmark_no_irs, cascaded_gain_bruteforce, q_via_integration


@contextlib.contextmanager
def criterion(name, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_seconds is not None and elapsed >= budget_seconds:
            print(f"FAIL {name}: took {elapsed:.2f}s, budget {budget_seconds}s")
            raise AssertionError(f"{name} exceeded runtime budget: {elapsed:.2f}s >= {budget_seconds}s")
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"FAIL {name} ({elapsed:.2f}s)")
        raise
    print(f"PASS {name} ({elapsed:.2f}s)")


def test_tuned_reflect_gain_equals_element_count():
    with criterion("tuned reflect-path gain equals the element count", budget_seconds=1.0):
        for nr in (1, 2, 7, 50, 128):
            for na in (1, 4, 16):
                gain = cascaded_gain_bruteforce(
                    math.pi / 2, math.pi / 2, ArraySpec(na), ArraySpec(nr), 0.6435011087932844
                )
                assert gain.real == pytest.approx(nr, abs=1e-9)
                assert abs(gain.imag) <= 1e-9


def test_dirichlet_closed_form_matches_bruteforce():
    with criterion("closed-form reflect gain matches the brute-force double sum", budget_seconds=5.0):
        theta_es = [math.radians(d) for d in range(181)]
        theta_bs = [math.radians(d) for d in (30.0, 90.0, 126.86989764584402)]
        alice = ArraySpec(16)
        for nr in (1, 2, 7, 50, 128):
            irs = ArraySpec(nr)
            for theta_b in theta_bs:
                for theta_e in theta_es:
                    closed = secrecy._dirichlet(0.5 * (math.cos(theta_e) - math.cos(theta_b)), nr)
                    assert abs(closed) <= nr + 1e-12
                    brute = cascaded_gain_bruteforce(theta_e, theta_b, alice, irs, 0.5)
                    assert abs(closed - brute) <= 1e-9


def test_receiver_snr_golden_values():
    with criterion("receiver SNR golden values"):
        scenario = Scenario()
        budget = link_budget(scenario, scenario.bob)
        assert snr_bob(scenario, budget) == pytest.approx(32065.495, rel=1e-3)
        bench = benchmark_no_irs(scenario, scenario.bob)
        assert bench.gamma_b == pytest.approx(47.434, rel=1e-3)


def test_eavesdropper_never_beats_receiver():
    with criterion("probe SINR never exceeds receiver SNR on the scene grid", budget_seconds=10.0):
        scenario = Scenario()
        gamma_b = snr_bob(scenario, link_budget(scenario, scenario.bob))
        for x in np.linspace(-10.0, 50.0, 50):
            for y in np.linspace(-30.0, 30.0, 50):
                probe = Position(float(x), float(y))
                metrics = secrecy_metrics(scenario, probe)
                if probe == scenario.bob:
                    assert metrics.gamma_e == pytest.approx(gamma_b, rel=1e-9)
                else:
                    assert metrics.gamma_e < gamma_b
                assert metrics.rate_s >= 0.0
        # coincidence case: equality is attained exactly at the receiver
        at_bob = secrecy_metrics(scenario, scenario.bob)
        assert at_bob.gamma_e == pytest.approx(gamma_b, rel=1e-9)
        assert at_bob.rate_s == pytest.approx(0.0, abs=1e-9)


@pytest.fixture(scope="module")
def full_heatmap():
    start = time.perf_counter()
    result = run_heatmap(Scenario(), grid=(181, 181))
    elapsed = time.perf_counter() - start
    sinr = result.values["sinr_db"].reshape(181, 181)
    ber = result.values["ber"].reshape(181, 181)
    return sinr, ber, elapsed


def test_ber_map_minimum_at_receiver_cell(full_heatmap):
    with criterion("BER map: unique optimum at the receiver's angle cell"):
        sinr, ber, elapsed = full_heatmap
        assert elapsed < 60.0, f"heatmap took {elapsed:.1f}s, budget 60s"
        best = np.unravel_index(np.argmax(sinr), sinr.shape)
        assert best == (0, 90)  # receiver at end-fire / reflector boresight
        assert np.sum(sinr >= sinr[best]) == 1
        assert ber[best] == ber.min()


def _beam_band(angles_deg, ref_rad, n_elements, spacing_wavelengths):
    """Grid angles in a linear array's beam toward ``ref_rad``, widened by one cell.

    The array factor depends on the angle only through ``d * cos(angle)``
    modulo 1.  Its main lobe reaches its first nulls where
    ``d * (cos x - cos x_ref)`` lies ``1/N`` from an integer, and every other
    integer is a grating lobe (Van Trees, Optimum Array Processing, sec. 2.4).
    """
    u = spacing_wavelengths * (np.cos(np.radians(angles_deg)) - math.cos(ref_rad))
    lobe = np.abs(u - np.round(u)) < 1.0 / n_elements
    band = lobe.copy()
    band[1:] |= lobe[:-1]
    band[:-1] |= lobe[1:]
    return band


def _beam_bands(scenario, grid):
    """Heatmap rows (phi) in the direct beam and columns (theta) in the reflect beam.

    Built from the scene alone: the intended receiver's angles and the two
    arrays' element counts and spacings, on the heatmap's degree grid.
    """
    budget = link_budget(scenario, scenario.bob)
    n_phi, n_theta = grid
    phi_band = _beam_band(
        np.linspace(0.0, 180.0, n_phi), budget.phi, scenario.na, scenario.alice_spacing_wavelengths
    )
    theta_band = _beam_band(
        np.linspace(0.0, 180.0, n_theta), budget.theta, scenario.nr, scenario.irs_spacing_wavelengths
    )
    return phi_band, theta_band


def _band_mask(scenario, grid):
    phi_band, theta_band = _beam_bands(scenario, grid)
    return phi_band[:, None] | theta_band[None, :]


def _low_ber_outside_bands(scenario, ber):
    return (ber < 0.1) & ~_band_mask(scenario, ber.shape)


def test_ber_map_low_ber_confined_to_beam_bands(full_heatmap):
    with criterion("BER map: sub-0.1 cells confined to the two beam bands"):
        _, ber, _ = full_heatmap
        outside = _low_ber_outside_bands(Scenario(), ber)
        assert outside.sum() == 0, (
            f"{outside.sum()} cells with BER < 0.1 lie outside the direct-beam and "
            "reflect-beam bands (main lobes and grating lobes, widened by one cell): "
            "the signal reaches angles the artificial noise should cover"
        )


def test_ber_map_off_band_ber_hovers_near_half(full_heatmap):
    with criterion("BER map: median off-band BER stays above 0.25"):
        _, ber, _ = full_heatmap
        assert float(np.median(ber[~_band_mask(Scenario(), ber.shape)])) > 0.25


def test_beam_bands_pinned_to_lobe_extents():
    phi_band, theta_band = _beam_bands(Scenario(), (181, 181))
    # end-fire receiver: main lobe to its first null near 29 deg, grating lobe from 151 deg
    assert np.flatnonzero(phi_band).tolist() == list(range(0, 30)) + list(range(151, 181))
    assert np.flatnonzero(theta_band).tolist() == list(range(87, 94))
    broadside = _beam_band(np.linspace(0.0, 180.0, 181), math.pi / 2, 16, 0.5)
    assert np.flatnonzero(broadside).tolist() == list(range(82, 99))


def test_beam_band_check_fails_without_artificial_noise():
    # with all power on the symbol, nothing masks the sidelobes
    scenario = Scenario(alpha=1.0)
    result = run_heatmap(scenario, grid=(61, 61))
    ber = result.values["ber"].reshape(61, 61)
    assert _low_ber_outside_bands(scenario, ber).sum() > 0


def test_secrecy_rate_scaling_with_elements():
    with criterion("secrecy rate grows with element count; benchmark flat", budget_seconds=5.0):
        for pt in (10.0, 15.0):
            result = run_sweep_nr(Scenario(), list(range(10, 201, 10)), [pt])
            proposed = result.values["rs_proposed_bits"].tolist()
            benchmark = result.values["rs_benchmark_bits"].tolist()
            assert all(a < b for a, b in zip(proposed, proposed[1:]))
            assert all(b == benchmark[0] for b in benchmark)
            gaps = [p - b for p, b in zip(proposed, benchmark)]
            assert all(a < b for a, b in zip(gaps, gaps[1:]))


def test_secrecy_rate_vs_distance():
    with criterion("secrecy rate decays with link distance; reflect path keeps the lead", budget_seconds=5.0):
        # per-hop product rule: under the single-composite-distance rule the
        # reflect path peaks where the receiver passes over the reflector,
        # which breaks monotonicity; the product rule is the configuration
        # this criterion is defined on
        scenario = Scenario(path_loss_combine="product")
        distances = list(range(10, 51, 5))
        gaps_at_50 = {}
        for pt in (10.0, 15.0):
            result = run_sweep_dab(scenario, distances, [pt])
            proposed = result.values["rs_proposed_bits"].tolist()
            benchmark = result.values["rs_benchmark_bits"].tolist()
            assert all(a > b for a, b in zip(proposed, proposed[1:]))
            assert all(a > b for a, b in zip(benchmark, benchmark[1:]))
            assert all(p >= b for p, b in zip(proposed, benchmark))
            gaps_at_50[pt] = proposed[-1] - benchmark[-1]
        assert gaps_at_50[15.0] > gaps_at_50[10.0]


def test_artificial_noise_statistics():
    with criterion("projected-noise power statistics match their averages"):
        scenario = Scenario()
        alice = scenario.alice_array()
        rng = np.random.default_rng(20240817)
        bob_budget = link_budget(scenario, scenario.bob)
        projector = an_projector(steering_vector(alice, bob_budget.phi))

        for _ in range(20):
            probe = Position(float(rng.uniform(-10, 50)), float(rng.uniform(-30, 30)))
            budget = link_budget(scenario, probe)
            row = an_leak_row(budget, alice, projector)
            draws = complex_normal(rng, (100_000, scenario.na))
            mc_power = float(np.mean(np.abs(draws @ row) ** 2))
            assert mc_power == pytest.approx(float(np.linalg.norm(row) ** 2), rel=0.02)

        # mean radiated power of the noisy beam stays at one symbol's worth
        _, w_a = probe_setup(scenario)
        z = complex_normal(rng, (100_000, scenario.na))
        noisy = math.sqrt(0.6) * w_a[None, :] + math.sqrt(0.4) * (
            z @ projector.T
        )
        assert float(np.mean(np.sum(np.abs(noisy) ** 2, axis=1))) == pytest.approx(1.0, rel=0.015)


def test_q_function_against_integration_oracle():
    with criterion("normal tail probability matches numeric integration to 1e-10"):
        from dmirs.numerics import q_function

        for u in np.arange(-8.0, 8.0 + 1e-9, 0.01):
            assert abs(q_function(float(u)) - q_via_integration(float(u))) <= 1e-10


def test_sweep_csv_byte_determinism(tmp_path):
    with criterion("sweep commands are byte-deterministic for a fixed seed"):
        config = tmp_path / "scenario.json"
        config.write_text('{"seed": 11, "an_mode": "instantaneous", "mc_samples": 40}')
        pairs = [
            ["heatmap", "--config", str(config), "--grid", "21x21", "--out", None],
            ["sweep-nr", "--config", str(config), "--nr", "10:60:10", "--pt", "10,15", "--out", None],
            ["sweep-dab", "--config", str(config), "--dab", "10:50:5", "--pt", "10,15", "--out", None],
        ]
        for argv in pairs:
            blobs = []
            for run in ("first", "second"):
                out = tmp_path / f"{argv[0]}-{run}.csv"
                argv[-1] = str(out)
                assert cli.main(argv) == 0
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1], f"{argv[0]} output differed between identical runs"
