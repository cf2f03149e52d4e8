import math
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmirs.arrays import ArraySpec, steering_vector
from dmirs.geometry import link_budget
from dmirs.scenario import Scenario
from dmirs.secrecy import probe_setup
from dmirs.transmitter import an_projector, complex_normal
from oracles import an_projector_eye_minus_outer, complex_normal_two_draws, irs_beam, synthesize_tx


@pytest.fixture
def scene():
    scenario = Scenario()
    budget = link_budget(scenario, scenario.bob)
    return scenario, budget


class TestPrecoders:
    def test_direct_beam_matched_to_receiver(self, scene):
        scenario, budget = scene
        alice = scenario.alice_array()
        _, w_a = probe_setup(scenario)
        h_ab = steering_vector(alice, budget.phi)
        assert np.vdot(h_ab, w_a) == pytest.approx(1.0, abs=1e-12)

    def test_unit_norms(self, scene):
        scenario, _ = scene
        _, w_a = probe_setup(scenario)
        assert np.linalg.norm(w_a) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(irs_beam(scenario)) == pytest.approx(1.0, abs=1e-12)

    def test_baseline_beams_point_at_known_angles(self, scene):
        scenario, _ = scene
        _, w_a = probe_setup(scenario)
        np.testing.assert_allclose(w_a, steering_vector(ArraySpec(16, 0.5), 0.0), atol=0)
        np.testing.assert_allclose(
            irs_beam(scenario), steering_vector(ArraySpec(16, 0.5), 0.6435011087932844), atol=1e-15
        )


@st.composite
def projector_inputs(draw):
    """(kind, h) for 2-64 antennas: a unit-norm steering vector, an arbitrary
    complex vector of any norm, or one with exact zeros among its entries."""
    n = draw(st.integers(2, 64))
    kind = draw(st.sampled_from(["steering", "arbitrary", "zeros"]))
    if kind == "steering":
        return kind, steering_vector(ArraySpec(n, draw(st.floats(0.1, 2.0))), draw(st.floats(0.0, math.pi)))
    entry = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    if kind == "zeros":
        entry = st.one_of(st.sampled_from([0j, complex(0.0, -0.0), complex(-0.0, 0.0)]), entry)
    return kind, np.array(draw(st.lists(entry, min_size=n, max_size=n)), dtype=complex)


class TestAnProjector:
    @settings(max_examples=300, deadline=None)
    @given(projector_inputs())
    def test_bit_for_bit_the_eye_minus_outer_form(self, inputs):
        """Equal to the textbook form in every entry; only a zero entry may
        carry the other sign, and a steering vector's projector has none."""
        kind, h = inputs
        got, want = an_projector(h), an_projector_eye_minus_outer(h)
        assert np.array_equal(got, want)
        if kind == "steering":
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_annihilates_the_direct_path(self, seed):
        rng = np.random.default_rng(seed)
        h = complex_normal(rng, (8,))
        h = h / np.linalg.norm(h)
        p = an_projector(h)
        assert np.linalg.norm(h.conj() @ p) <= 1e-12

    def test_unit_frobenius_norm(self):
        h = steering_vector(ArraySpec(16, 0.5), 0.0)
        assert np.linalg.norm(an_projector(h)) == pytest.approx(1.0, abs=1e-12)

    def test_two_antenna_hand_case(self):
        p = an_projector(np.array([1.0 + 0j, 0.0]))
        np.testing.assert_allclose(p, [[0.0, 0.0], [0.0, 1.0]], atol=0)

    def test_single_antenna_rejected(self):
        with pytest.raises(ValueError):
            an_projector(np.array([1.0 + 0j]))

    def test_hermitian_positive_semidefinite(self):
        h = steering_vector(ArraySpec(8, 0.5), 1.1)
        p = an_projector(h)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-14)
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = complex_normal(rng, (8,))
            quad = np.vdot(v, p @ v)
            assert abs(quad.imag) < 1e-12
            assert quad.real >= -1e-12


class TestComplexNormal:
    def test_generator_annotation_resolves(self):
        # a string (postponed annotations), so that importing dmirs does not load numpy
        assert typing.get_type_hints(complex_normal)["rng"] is np.random.Generator

    @pytest.mark.parametrize("shape", [(1,), (7,), (1000, 16), (3, 4, 5)])
    def test_same_bits_as_two_separate_draws(self, shape):
        for seed in (0, 1, 2**32 - 1):
            got = complex_normal(np.random.default_rng(seed), shape)
            want = complex_normal_two_draws(np.random.default_rng(seed), shape)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got.view(float), want.view(float))

    def test_same_bits_on_many_seeds_at_heatmap_cell_size(self):
        for seed in range(200):
            got = complex_normal(np.random.default_rng(seed), (1000, 16))
            want = complex_normal_two_draws(np.random.default_rng(seed), (1000, 16))
            assert np.array_equal(got.view(float), want.view(float)), seed


def sample_an(n, seed):
    """One artificial-noise vector of ``n`` entries, as an instantaneous-mode probe draws it."""
    return complex_normal(np.random.default_rng(seed), (n,))


class TestSampleAn:
    def test_deterministic_per_seed(self):
        a = sample_an(64, 123)
        b = sample_an(64, 123)
        assert (a == b).all()

    def test_different_seeds_differ(self):
        assert not (sample_an(64, 1) == sample_an(64, 2)).all()

    def test_zero_mean_unit_variance(self):
        z = sample_an(100_000, 42)
        assert abs(z.mean()) < 0.02
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_streams_uncorrelated(self):
        a = sample_an(100_000, 11)
        b = sample_an(100_000, 12)
        corr = np.vdot(a, b) / len(a)
        assert abs(corr) < 0.02


class TestSynthesizeTx:
    def _parts(self, scene):
        """The scene's direct beam and IRS beam, and its noise projector."""
        scenario, _ = scene
        _, w_a = probe_setup(scenario)
        return scenario, (w_a, irs_beam(scenario)), an_projector(w_a)

    def test_full_power_to_symbol(self, scene):
        scenario, (w_a, w_r), projector = self._parts(scene)
        z = sample_an(scenario.na, 5)
        x_a, x_r = synthesize_tx(w_a, w_r, projector, 1.0, z, 1.0)
        np.testing.assert_allclose(x_a, w_a, atol=1e-15)
        np.testing.assert_allclose(x_r, w_r, atol=1e-15)

    def test_full_power_to_noise(self, scene):
        scenario, (w_a, w_r), projector = self._parts(scene)
        z = sample_an(scenario.na, 5)
        x_a, x_r = synthesize_tx(w_a, w_r, projector, 1.0, z, 0.0)
        np.testing.assert_allclose(x_a, projector @ z, atol=1e-15)
        np.testing.assert_allclose(x_r, np.zeros(scenario.na), atol=0)

    def test_split_powers_at_zero_noise(self, scene):
        scenario, (w_a, w_r), projector = self._parts(scene)
        z = np.zeros(scenario.na)
        x_a, x_r = synthesize_tx(w_a, w_r, projector, 1.0, z, 0.6)
        assert np.linalg.norm(x_a) ** 2 == pytest.approx(0.6, abs=1e-12)
        assert np.linalg.norm(x_r) ** 2 == pytest.approx(0.6, abs=1e-12)

    def test_mean_direct_beam_power_is_unity(self, scene):
        scenario, (w_a, w_r), projector = self._parts(scene)
        rng = np.random.default_rng(17)
        draws = 100_000
        z = complex_normal(rng, (draws, scenario.na))
        an_part = z @ projector.T
        powers = (
            np.abs(math.sqrt(0.6) * w_a[None, :] + math.sqrt(0.4) * an_part) ** 2
        ).sum(axis=1)
        assert powers.mean() == pytest.approx(1.0, rel=0.015)

    def test_noise_never_reaches_the_receiver_projection(self, scene):
        scenario, (w_a, w_r), projector = self._parts(scene)
        h_ab = steering_vector(scenario.alice_array(), 0.0)
        s = (1.0 + 1j) / math.sqrt(2.0)
        for seed in range(10):
            z = sample_an(scenario.na, seed)
            x_a, _ = synthesize_tx(w_a, w_r, projector, s, z, 0.6)
            assert np.vdot(h_ab, x_a) == pytest.approx(math.sqrt(0.6) * s, abs=1e-12)
