import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dmirs.arrays import ArraySpec, element_cycles, steering_vector
from dmirs.geometry import Position, angle_of, link_budget
from dmirs.scenario import Scenario
from dmirs.secrecy import probe_setup
from oracles import (
    cascade_matrix,
    cascaded_gain_closed,
    channel_rows,
    irs_beam,
    irs_phase_diagonal,
    irs_phase_matrix,
    matvec_triple_loop,
    probe_amplitude,
    steering_oracle,
)


class TestPhaseShift:
    def test_broadside_gives_zero(self):
        np.testing.assert_allclose(element_cycles(ArraySpec(8, 0.5), math.pi / 2), 0.0, atol=1e-12)

    def test_first_element_of_two_at_end_fire(self):
        assert element_cycles(ArraySpec(2, 0.5), 0.0)[0] == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("phi", [0.0, 0.3, 1.1, 2.8])
    def test_antisymmetric_about_array_center(self, phi):
        cycles = element_cycles(ArraySpec(9, 0.5), phi)
        np.testing.assert_allclose(cycles, -cycles[::-1], rtol=0, atol=1e-15)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ArraySpec(0, 0.5)
        with pytest.raises(ValueError):
            ArraySpec(4, 0.0)


class TestSteeringVector:
    def test_single_element(self):
        np.testing.assert_allclose(steering_vector(ArraySpec(1, 0.5), 1.2), [1.0 + 0j])

    def test_broadside_is_uniform(self):
        v = steering_vector(ArraySpec(16, 0.5), math.pi / 2)
        np.testing.assert_allclose(v, np.full(16, 0.25 + 0j), atol=1e-12)

    @given(
        st.integers(min_value=1, max_value=256),
        st.floats(min_value=1e-3, max_value=2.0),
        st.floats(min_value=0.0, max_value=math.pi),
    )
    def test_unit_norm(self, n, spacing, phi):
        assert np.linalg.norm(steering_vector(ArraySpec(n, spacing), phi)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matches_elementwise_oracle(self):
        v = steering_vector(ArraySpec(16, 0.5), 0.6435011087932844)
        np.testing.assert_allclose(v, steering_oracle(16, 0.5, 0.6435011087932844), atol=1e-14)


class TestElementCycles:
    @given(
        st.integers(min_value=1, max_value=256),
        st.floats(min_value=1e-3, max_value=2.0),
        st.floats(min_value=0.0, max_value=math.pi),
    )
    def test_same_bits_as_the_per_call_formula(self, n, spacing, phi):
        want = -spacing * (np.arange(n) - (n - 1) / 2.0) * math.cos(phi)
        assert np.array_equal(element_cycles(ArraySpec(n, spacing), phi), want)

    def test_result_is_a_fresh_array(self):
        spec = ArraySpec(5, 0.5)
        first = element_cycles(spec, 0.0)
        first[:] = 99.0
        np.testing.assert_array_equal(element_cycles(spec, 0.0), [1.0, 0.5, 0.0, -0.5, -1.0])


class TestCascadeMatrix:
    """The dense matrix route of tests/oracles.py that the reflect gain is checked against."""

    def test_scalar_case(self):
        np.testing.assert_allclose(cascade_matrix(1, 1, 0.5, 0.7), [[1.0 + 0j]])

    def test_rows_identical_rank_one(self):
        g = cascade_matrix(8, 5, 0.5, 1.1)
        for row in g:
            np.testing.assert_allclose(row, g[0], atol=0)
        # all 2x2 minors vanish
        for i in range(4):
            for j in range(7):
                minor = g[i, j] * g[i + 1, j + 1] - g[i, j + 1] * g[i + 1, j]
                assert abs(minor) < 1e-12

    def test_forwarding_the_matched_beam_gives_all_ones(self):
        phi_ar = 0.6435011087932844
        g = cascade_matrix(16, 50, 0.5, phi_ar)
        g_t = steering_vector(ArraySpec(16), phi_ar)
        product = matvec_triple_loop(g.tolist(), g_t.tolist())
        np.testing.assert_allclose(product, np.ones(50), atol=1e-12)


class TestIrsPhaseMatrix:
    def test_tuned_deflection_is_identity(self):
        theta_b = math.pi / 2
        np.testing.assert_array_equal(irs_phase_diagonal(ArraySpec(7), theta_b, theta_b), np.ones(7))

    def test_unit_modulus_diagonal(self):
        d = irs_phase_diagonal(ArraySpec(50), 0.3, 1.9)
        np.testing.assert_allclose(np.abs(d), 1.0, atol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.4, 1.0, 2.5, math.pi])
    def test_unitary(self, theta):
        m = np.diag(irs_phase_diagonal(ArraySpec(12), theta, 1.0))
        np.testing.assert_allclose(m.conj().T @ m, np.eye(12), atol=1e-12)


class TestAssembleChannel:
    """Probe channel rows by the dense matrix route of tests/oracles.py."""

    def test_receiver_row_cascade_product(self):
        scenario = Scenario()
        budget = link_budget(scenario, scenario.bob)
        phi_ar = angle_of(scenario.alice, scenario.irs)
        direct, reflect = channel_rows(budget, budget, phi_ar, scenario.na, scenario.nr, budget.theta)
        assert reflect @ irs_beam(scenario) == pytest.approx(1.25, abs=1e-9)
        assert len(direct) == scenario.na
        assert len(reflect) == scenario.na

    def test_direct_block_norm_is_loss_amplitude(self):
        scenario = Scenario()
        bob_budget = link_budget(scenario, scenario.bob)
        budget = link_budget(scenario, Position(30.0, 20.0))
        phi_ar = angle_of(scenario.alice, scenario.irs)
        direct, _ = channel_rows(budget, bob_budget, phi_ar, scenario.na, scenario.nr, budget.theta)
        assert np.linalg.norm(direct) == pytest.approx(math.sqrt(budget.l_direct), rel=1e-12)

    def test_probe_row_matches_dense_matrix_oracle(self):
        scenario = Scenario()
        bob_budget = link_budget(scenario, scenario.bob)
        budget = link_budget(scenario, Position(30.0, 20.0))
        _, w_a = probe_setup(scenario)
        phi_ar = angle_of(scenario.alice, scenario.irs)
        direct, reflect = channel_rows(budget, bob_budget, phi_ar, scenario.na, scenario.nr, budget.theta)
        dense = direct @ w_a + reflect @ irs_beam(scenario)
        assert probe_amplitude(scenario, bob_budget, budget, w_a) == pytest.approx(dense, rel=1e-12, abs=1e-14)


class TestIrsPhaseProductValue:
    def test_dense_product_matches_kernel_at_small_offset(self):
        theta_b = math.pi / 2
        theta_e = math.acos(0.01)
        theta = irs_phase_matrix(50, 0.5, theta_e, theta_b)
        g = cascade_matrix(16, 50, 0.5, 0.6435011087932844)
        w_r = steering_vector(ArraySpec(16), 0.6435011087932844)
        product = np.ones(50) @ theta @ g @ w_r
        assert product.real == pytest.approx(45.018, abs=1e-3)
        assert product.real == pytest.approx(cascaded_gain_closed(theta_e, theta_b, 50), abs=1e-9)
        assert abs(product.imag) < 1e-9


class TestTunedReflectPathIdentity:
    @pytest.mark.parametrize("nr", [1, 2, 7, 50, 128])
    def test_every_element_contributes_one_unit(self, nr):
        # brute-force double sum over antennas and elements at the tuned angle
        theta_b = math.pi / 2
        h_rb = np.ones(nr)
        theta = irs_phase_matrix(nr, 0.5, theta_b, theta_b)
        g = cascade_matrix(16, nr, 0.5, 0.6435011087932844)
        w_r = steering_vector(ArraySpec(16), 0.6435011087932844)
        total = 0j
        for l in range(nr):
            for k in range(16):
                total += h_rb[l].conjugate() * theta[l, l] * g[l, k] * w_r[k]
        assert total == pytest.approx(nr, abs=1e-9)
