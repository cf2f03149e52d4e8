import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dmirs.numerics import dbm_to_mw, q_function
from oracles import q_exact


class TestQFunction:
    def test_zero_is_half(self):
        assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
    def test_reflection_identity(self, u):
        assert q_function(-u) == pytest.approx(1.0 - q_function(u), abs=1e-12)

    def test_five_percent_point(self):
        expected = q_exact(1.6448536)
        assert expected == pytest.approx(0.0500000, abs=1e-6)
        assert q_function(1.6448536) == pytest.approx(expected, abs=1e-10)

    def test_matches_exact_oracle_on_grid(self):
        for u in np.linspace(-8.0, 8.0, 81):
            assert q_function(float(u)) == pytest.approx(q_exact(float(u)), abs=1e-10)

    def test_strictly_decreasing(self):
        grid = np.linspace(-8.0, 8.0, 401)
        values = [q_function(float(u)) for u in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_symmetry_sums_to_one(self, u):
        assert q_function(u) + q_function(-u) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, u):
        with pytest.raises(ValueError):
            q_function(u)


class TestUnitConversions:
    def test_zero_dbm_is_one_mw(self):
        assert dbm_to_mw(0.0) == 1.0

    def test_25_dbm(self):
        assert dbm_to_mw(25.0) == pytest.approx(316.22776601, rel=1e-6)

    def test_minus_20_dbm(self):
        assert dbm_to_mw(-20.0) == pytest.approx(0.01, abs=1e-12)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_round_trip(self, mw):
        assert dbm_to_mw(10.0 * math.log10(mw)) == pytest.approx(mw, rel=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dbm_to_mw(math.inf)
        with pytest.raises(ValueError):
            dbm_to_mw(math.nan)
