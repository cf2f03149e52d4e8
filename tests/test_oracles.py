"""The exact oracle of tests/oracles.py against independent sources, and its
promise to leave mpmath's global precision alone."""

import mpmath
import numpy as np
import pytest

import oracles
from dmirs.scenario import Scenario
from oracles import DIGITS, eve_reference, exact_leak_rows, expected_leak_range, mp_dirichlet, mp_leak_row

SPACING = 1.2  # above half a wavelength: grating lobes in view
PHI_B, PHI = 1.1, 0.4


def mp_steering(n, phi):
    """The unit-norm steering vector of n centred elements toward ``phi`` in
    the caller's mpmath context: entry k is exp(2j*pi*SPACING*(k - (n - 1)/2)*cos(phi))/sqrt(n)."""
    centre = mpmath.mpf(n - 1) / 2
    return [mpmath.expjpi(2 * SPACING * (k - centre) * mpmath.cos(phi)) / mpmath.sqrt(n) for k in range(n)]


def textbook_leak_power(h, w):
    """||h^H P||^2 for P = (I - w w^H)/sqrt(na - 1), as the literal
    vector-matrix product in exact integer arithmetic on h and w scaled by
    2**150 (rounding them by far less than the 1e-40 the test asks)."""
    scale = 2**150
    hr, hi, wr, wi = (np.array([int(mpmath.nint(p * scale)) for p in part], dtype=object)
                      for v in (h, w) for part in ([x.real for x in v], [x.imag for x in v]))
    cross = np.outer(wr, wi)
    pr, pi = -(np.outer(wr, wr) + np.outer(wi, wi)), cross - cross.T  # -w w^H, real and imaginary parts
    pr[np.diag_indices(len(w))] += scale**2
    xr, xi = hr @ pr + hi @ pi, hr @ pi - hi @ pr  # conj(h) @ (I - w w^H), scaled by scale**3
    return mpmath.mpf(int((xr * xr).sum() + (xi * xi).sum())) / mpmath.mpf(scale) ** 6 / (len(w) - 1)


@pytest.mark.parametrize("na", [2, 3, 16, 1024])
def test_leak_power_is_the_closed_form_and_the_textbook_product(na):
    """The oracle's leak row norm, squared, is (1 - d^2)/(na - 1) with d its
    Dirichlet kernel over na, and the textbook ||h^H P||^2, to 1e-40, for
    exact steering vectors."""
    with mpmath.workdps(DIGITS):
        h, w = mp_steering(na, PHI), mp_steering(na, PHI_B)
        offset = SPACING * (mpmath.cos(PHI) - mpmath.cos(PHI_B))
        d = mp_dirichlet(offset, na) / na
        an_power = mpmath.norm(mp_leak_row(h, w)) ** 2
        for other in ((1 - d**2) / (na - 1), textbook_leak_power(h, w)):
            assert abs(an_power - other) <= 1e-40


@pytest.mark.parametrize("n", [1, 2, 3, 16, 500, 1024])
def test_dirichlet_is_the_element_sum(n):
    """mp_dirichlet against the literal sum of its n unit phasors, at a grating
    point (a whole offset, the sign (-1)**(k*(n - 1))), beside one, and between."""
    with mpmath.workdps(DIGITS):
        for offset in (SPACING * (mpmath.cos(PHI) - mpmath.cos(PHI_B)), mpmath.mpf(2), 1 + mpmath.mpf(2) ** -30, -1):
            literal = mpmath.fsum(mpmath.expjpi(2 * offset * (j - mpmath.mpf(n - 1) / 2)) for j in range(n))
            assert abs(mp_dirichlet(offset, n) - literal) <= 1e-40


def raising(name):
    """A stand-in for oracles.``name`` that raises inside the oracle's mpmath context."""

    def boom(*args):
        assert mpmath.mp.dps == DIGITS
        raise RuntimeError(name)

    return boom


W_A = oracles.probe_setup(Scenario())[1]
# each entry point with arguments, and the helper it calls inside its workdps
ENTRY_POINTS = [
    (exact_leak_rows, (W_A[::-1], W_A), "mp_leak_row"),
    (oracles.signal_range, (Scenario(), 0.3 + 0.1j), "_power_range"),
    (expected_leak_range, (16, 0.3), "_outward"),
    (eve_reference, (Scenario(),), "mp_dirichlet"),
    (eve_reference, (Scenario(an_mode="instantaneous"),), "_instantaneous_leak_range"),
    (oracles.rate_reference, (Scenario(),), "_projector_leak_range"),
    (oracles.heatmap_per_cell, (Scenario(), (2, 2)), "exact_leak_rows"),
]


@pytest.mark.parametrize("entry, args, inner", ENTRY_POINTS, ids=lambda p: getattr(p, "__name__", None))
def test_entry_points_leave_the_global_precision_alone(monkeypatch, entry, args, inner):
    """Each entry point works in a local workdps: the caller's precision
    holds after it returns and after it raises."""
    with mpmath.workdps(23):
        prec = mpmath.mp.prec
        entry(*args)
        assert (mpmath.mp.dps, mpmath.mp.prec) == (23, prec)
        monkeypatch.setattr(oracles, inner, raising(inner))
        with pytest.raises(RuntimeError, match=inner):
            entry(*args)
        assert (mpmath.mp.dps, mpmath.mp.prec) == (23, prec)
