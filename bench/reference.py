"""Closed-form reference for checking dmirs outputs, independent of dmirs.

Everything the benchmark checks is recomputed here from the scene geometry
alone, with numpy and math and no dmirs import:

  * the direct beam reaches a probe through the Dirichlet kernel
    D_na(x) / na with x = pi * s_a * (cos phi_ab - cos phi_ae), where
    D_n(x) = sin(n x) / sin(x);
  * the tuned reflect beam reaches it through D_nr(pi * s_r * (cos theta_e
    - cos theta_b));
  * the artificial-noise leak through the unit-Frobenius projector onto
    the complement of the direct steering vector is
    (1 - |<h_ab, h_ae>|^2) / (na - 1), so no matrix is needed;
  * QPSK BER is Q(sqrt(gamma)).

Instantaneous-noise BER is checked against the exact mean over the leak
power E ~ Exp(leak): mean and variance of Q(sqrt(S / (a E + N))) come from
Gauss-Legendre quadrature in log E, which does not depend on any random
stream.  The allowed deviation comes from Bernstein's inequality.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

# |gamma_prog - gamma_ref| may reach SINR_ATOL + SINR_RTOL * gamma_ref.  An
# SINR error of 1e-9 is a signal-power error of at most 1e-9 times the
# interference-plus-noise power, so exact pattern nulls are compared too.
SINR_ATOL = 1e-9
SINR_RTOL = 1e-7
BER_ATOL = 1e-8
RATE_ATOL = 1e-6
# False-alarm probability of one Monte-Carlo check (see `mc_tolerance`).
MC_FALSE_ALARM = 1e-9

_LOG_E_NODES, _LOG_E_WEIGHTS = np.polynomial.legendre.leggauss(400)
_LOG_E_LO, _LOG_E_HI = -32.0, 4.5  # E from 1.3e-14 to 90; beyond is < 1e-14 mass


@dataclass(frozen=True)
class Scene:
    """The fields of a dmirs scenario the reference needs (baseline defaults)."""

    bob: tuple
    irs: tuple
    alice: tuple = (0.0, 0.0)
    na: int = 16
    nr: int = 50
    s_a: float = 0.5
    s_r: float = 0.5
    pt_dbm: float = 25.0
    noise_dbm: float = -20.0
    alpha: float = 0.6
    d0: float = 1.0

    @property
    def pt_mw(self):
        return 10.0 ** (self.pt_dbm / 10.0)

    @property
    def noise_mw(self):
        return 10.0 ** (self.noise_dbm / 10.0)


def dirichlet(n: int, x):
    """sin(n x) / sin(x), with its limit n * (-1)**(k (n-1)) at x = k pi."""
    x = np.asarray(x, dtype=float)
    k = np.round(x / np.pi)
    at_pole = np.abs(x - k * np.pi) < 1e-9
    safe = np.where(at_pole, 1.0, np.sin(x))
    return np.where(at_pole, n * (-1.0) ** (np.abs(k) * (n - 1)), np.sin(n * x) / safe)


def _dist(a, b):
    return math.hypot(b[0] - a[0], b[1] - a[1])


def _angle(origin, target):
    return math.atan2(abs(target[1] - origin[1]), target[0] - origin[0])


def _gain(d, d0):
    return (d / d0) ** -2


def ber(gamma):
    """QPSK bit error rate Q(sqrt(gamma)) = erfc(sqrt(gamma / 2)) / 2."""
    g = np.asarray(gamma, dtype=float)
    return 0.5 * np.vectorize(math.erfc, otypes=[float])(np.sqrt(g / 2.0))


def probe_terms(scene: Scene, phi_ae, theta_e, l_ae, l_are, include_irs=True):
    """Received signal power (mW) and normalized AN leak at probe angles."""
    phi_ab = _angle(scene.alice, scene.bob)
    theta_b = _angle(scene.irs, scene.bob)
    direct = dirichlet(scene.na, math.pi * scene.s_a * (math.cos(phi_ab) - np.cos(phi_ae))) / scene.na
    amplitude = math.sqrt(l_ae) * direct
    if include_irs:
        amplitude = amplitude + math.sqrt(l_are) * dirichlet(
            scene.nr, math.pi * scene.s_r * (np.cos(theta_e) - math.cos(theta_b))
        )
    signal = scene.alpha * scene.pt_mw * amplitude**2
    leak = (1.0 - direct**2) / (scene.na - 1)
    return signal, leak


def sinr(scene: Scene, signal, leak):
    return signal / ((1.0 - scene.alpha) * scene.pt_mw * leak + scene.noise_mw)


def _bob_gains(scene: Scene):
    l_ab = _gain(_dist(scene.alice, scene.bob), scene.d0)
    l_arb = _gain(_dist(scene.alice, scene.irs) + _dist(scene.irs, scene.bob), scene.d0)
    return l_ab, l_arb


def heatmap_terms(scene: Scene, n_phi: int, n_theta: int):
    """Signal and leak over the heatmap grid, flattened in CSV row order."""
    phi = np.radians(np.repeat(np.linspace(0.0, 180.0, n_phi), n_theta))
    theta = np.radians(np.tile(np.linspace(0.0, 180.0, n_theta), n_phi))
    l_ab, l_arb = _bob_gains(scene)
    return probe_terms(scene, phi, theta, l_ab, l_arb)


def link_metrics(scene: Scene, eve, include_irs=True):
    """gamma_b, gamma_e, rates and BERs at probe ``eve`` (as `dmirs metrics`)."""
    l_ab, l_arb = _bob_gains(scene)
    amp_b = math.sqrt(l_ab) + (math.sqrt(l_arb) * scene.nr if include_irs else 0.0)
    gamma_b = scene.alpha * scene.pt_mw * amp_b**2 / scene.noise_mw
    l_ae = _gain(_dist(scene.alice, eve), scene.d0)
    l_are = _gain(_dist(scene.alice, scene.irs) + _dist(scene.irs, eve), scene.d0)
    signal, leak = probe_terms(
        scene, _angle(scene.alice, eve), _angle(scene.irs, eve), l_ae, l_are, include_irs
    )
    gamma_e = float(sinr(scene, signal, leak))
    rate_b, rate_e = math.log2(1.0 + gamma_b), math.log2(1.0 + gamma_e)
    return {
        "gamma_b": gamma_b,
        "gamma_e": gamma_e,
        "rate_b": rate_b,
        "rate_e": rate_e,
        "rate_s": max(0.0, rate_b - rate_e),
        "ber_b": float(ber(gamma_b)),
        "ber_probe": float(ber(gamma_e)),
    }


def secrecy_rates(scene: Scene, eve):
    """(proposed, no-IRS benchmark) secrecy rates at probe ``eve``."""
    return link_metrics(scene, eve)["rate_s"], link_metrics(scene, eve, include_irs=False)["rate_s"]


def sweep_nr_rows(scene: Scene, eve, nr_values, pt_values):
    return [
        (nr, pt, *secrecy_rates(replace(scene, nr=nr, pt_dbm=pt), eve))
        for nr in nr_values
        for pt in pt_values
    ]


def sweep_dab_rows(scene: Scene, eve, dab_values, pt_values):
    ax, ay = scene.alice
    d_ab = _dist(scene.alice, scene.bob)
    ux, uy = (scene.bob[0] - ax) / d_ab, (scene.bob[1] - ay) / d_ab
    return [
        (dab, pt, *secrecy_rates(replace(scene, bob=(ax + dab * ux, ay + dab * uy), pt_dbm=pt), eve))
        for dab in dab_values
        for pt in pt_values
    ]


def mc_ber_moments(scene: Scene, signal, leak, chunk=64):
    """Exact mean and per-sample standard deviation of the instantaneous BER.

    One sample is Q(sqrt(S / (a * leak * E + N))) with E ~ Exp(1), the
    distribution of |row . z|^2 / |row|^2 for z ~ CN(0, I).  Cells are
    evaluated ``chunk`` at a time so the benchmark's own memory stays small
    next to the workload's peak RSS.
    """
    signal = np.atleast_1d(np.asarray(signal, dtype=float))
    leak = np.atleast_1d(np.asarray(leak, dtype=float))
    t = 0.5 * (_LOG_E_HI - _LOG_E_LO) * _LOG_E_NODES + 0.5 * (_LOG_E_HI + _LOG_E_LO)
    e = np.exp(t)
    weights = 0.5 * (_LOG_E_HI - _LOG_E_LO) * _LOG_E_WEIGHTS * e * np.exp(-e)  # dE = e dt
    a = (1.0 - scene.alpha) * scene.pt_mw
    mean, second = np.empty_like(signal), np.empty_like(signal)
    for i in range(0, signal.size, chunk):
        part = slice(i, i + chunk)
        q = ber(signal[part, None] / (a * leak[part, None] * e + scene.noise_mw))
        mean[part], second[part] = q @ weights, (q * q) @ weights
    return mean, np.sqrt(np.maximum(second - mean * mean, 0.0))


def mc_tolerance(variance_sum, samples):
    """Allowed |MC mean - exact mean| for means of ``samples`` BER draws each.

    ``variance_sum`` is the per-draw variance, or its sum over the cells when
    the deviations of several cells are summed.  Draws lie in [0, 1/2], so by
    Bernstein's inequality the deviation exceeds the returned value with
    probability below MC_FALSE_ALARM.  That is about 6.5 standard errors
    plus a range term, which keeps cells whose BER comes from rare large
    draws from false alarms.
    """
    log_term = math.log(2.0 / MC_FALSE_ALARM)
    range_term = 0.5 * log_term / 3.0
    total = range_term + np.sqrt(range_term**2 + 2.0 * samples * np.asarray(variance_sum) * log_term)
    return total / samples
