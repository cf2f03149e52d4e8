"""Performance formulas: SNR, SINR, BER, rates, and the secrecy rate.

The intended receiver sees both beams add coherently: its SNR is

    gamma_b = alpha * Pt * |sqrt(l_ab) + sqrt(l_arb) * N_r|^2 / noise,

since the tuned IRS contributes a factor of exactly N_r (one unit of gain
per element).  A probe elsewhere sees the direct beam through the steering
inner product, the reflect beam through a Dirichlet-kernel gain in the
cosine of its deflection angle, and additionally absorbs artificial noise:

    gamma_e = alpha * Pt * |sqrt(l_ae)*<h_ae, w_a> + sqrt(l_are)*gain|^2
              / ((1-alpha) * Pt * A + noise)

where A is the squared norm of the probe's steering row through the noise
projector (``expected`` mode) or the squared magnitude of one projected
noise draw (``instantaneous`` mode), as the scenario's an_mode says.  Rates
are log2(1+gamma) bits per channel use and the secrecy rate is the clamped
difference.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .arrays import ArraySpec, irs_phase_diagonal, steering_vector
from .geometry import LinkBudget, link_budget
from .numerics import q_function
from .transmitter import Precoders, an_projector, complex_normal, make_precoders

AN_MODES = ("expected", "instantaneous")
# ber_from_snr doubles the SNR, so half the float range is the largest it takes
MAX_SNR = sys.float_info.max / 2.0


@dataclass(frozen=True)
class SecrecyMetrics:
    """Link metrics for the intended receiver and one probe position."""

    gamma_b: float
    gamma_e: float
    rate_b: float
    rate_e: float
    rate_s: float
    ber_b: float
    ber_probe: float


def cascaded_gain_closed(
    theta_e: float, theta_b: float, n_r: int, spacing_wavelengths: float = 0.5
) -> float:
    """Reflect-path gain as a Dirichlet kernel in the deflection-cosine offset.

    Returns sin(n_r*x)/sin(x) with x = pi * spacing * (cos(theta_e) -
    cos(theta_b)).  The removable singularities (x a multiple of pi) are
    evaluated analytically: the tuned direction gives n_r, grating points
    give n_r up to sign.  The magnitude never exceeds n_r.
    """
    if n_r < 1:
        raise ValueError(f"element count must be at least 1, got {n_r}")
    delta = math.cos(theta_e) - math.cos(theta_b)
    scaled = spacing_wavelengths * delta
    nearest = round(scaled)
    if abs(delta - nearest / spacing_wavelengths) < 1e-12:
        return float(n_r) * (-1.0) ** (abs(nearest) * (n_r - 1))
    x = math.pi * scaled
    return math.sin(n_r * x) / math.sin(x)


def rate_bits(gamma: float) -> float:
    """Achievable rate log2(1 + gamma) in bits per channel use."""
    if gamma < 0.0:
        raise ValueError(f"SNR must be non-negative, got {gamma!r}")
    return math.log2(1.0 + gamma)


def secrecy_rate(gamma_b: float, gamma_e: float) -> float:
    """Clamped rate difference [rate_b - rate_e]^+ in bits per channel use."""
    return max(0.0, rate_bits(gamma_b) - rate_bits(gamma_e))


def ber_from_snr(gamma: float) -> float:
    """Bit error rate of Gray-coded QPSK at linear SNR ``gamma``, Q(sqrt(gamma)).

    Evaluated as the M-PSK form (2/log2(M)) * Q(sqrt(2*gamma) * sin(pi/M))
    at M = 4, whose leading factor is exactly 1.
    """
    if gamma < 0.0:
        raise ValueError(f"SNR must be non-negative, got {gamma!r}")
    return q_function(math.sqrt(2.0 * gamma) * math.sin(math.pi / 4))


def check_snr(scenario, *gammas) -> None:
    """Reject SNRs beyond MAX_SNR, naming the power levels that produced them."""
    if not all(g <= MAX_SNR for g in gammas):
        raise ValueError(
            f"pt_dbm = {scenario.pt_dbm!r} and noise_dbm = {scenario.noise_dbm!r} give an SNR "
            "too large to evaluate; lower pt_dbm or raise noise_dbm"
        )


def snr_bob(scenario, budget: LinkBudget) -> float:
    """SNR of the intended receiver with the IRS tuned to it."""
    amplitude = math.sqrt(budget.l_ab) + math.sqrt(budget.l_arb) * scenario.nr
    return scenario.alpha * scenario.pt_mw * amplitude**2 / scenario.noise_mw


def probe_amplitude(scenario, budget: LinkBudget, precoders: Precoders, include_irs=True) -> complex:
    """Coherent signal amplitude reaching the probe, both paths combined."""
    alice = scenario.alice_array()
    h_ae = steering_vector(alice, budget.phi_ae)
    amplitude = math.sqrt(budget.l_ae) * np.vdot(h_ae, precoders.w_a)
    if include_irs:
        irs = scenario.irs_array()
        g_t = steering_vector(alice, budget.phi_ar)
        phase_sum = irs_phase_diagonal(irs, budget.theta_e, budget.theta_b).sum()
        amplitude = amplitude + math.sqrt(budget.l_are) * phase_sum * np.vdot(g_t, precoders.w_r)
    return complex(amplitude)


def probe_signal(scenario, budget: LinkBudget, precoders: Precoders, include_irs=True) -> float:
    """Signal power reaching the probe in mW: alpha * Pt * |probe amplitude|^2."""
    return scenario.alpha * scenario.pt_mw * abs(
        probe_amplitude(scenario, budget, precoders, include_irs)
    ) ** 2


def an_leak_row(budget: LinkBudget, alice: ArraySpec, projector: np.ndarray) -> np.ndarray:
    """Probe steering row propagated through the noise projector."""
    h_ae = steering_vector(alice, budget.phi_ae)
    return h_ae.conj() @ projector


def sinr_eve(
    scenario,
    budget: LinkBudget,
    precoders: Precoders,
    projector: np.ndarray,
    include_irs: bool = True,
) -> float:
    """SINR at the probe described by ``budget``, in the scenario's an_mode.

    ``expected`` mode replaces the random projected-noise power by its mean
    (the squared row norm); ``instantaneous`` mode uses one noise draw from
    the scenario seed.  ``include_irs=False`` drops the reflect-path term
    for the no-IRS benchmark.
    """
    signal = probe_signal(scenario, budget, precoders, include_irs)
    row = an_leak_row(budget, scenario.alice_array(), projector)
    if scenario.an_mode == "expected":
        return leak_sinr(scenario, signal, row)
    z = complex_normal(np.random.default_rng(scenario.seed), (scenario.na,))
    return _sinr(scenario, signal, abs(np.dot(row, z)) ** 2)


def leak_sinr(scenario, signal_mw: float, row: np.ndarray) -> float:
    """Expected-noise SINR from the probe's signal power and its noise leak row."""
    return _sinr(scenario, signal_mw, float(np.linalg.norm(row) ** 2))


def probe_block(scenario, amplitudes: np.ndarray, leak_rows: np.ndarray):
    """Signal powers in mW and expected-noise SINRs of a block of probes.

    ``amplitudes`` are probe_amplitude values, ``leak_rows`` the matching
    an_leak_row rows.  Bit for bit the scalar probe_signal and leak_sinr
    route: magnitudes are hypot, squares are pow(x, 2) as for Python floats,
    and a row's squared norm is np.linalg.norm's sum of real and imaginary
    dot products, square-rooted and squared again.
    """
    magnitudes = np.hypot(amplitudes.real, amplitudes.imag)
    signal = scenario.alpha * scenario.pt_mw * np.float_power(magnitudes, 2.0)
    re, im = leak_rows.real, leak_rows.imag
    an_power = np.float_power(np.sqrt(np.vecdot(re, re) + np.vecdot(im, im)), 2.0)
    return signal, _sinr(scenario, signal, an_power)


def _sinr(scenario, signal_mw, an_power):
    """signal / (leaked noise + thermal noise); elementwise over an array of ``an_power``."""
    return signal_mw / ((1.0 - scenario.alpha) * scenario.pt_mw * an_power + scenario.noise_mw)


def probe_setup(scenario, probe):
    """Budgets, precoders, and noise projector for one scenario and probe."""
    bob_budget = link_budget(scenario, scenario.bob)
    probe_budget = link_budget(scenario, probe)
    alice = scenario.alice_array()
    precoders = make_precoders(bob_budget, alice)
    # w_a is the steering vector toward the intended receiver, the direction the noise avoids
    projector = an_projector(precoders.w_a)
    return bob_budget, probe_budget, precoders, projector


def secrecy_metrics(scenario, probe) -> SecrecyMetrics:
    """Full pipeline from scene geometry to rates and BERs for one probe."""
    return _metrics(scenario, probe, include_irs=True)


def benchmark_no_irs(scenario, probe) -> SecrecyMetrics:
    """Same pipeline with the reflect path removed everywhere.

    The intended receiver keeps only the direct beam, the probe's numerator
    keeps only the direct term; the artificial noise is unchanged.  The
    result does not depend on the IRS element count at all.
    """
    return _metrics(scenario, probe, include_irs=False)


def _metrics(scenario, probe, include_irs: bool) -> SecrecyMetrics:
    bob_budget, probe_budget, precoders, projector = probe_setup(scenario, probe)
    if include_irs:
        gamma_b = snr_bob(scenario, bob_budget)
    else:
        gamma_b = scenario.alpha * scenario.pt_mw * bob_budget.l_ab / scenario.noise_mw
    gamma_e = sinr_eve(scenario, probe_budget, precoders, projector, include_irs)
    check_snr(scenario, gamma_b, gamma_e)
    return SecrecyMetrics(
        gamma_b=gamma_b,
        gamma_e=gamma_e,
        rate_b=rate_bits(gamma_b),
        rate_e=rate_bits(gamma_e),
        rate_s=secrecy_rate(gamma_b, gamma_e),
        ber_b=ber_from_snr(gamma_b),
        ber_probe=ber_from_snr(gamma_e),
    )


def mc_mean_ber(scenario, signal_mw: float, leak_row: np.ndarray, seed) -> float:
    """Average QPSK BER over the scenario's mc_samples artificial-noise draws.

    ``signal_mw`` is the received signal power, ``leak_row`` the projected
    steering row the noise leaks through.  Draws come from a dedicated
    generator, so the value is bit-reproducible for a given seed.
    """
    draws = complex_normal(np.random.default_rng(seed), (scenario.mc_samples, scenario.na))
    return float(ber_from_snrs(_sinr(scenario, signal_mw, np.abs(draws @ leak_row) ** 2)).mean())


def ber_from_snrs(gammas: np.ndarray) -> np.ndarray:
    """ber_from_snr of every SNR in a 1-D array, bit for bit.

    The same expression, and sqrt is correctly rounded, so only the Q calls
    stay scalar.  Rejects negative and non-finite SNRs.
    """
    bad = ~(np.isfinite(gammas) & (gammas >= 0.0))
    if bad.any():
        raise ValueError(f"SNR must be non-negative and finite, got {float(gammas[bad][0])!r}")
    u = np.sqrt(2.0 * gammas) * math.sin(math.pi / 4)
    return np.fromiter(map(q_function, u.tolist()), float, len(u))
