"""Performance formulas: SNR, SINR, BER, rates, and the secrecy rate.

Each receiver is a geometry.LinkBudget.  Both beams are steering vectors, w_a
at the intended receiver's phi; with the IRS tuned to its theta, its SNR is

    gamma_b = alpha * Pt * |sqrt(l_direct) + sqrt(l_reflect) * N_r|^2 / noise,

since the tuned IRS contributes a factor of exactly N_r (one unit of gain
per element).  A probe with record (phi, theta, l_direct, l_reflect) sees
the direct beam through the steering inner product <h(phi), w_a>, the
reflect beam through a Dirichlet-kernel gain in the offset of cos(theta)
from the tuned one, and additionally absorbs artificial noise:

    gamma_e = alpha * Pt * |sqrt(l_direct)*<h(phi), w_a> + sqrt(l_reflect)*gain|^2
              / ((1-alpha) * Pt * A + noise)

where A is the squared norm of the probe's steering row through the noise
projector (``expected`` mode) or the squared magnitude of one projected
noise draw (``instantaneous`` mode), as the scenario's an_mode says.
probe_block gives the numerator and the expected A of one probe or of a
heatmap block of probes in one scene.  secrecy_rates gives a rate sweep's
rates for a block of scenes at a time, each probed at its own eve: it
takes the same Pt-free terms, |amplitude|^2 and A, through the same
expressions (_squared_terms) and scales them to every power in one array
pass.  Rates are log2(1+gamma) bits per channel use, the secrecy rate the
clamped difference.
"""

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .arrays import ArraySpec, irs_phase_diagonal, steering_vector
from .geometry import LinkBudget, angle_of, link_budget
from .numerics import dbm_to_mw, q_function
from .transmitter import an_projector, complex_normal

AN_MODES = ("expected", "instantaneous")
# ber_from_snrs doubles the SNR, so half the float range is the largest it takes
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


def check_snr(pt_dbm, noise_dbm, *gammas) -> None:
    """Reject SNRs beyond MAX_SNR, naming the power levels in dBm that produced them."""
    if not all(g <= MAX_SNR for g in gammas):
        raise ValueError(
            f"pt_dbm = {pt_dbm!r} and noise_dbm = {noise_dbm!r} give an SNR "
            "too large to evaluate; lower pt_dbm or raise noise_dbm"
        )


def snr_bob(scenario, bob: LinkBudget) -> float:
    """SNR of the intended receiver ``bob`` with the IRS tuned to it."""
    return scenario.alpha * scenario.pt_mw * _bob_power(scenario, bob, True) / scenario.noise_mw


def _bob_power(scenario, bob: LinkBudget, include_irs) -> float:
    """Squared amplitude reaching ``bob``: both beams, the tuned IRS adding a
    factor of N_r, or with ``include_irs=False`` the direct beam alone."""
    if not include_irs:
        return bob.l_direct
    return (math.sqrt(bob.l_direct) + math.sqrt(bob.l_reflect) * scenario.nr) ** 2


def probe_amplitude(scenario, bob: LinkBudget, probe: LinkBudget, w_a, include_irs=True) -> complex:
    """Coherent amplitude reaching ``probe`` over the direct beam ``w_a`` and the IRS
    beam, the steering vector g_t toward the IRS, with the IRS tuned to ``bob``."""
    alice = scenario.alice_array()
    h_ae = steering_vector(alice, probe.phi)
    amplitude = math.sqrt(probe.l_direct) * np.vdot(h_ae, w_a)
    if include_irs:
        irs = scenario.irs_array()
        g_t = steering_vector(alice, angle_of(scenario.alice, scenario.irs))
        phase_sum = irs_phase_diagonal(irs, probe.theta, bob.theta).sum()
        amplitude = amplitude + math.sqrt(probe.l_reflect) * phase_sum * np.vdot(g_t, g_t)
    return complex(amplitude)


def an_leak_row(probe: LinkBudget, alice: ArraySpec, projector: np.ndarray) -> np.ndarray:
    """Probe steering row propagated through the noise projector."""
    h_ae = steering_vector(alice, probe.phi)
    return h_ae.conj() @ projector


def probe_block(scenario, bob: LinkBudget, w_a, projector, cells, count):
    """Signal powers in mW, expected-noise SINRs and noise-leak rows of ``count`` probes.

    ``cells`` yields the probes' LinkBudget records, the direct beam is ``w_a``
    and the IRS is tuned to ``bob``.  Bit for bit the Python-float route
    alpha * Pt * abs(amplitude) ** 2 over (1 - alpha) * Pt *
    np.linalg.norm(row) ** 2 + noise (see _squared_terms).
    """
    alice = scenario.alice_array()
    amplitudes = np.empty(count, complex)
    leak_rows = np.empty((count, scenario.na), complex)
    for slot, cell in enumerate(cells):
        amplitudes[slot] = probe_amplitude(scenario, bob, cell, w_a)
        leak_rows[slot] = an_leak_row(cell, alice, projector)
    power, an_power = _squared_terms(amplitudes, leak_rows)
    signal = scenario.alpha * scenario.pt_mw * power
    return signal, _sinr(scenario.alpha, scenario.noise_mw, scenario.pt_mw, signal, an_power), leak_rows


def _squared_terms(amplitudes, leak_rows):
    """Each probe's |amplitude|^2 and its leak row's squared norm A, the
    terms of a probe's SINR that do not depend on the transmit power.

    Bit for bit the Python floats abs(amplitude) ** 2 and
    np.linalg.norm(row) ** 2: magnitudes are hypot, squares are pow(x, 2),
    and a row's squared norm is np.linalg.norm's sum of real and imaginary
    dot products, square-rooted and squared again.
    """
    power = np.float_power(np.hypot(amplitudes.real, amplitudes.imag), 2.0)
    re, im = leak_rows.real, leak_rows.imag
    an_power = np.float_power(np.sqrt(np.vecdot(re, re) + np.vecdot(im, im)), 2.0)
    return power, an_power


def _sinr(alpha, noise_mw, pt_mw, signal_mw, an_power):
    """signal / (leaked noise + thermal noise) at ``pt_mw``; elementwise over arrays."""
    return signal_mw / ((1.0 - alpha) * pt_mw * an_power + noise_mw)


def probe_setup(scenario):
    """The intended receiver's budget, the direct beam w_a (the steering
    vector toward that receiver, which the noise avoids) and the noise projector."""
    bob = link_budget(scenario, scenario.bob)
    w_a = steering_vector(scenario.alice_array(), bob.phi)
    return bob, w_a, an_projector(w_a)


def secrecy_metrics(scenario, probe) -> SecrecyMetrics:
    """Full pipeline from scene geometry to rates and BERs for one probe."""
    bob, w_a, projector = probe_setup(scenario)
    cells = (link_budget(scenario, probe),)
    signal, gammas, rows = probe_block(scenario, bob, w_a, projector, cells, 1)
    gamma_b = snr_bob(scenario, bob)
    gamma_e = float(gammas[0])
    if scenario.an_mode == "instantaneous":
        z = complex_normal(np.random.default_rng(scenario.seed), (scenario.na,))
        an_power = abs(np.dot(rows[0], z)) ** 2
        gamma_e = float(_sinr(scenario.alpha, scenario.noise_mw, scenario.pt_mw, signal[0], an_power))
    check_snr(scenario.pt_dbm, scenario.noise_dbm, gamma_b, gamma_e)
    ber_b, ber_probe = ber_from_snrs(np.array([gamma_b, gamma_e])).tolist()
    return SecrecyMetrics(
        gamma_b=gamma_b,
        gamma_e=gamma_e,
        rate_b=rate_bits(gamma_b),
        rate_e=rate_bits(gamma_e),
        rate_s=secrecy_rate(gamma_b, gamma_e),
        ber_b=ber_b,
        ber_probe=ber_probe,
    )


def secrecy_rates(scenes, pt_dbm_values, include_irs, block):
    """Expected-noise secrecy rates of each scene at its own eve: yields one
    list per scene, one rate per transmit power in dBm.

    Scenes, all of one na, are taken ``block`` (at least 1) at a time.
    Each gets one probe_setup, one LinkBudget for its eve, one
    probe_amplitude and one an_leak_row, written into block arrays; the
    power-free terms, the SNRs of every (scene, power) pair and their check
    then run once per block, in secrecy_metrics' operation order, so a rate equals
    secrecy_metrics(replace(scene, pt_dbm=pt, an_mode="expected"),
    scene.eve).rate_s with ==, whatever the scene's pt_dbm and an_mode.
    ``include_irs=False`` drops the reflect path everywhere, for the no-IRS
    benchmark, whose rates do not depend on nr.  The powers must be valid
    pt_dbm values; no BER is computed.

    Faults surface as in a pass scene by scene: a scene's SNR overflow,
    named by the first power that causes it, when its list is due, and a
    ValueError from taking or setting up a scene after the lists of the
    scenes before it.
    """
    pt_mw = np.array([dbm_to_mw(pt) for pt in pt_dbm_values])
    scenes = iter(scenes)
    while True:
        batch, terms, fault = _scene_terms(scenes, block, include_irs)
        if batch:
            alpha, noise_mw, bob_power, power, an_power = (t[:, np.newaxis] for t in terms)
            with np.errstate(over="ignore", invalid="ignore"):  # inf and nan as Python floats give them
                gamma_b = alpha * pt_mw * bob_power / noise_mw
                gamma_e = _sinr(alpha, noise_mw, pt_mw, alpha * pt_mw * power, an_power)
            fine = ((gamma_b <= MAX_SNR) & (gamma_e <= MAX_SNR)).all(axis=1).tolist()
            for scenario, ok, gammas_b, gammas_e in zip(batch, fine, gamma_b.tolist(), gamma_e.tolist()):
                if not ok:
                    for pt_dbm, g_b, g_e in zip(pt_dbm_values, gammas_b, gammas_e):
                        check_snr(pt_dbm, scenario.noise_dbm, g_b, g_e)
                yield list(map(secrecy_rate, gammas_b, gammas_e))
        if fault is not None:
            raise fault
        if len(batch) < block:
            return


def _scene_terms(scenes, block, include_irs):
    """The next ``block`` scenes of the iterator ``scenes``, their terms and a fault.

    The terms are arrays over the scenes: alpha, the noise power in mW, the
    intended receiver's squared amplitude (_bob_power), and the eve's
    |amplitude|^2 and leak-row squared norm (_squared_terms).  A ValueError
    from taking or setting up a scene ends the block before that scene and
    is returned as the fault, for the caller to raise after the scenes
    before it.  The block is taken whole before any set-up, which measured
    faster than building each scene between two set-ups.
    """
    batch, fault = [], None
    try:
        for scenario in itertools.islice(scenes, block):
            batch.append(scenario)
    except ValueError as error:
        fault = error
    if not batch:
        return batch, (), fault
    scalars = []
    amplitudes = np.empty(block, complex)
    leak_rows = np.empty((block, batch[0].na), complex)
    for slot, scenario in enumerate(batch):
        try:
            bob, w_a, projector = probe_setup(scenario)
            eve = link_budget(scenario, scenario.eve)
        except ValueError as error:
            del batch[slot:]
            fault = error
            break
        amplitudes[slot] = probe_amplitude(scenario, bob, eve, w_a, include_irs)
        leak_rows[slot] = an_leak_row(eve, scenario.alice_array(), projector)
        scalars.append((scenario.alpha, scenario.noise_mw, _bob_power(scenario, bob, include_irs)))
    count = len(batch)
    terms = (*np.array(scalars).reshape(count, 3).T, *_squared_terms(amplitudes[:count], leak_rows[:count]))
    return batch, terms, fault


def mc_mean_ber(scenario, signal_mw: float, leak_row: np.ndarray, seed) -> float:
    """Average QPSK BER over the scenario's mc_samples artificial-noise draws.

    ``signal_mw`` is the received signal power, ``leak_row`` the projected
    steering row the noise leaks through.  Draws come from a dedicated
    generator, so the value is bit-reproducible for a given seed.
    """
    draws = complex_normal(np.random.default_rng(seed), (scenario.mc_samples, scenario.na))
    an_power = np.abs(draws @ leak_row) ** 2
    gammas = _sinr(scenario.alpha, scenario.noise_mw, scenario.pt_mw, signal_mw, an_power)
    return float(ber_from_snrs(gammas).mean())


def ber_from_snrs(gammas: np.ndarray) -> np.ndarray:
    """Bit error rate of Gray-coded QPSK, Q(sqrt(gamma)), at every linear SNR
    in a 1-D array.

    Evaluated as the M-PSK form (2/log2(M)) * Q(sqrt(2*gamma) * sin(pi/M))
    at M = 4, whose leading factor is exactly 1; sqrt is correctly rounded,
    so only the Q calls stay scalar.  Rejects negative and non-finite SNRs.
    """
    bad = ~(np.isfinite(gammas) & (gammas >= 0.0))
    if bad.any():
        raise ValueError(f"SNR must be non-negative and finite, got {float(gammas[bad][0])!r}")
    u = np.sqrt(2.0 * gammas) * math.sin(math.pi / 4)
    return np.fromiter(map(q_function, u.tolist()), float, len(u))
