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
heatmap block of probes in one scene, summing the IRS's nr phase terms.
secrecy_rates gives a rate sweep's rates for a block of scenes at a time,
each probed at its own eve, in closed form: one steering exponential per
block for both receivers, the reflect gain as the Dirichlet kernel of
cascaded_gain_closed, and a projector per scene for A; it scales the
Pt-free terms to every power in one array pass.  Rates are log2(1+gamma)
bits per channel use, the secrecy rate the clamped difference.
"""

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .arrays import ArraySpec, irs_phase_diagonal, steering_rows, steering_vector
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


def cascaded_gain_closed(theta_e, theta_b, n_r, spacing_wavelengths=0.5):
    """Reflect-path gain as a Dirichlet kernel in the deflection-cosine offset.

    Returns sin(n_r*x)/sin(x) with x = pi * spacing * (cos(theta_e) -
    cos(theta_b)), elementwise over the broadcast arguments (scalars give a
    numpy float).  x is first reduced by its nearest multiple k*pi, so
    grating points keep relative precision: with x = k*pi + pi*r the value
    is (-1)**(k*(n_r-1)) * sin(n_r*pi*r)/sin(pi*r).  The removable
    singularities (r = 0) take their analytic value: the tuned direction
    gives n_r, grating points give n_r up to sign.  The magnitude never
    exceeds n_r.
    """
    n_r = np.asarray(n_r)
    if (n_r < 1).any():
        raise ValueError(f"element count must be at least 1, got {n_r[n_r < 1].flat[0]}")
    scaled = spacing_wavelengths * (np.cos(theta_e) - np.cos(theta_b))
    k = np.rint(scaled)
    r = scaled - k  # exact: scaled and k are within a factor of two, or k is 0
    sign = 1.0 - 2.0 * (np.abs(k) * (n_r - 1) % 2)
    with np.errstate(invalid="ignore"):  # 0/0 at r = 0, replaced by the limit
        kernel = np.where(r == 0.0, n_r, np.sin(n_r * np.pi * r) / np.sin(np.pi * r))
    return (sign * kernel)[()]


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
    """SNR of the intended receiver ``bob`` with the IRS tuned to it: both
    beams, the tuned IRS adding a factor of N_r."""
    power = (math.sqrt(bob.l_direct) + math.sqrt(bob.l_reflect) * scenario.nr) ** 2
    return scenario.alpha * scenario.pt_mw * power / scenario.noise_mw


def probe_amplitude(scenario, bob: LinkBudget, probe: LinkBudget, w_a) -> complex:
    """Coherent amplitude reaching ``probe`` over the direct beam ``w_a`` and the IRS
    beam, the steering vector g_t toward the IRS, with the IRS tuned to ``bob``."""
    alice = scenario.alice_array()
    h_ae = steering_vector(alice, probe.phi)
    g_t = steering_vector(alice, angle_of(scenario.alice, scenario.irs))
    phase_sum = irs_phase_diagonal(scenario.irs_array(), probe.theta, bob.theta).sum()
    direct = math.sqrt(probe.l_direct) * np.vdot(h_ae, w_a)
    return complex(direct + math.sqrt(probe.l_reflect) * phase_sum * np.vdot(g_t, g_t))


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

    Scenes, all of one na, are taken ``block`` (at least 1) at a time and
    evaluated in closed form (_scene_terms); the SNRs of every (scene,
    power) pair, their check and the rates [log2(1+gamma_b) -
    log2(1+gamma_e)]^+ then run once per block (_snrs), whatever the
    scene's pt_dbm and an_mode.  Against secrecy_metrics(replace(scene,
    pt_dbm=pt, an_mode="expected"), scene.eve), gamma_b is the same
    expression, bit for bit; gamma_e differs by round-off, since
    secrecy_metrics sums the IRS's nr phase terms and multiplies by
    <g_t, g_t>, which is 1, where this takes the Dirichlet kernel.
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
            with np.errstate(over="ignore", invalid="ignore"):  # inf and nan fail the check below
                gamma_b, gamma_e = _snrs(terms, pt_mw)
                rates = np.maximum(0.0, np.log2(1.0 + gamma_b) - np.log2(1.0 + gamma_e))
            fine = ((gamma_b <= MAX_SNR) & (gamma_e <= MAX_SNR)).all(axis=1).tolist()
            for scenario, ok, gammas_b, gammas_e, row in zip(batch, fine, gamma_b, gamma_e, rates.tolist()):
                if not ok:
                    for pt_dbm, g_b, g_e in zip(pt_dbm_values, gammas_b, gammas_e):
                        check_snr(pt_dbm, scenario.noise_dbm, g_b, g_e)
                yield row
        if fault is not None:
            raise fault
        if len(batch) < block:
            return


def _snrs(terms, pt_mw):
    """gamma_b and gamma_e of every (scene, power) pair, in secrecy_metrics'
    operation order, from _scene_terms' terms and the powers in mW."""
    alpha, noise_mw, bob_power, power, an_power = (t[:, np.newaxis] for t in terms)
    return alpha * pt_mw * bob_power / noise_mw, _sinr(alpha, noise_mw, pt_mw, alpha * pt_mw * power, an_power)


def _scene_terms(scenes, block, include_irs):
    """The next ``block`` scenes of the iterator ``scenes``, their terms and a fault.

    The terms are arrays over the scenes: alpha, the noise power in mW, the
    intended receiver's squared amplitude, and the eve's |amplitude|^2 and
    leak-row squared norm A (_squared_terms).  Per scene, only the two
    LinkBudget records and the noise projector are built; the steering
    rows toward both receivers are one exponential over the block, the
    eve's amplitude sqrt(l_direct)*<h_e, w_a> + sqrt(l_reflect)*gain with
    the Dirichlet gain of cascaded_gain_closed.  A ValueError from taking or
    setting up a scene ends the block before that scene and is returned as
    the fault, for the caller to raise after the scenes before it.  The
    block is taken whole before any set-up, which measured faster than
    building each scene between two set-ups.
    """
    batch, fault = [], None
    try:
        for scenario in itertools.islice(scenes, block):
            batch.append(scenario)
    except ValueError as error:
        fault = error
    records = []
    for slot, scenario in enumerate(batch):
        try:
            bob = link_budget(scenario, scenario.bob)
            eve = link_budget(scenario, scenario.eve)
        except ValueError as error:
            del batch[slot:]
            fault = error
            break
        records.append((
            scenario.alpha, scenario.noise_mw, scenario.nr, scenario.irs_spacing_wavelengths,
            bob.phi, bob.theta, bob.l_direct, bob.l_reflect,
            eve.phi, eve.theta, eve.l_direct, eve.l_reflect,
        ))
    if not batch:
        return batch, (), fault
    columns = np.array(records).T
    alpha, noise_mw, nr, irs_spacing = columns[:4]
    phi_b, theta_b, l_direct_b, l_reflect_b = columns[4:8]
    phi_e, theta_e, l_direct_e, l_reflect_e = columns[8:]
    # rows[i] holds scene i's steering vectors toward its receiver (w_a) and its eve (h_e)
    rows = steering_rows([scenario.alice_array() for scenario in batch], np.stack([phi_b, phi_e], axis=1))
    amplitudes = np.sqrt(l_direct_e) * np.vecdot(rows[:, 1], rows[:, 0])
    bob_power = l_direct_b
    if include_irs:
        amplitudes += np.sqrt(l_reflect_e) * cascaded_gain_closed(theta_e, theta_b, nr, irs_spacing)
        bob_power = np.float_power(np.sqrt(l_direct_b) + np.sqrt(l_reflect_b) * nr, 2.0)  # pow, as in snr_bob
    for w_a, h_e in rows:
        w_a[...] = h_e.conj() @ an_projector(w_a)  # only the projector reads w_a; its slot takes the leak row
    power, an_power = _squared_terms(amplitudes, rows[:, 0])
    return batch, (alpha, noise_mw, bob_power, power, an_power), fault


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
