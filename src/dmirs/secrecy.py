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

Both arrays are centred uniform linear arrays, so both inner products are
real Dirichlet kernels (cascaded_gain_closed): d = <h(phi), w_a> is the
transmitter's kernel in cos(phi) - cos(phi_b), divided by na, and the
reflect gain the IRS's in cos(theta) - cos(theta_b).  _eve_power takes both
from one kernel call, for one probe (secrecy_metrics) or a block of scenes
(secrecy_rates' proposed column; its no-IRS column needs only d, which it
takes from the steering rows it builds anyway).  The projector is (I -
w_a w_a^H)/sqrt(na - 1), so a probe's expected A is (1 - d^2)/(na - 1),
which _expected_leak sums as non-negative terms so that it keeps its
relative precision near the receiver's ray, and its leak row (h^H - d
w_a^H)/sqrt(na - 1): secrecy_metrics builds no projector, and in expected
mode no steering vector.  secrecy_rates still takes A from each scene's
projector row, so with the IRS the two routes differ only in A, by
round-off; the rate sweeps' per-scene projector is held in place by the
benchmark's work-count pins.
probe_block gives the numerator and the expected A of a heatmap block of
probes in one scene: per probe only the calls the same pins hold (three
steering vectors, two element_cycles rows), per block one array pass each
for the IRS phase sums, <g_t, g_t>, the direct terms and the leak rows.
Rates are log2(1+gamma) bits per channel use, the secrecy rate the clamped
difference.
"""

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .arrays import element_cycles, steering_rows, steering_vector
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
    numpy float).  It is also the direct path's array factor: with the
    transmitter's count, spacing and departure angles, it is na * <h(phi),
    w_a> for the steering vector w_a toward phi_b.  x is first reduced by
    its nearest multiple k*pi, so grating points keep relative precision:
    with x = k*pi + pi*r the value is (-1)**(k*(n_r-1)) *
    sin(n_r*pi*r)/sin(pi*r).  The removable singularities (r = 0) take their
    analytic value: the tuned direction gives n_r, grating points give n_r
    up to sign.  The magnitude exceeds n_r by at most rounding (an ulp at
    n_r = 3).
    """
    n_r = np.asarray(n_r)
    if n_r.min() < 1:
        raise ValueError(f"element count must be at least 1, got {n_r[n_r < 1].flat[0]}")
    scaled = spacing_wavelengths * (np.cos(theta_e) - np.cos(theta_b))
    k = np.rint(scaled)
    r = scaled - k  # exact: scaled and k are within a factor of two, or k is 0
    with np.errstate(invalid="ignore"):  # 0/0 at r = 0, replaced by the limit
        kernel = np.where(r == 0.0, n_r, np.sin(n_r * np.pi * r) / np.sin(np.pi * r))
    return np.where(np.fmod(k * (n_r - 1), 2.0), -kernel, kernel)[()]  # odd k*(n_r-1) flips the sign


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


def probe_block(scenario, bob: LinkBudget, w_a, projector, angles, count):
    """Signal powers in mW, expected-noise SINRs and noise-leak rows of ``count`` probes.

    ``angles`` yields the probes' (phi, theta) pairs; each probe has the
    path gains of ``bob``, to which the IRS is tuned.  A probe holds only its
    pinned calls: two steering vectors toward phi (direct term, leak row),
    g_t toward the IRS, and its IRS elements' cycles less the tuned ones.
    Per block, one exponential and one row-wise sum give the IRS phase sums
    and np.vecdot the direct terms, <g_t, g_t> and the leak rows h^H P, all
    row by row, so no value depends on the block split.  Amplitudes and
    signals are bit for bit tests/oracles.py::probe_amplitude's; the leak
    rows agree with its an_leak_row to tests/oracles.py::leak_row_tol, about
    6 eps an entry, and the SINRs to that bound carried through.
    """
    alice, irs = scenario.alice_array(), scenario.irs_array()
    phi_ar = angle_of(scenario.alice, scenario.irs)
    rows = np.empty((count, scenario.na), complex)
    leak = np.empty((count, 1, scenario.na), complex)
    g_t = np.empty((count, scenario.na), complex)
    cycles = np.empty((count, scenario.nr))
    for slot, (phi, theta) in enumerate(angles):
        rows[slot] = steering_vector(alice, phi)
        leak[slot, 0] = steering_vector(alice, phi)
        g_t[slot] = steering_vector(alice, phi_ar)
        np.subtract(element_cycles(irs, theta), element_cycles(irs, bob.theta), out=cycles[slot])
    phases = -2j * np.pi * cycles
    reflect = np.add.reduce(np.exp(phases, out=phases), axis=1)  # each row's IRS phase sum
    norms = np.vecdot(g_t, g_t)
    amplitudes = math.sqrt(bob.l_direct) * np.vecdot(rows, w_a) + math.sqrt(bob.l_reflect) * reflect * norms
    np.vecdot(leak, projector.T, out=rows)  # rows are now the leak rows h^H P
    signal = scenario.alpha * scenario.pt_mw * _amplitude_power(amplitudes)
    return signal, _sinr(scenario.alpha, scenario.noise_mw, scenario.pt_mw, signal, _leak_power(rows)), rows


def _amplitude_power(amplitudes):
    """Each complex amplitude's |a|^2, bit for bit abs(a) ** 2: hypot, then pow(x, 2)."""
    return np.float_power(np.hypot(amplitudes.real, amplitudes.imag), 2.0)


def _leak_power(leak_rows):
    """Each leak row's squared norm A, bit for bit np.linalg.norm(row) ** 2:
    the sum of the real and imaginary dot products, square-rooted and
    squared again by pow(x, 2)."""
    re, im = leak_rows.real, leak_rows.imag
    return np.float_power(np.sqrt(np.vecdot(re, re) + np.vecdot(im, im)), 2.0)


def _eve_power(angles, tuned, counts, spacings, l_direct, l_reflect):
    """An eve's |amplitude|^2 and its direct term d = <h(phi), w_a>, elementwise.

    Each argument's first axis runs over (transmitter, IRS): ``angles`` are
    the eve's (phi, theta), ``tuned`` the intended receiver's, ``counts``
    (na, nr) and ``spacings`` the two arrays' element spacings; any further
    axes run over scenes.  One cascaded_gain_closed call gives both terms: the
    direct-path array factor na * d and the reflect gain.  The amplitude is
    sqrt(l_direct) * d + sqrt(l_reflect) * gain, real since both arrays are
    centred.
    """
    direct, reflect = cascaded_gain_closed(angles, tuned, counts, spacings)
    d = direct / counts[0]
    amplitude = np.sqrt(l_direct) * d + np.sqrt(l_reflect) * reflect
    return amplitude * amplitude, d


def _expected_leak(na, offset):
    """A = (1 - d^2)/(na - 1) of a probe whose spacing-scaled cosine offset
    from the intended receiver is ``offset``, without cancellation.

    With y = pi * offset, d^2 = |sum_n e^(2jny)|^2 / na^2 and sum_{m=1}^{na-1}
    (na - m) = na(na - 1)/2 give 1 - d^2 = (4/na^2) * sum_{m=1}^{na-1} (na - m)
    * sin^2(m*y): non-negative terms, so A keeps its relative precision near
    the receiver's ray, where 1 - d^2 computed from d would keep only an ulp
    of 1.  Reducing ``offset`` by its nearest integer changes no sin^2(m*y).
    """
    m = np.arange(1, na)
    s = np.sin(m * (math.pi * (offset - round(offset))))
    return 4.0 * float(np.dot(na - m, s * s)) / (na * na * (na - 1))


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
    """Rates and BERs of the intended receiver and one probe, in closed form.

    The probe's amplitude comes from _eve_power, and its leak is exact
    without a projector matrix: the projector is (I - w_a w_a^H)/sqrt(na - 1),
    so the probe's leak row is (h^H - d w_a^H)/sqrt(na - 1) and its expected
    power A = (1 - d^2)/(na - 1), with d = <h(phi), w_a>, taken from
    _expected_leak.
    """
    bob = link_budget(scenario, scenario.bob)
    eve = link_budget(scenario, probe)
    na = scenario.na
    power, d = _eve_power(
        *np.array([
            [eve.phi, eve.theta],
            [bob.phi, bob.theta],
            [na, scenario.nr],
            [scenario.alice_spacing_wavelengths, scenario.irs_spacing_wavelengths],
        ]),
        eve.l_direct,
        eve.l_reflect,
    )
    d = float(d)
    signal = scenario.alpha * scenario.pt_mw * float(power)
    if scenario.an_mode == "instantaneous":
        w_a, h = steering_rows([scenario.alice_array()], np.array([[bob.phi, eve.phi]]))[0]
        z = complex_normal(np.random.default_rng(scenario.seed), (na,))
        an_power = abs(np.dot((h.conj() - d * w_a.conj()) / math.sqrt(na - 1), z)) ** 2
    else:
        an_power = _expected_leak(na, scenario.alice_spacing_wavelengths * (math.cos(eve.phi) - math.cos(bob.phi)))
    gamma_b = snr_bob(scenario, bob)
    gamma_e = float(_sinr(scenario.alpha, scenario.noise_mw, scenario.pt_mw, signal, an_power))
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


def secrecy_rates(scenes, pt_dbm_values, block):
    """Expected-noise secrecy rates of each scene at its own eve, with and
    without the IRS: a (2, n_scenes, n_powers) array, [0] the proposed
    column and [1] the no-IRS benchmark's, one rate per transmit power in dBm.

    Scenes, all of one na, are taken ``block`` (at least 1) at a time and
    evaluated in closed form (_scene_terms) once per column; the SNRs of
    every (scene, power) pair, their check and the rates [log2(1+gamma_b) -
    log2(1+gamma_e)]^+ then run once per column and block (_snrs), whatever
    the scene's pt_dbm and an_mode.  Against secrecy_metrics(replace(scene,
    pt_dbm=pt, an_mode="expected"), scene.eve), gamma_b is the same
    expression, bit for bit, and the eve's |amplitude|^2 the same
    _eve_power; gamma_e differs by round-off in A, which this takes from
    the scene's projector row and secrecy_metrics from _expected_leak.  The
    no-IRS column drops the reflect path everywhere, so its rates do not
    depend on nr; its d is the steering rows' inner product.  The powers
    must be valid pt_dbm values; no BER is computed.

    A ValueError from taking or setting up a scene is raised where it is
    met.  An SNR overflow is raised only after the last scene, so a bad
    scene anywhere wins over it: the first scene that overflows names it,
    its proposed column first, by the first power that causes it.
    """
    pt_mw = np.array([dbm_to_mw(pt) for pt in pt_dbm_values])
    scenes, blocks, overflow = iter(scenes), [np.empty((2, 0, len(pt_mw)))], None
    while batch := list(itertools.islice(scenes, block)):
        snrs, rates, fine = [], [], True
        for include_irs in (True, False):  # each column makes its own link_budget and an_projector calls (bench pins)
            terms = _scene_terms(batch, include_irs)
            with np.errstate(over="ignore", invalid="ignore"):  # inf and nan fail the mask
                gamma_b, gamma_e = _snrs(terms, pt_mw)
                rates.append(np.maximum(0.0, np.log2(1.0 + gamma_b) - np.log2(1.0 + gamma_e)))
            fine = fine & ((gamma_b <= MAX_SNR) & (gamma_e <= MAX_SNR)).all(axis=1)
            snrs.append((gamma_b, gamma_e))
        if overflow is None and not fine.all():
            slot = int(fine.argmin())
            overflow = batch[slot].noise_dbm, [(gamma_b[slot], gamma_e[slot]) for gamma_b, gamma_e in snrs]
        blocks.append(np.stack(rates))
    if overflow is not None:
        noise_dbm, snrs = overflow
        for gamma_b, gamma_e in snrs:
            for pt_dbm, g_b, g_e in zip(pt_dbm_values, gamma_b, gamma_e):
                check_snr(pt_dbm, noise_dbm, g_b, g_e)
    return np.concatenate(blocks, axis=1)


def _snrs(terms, pt_mw):
    """gamma_b and gamma_e of every (scene, power) pair, in secrecy_metrics'
    operation order, from _scene_terms' terms and the powers in mW."""
    alpha, noise_mw, bob_power, power, an_power = (t[:, np.newaxis] for t in terms)
    return alpha * pt_mw * bob_power / noise_mw, _sinr(alpha, noise_mw, pt_mw, alpha * pt_mw * power, an_power)


def _scene_terms(batch, include_irs):
    """The terms of the scenes in the non-empty list ``batch``, with or without the IRS.

    The terms are arrays over the scenes: alpha, the noise power in mW, the
    intended receiver's squared amplitude, and the eve's |amplitude|^2
    (_eve_power, or without the IRS sqrt(l_direct) * <h_e, w_a> from the
    steering rows) and leak-row squared norm A (_leak_power).  Per scene, only
    the two LinkBudget records and the noise projector are built; the
    steering rows toward both receivers, which the projector and the leak
    row read, are one exponential over the block, and the eve rows are
    conjugated once per block.  Each scene's leak row is one matmul of its
    conjugated eve row by its projector, written over its w_a row, which
    nothing reads after the projector.
    """
    records = []
    for scenario in batch:
        bob = link_budget(scenario, scenario.bob)
        eve = link_budget(scenario, scenario.eve)
        records.append((
            eve.phi, eve.theta, bob.phi, bob.theta,
            scenario.na, scenario.nr, scenario.alice_spacing_wavelengths, scenario.irs_spacing_wavelengths,
            eve.l_direct, eve.l_reflect, bob.l_direct, bob.l_reflect, scenario.alpha, scenario.noise_mw,
        ))
    columns = np.array(records, dtype=float).T
    angles, tuned, counts, spacings = columns[0:2], columns[2:4], columns[4:6], columns[6:8]
    l_direct_e, l_reflect_e, l_direct_b, l_reflect_b, alpha, noise_mw = columns[8:]
    # rows[i] holds scene i's steering vectors toward its receiver (w_a) and its eve (h_e)
    rows = steering_rows([scenario.alice_array() for scenario in batch], np.stack([tuned[0], angles[0]], axis=1))
    if include_irs:
        power, _ = _eve_power(angles, tuned, counts, spacings, l_direct_e, l_reflect_e)
        bob_power = np.float_power(np.sqrt(l_direct_b) + np.sqrt(l_reflect_b) * counts[1], 2.0)  # pow, as in snr_bob
    else:  # the direct term alone: <h_e, w_a> from the rows, cheaper than a kernel call
        power = _amplitude_power(np.sqrt(l_direct_e) * np.vecdot(rows[:, 1], rows[:, 0]))
        bob_power = l_direct_b
    for w_a, h_e_conj in zip(rows[:, 0], rows[:, 1].conj()):
        np.matmul(h_e_conj, an_projector(w_a), out=w_a)
    return alpha, noise_mw, bob_power, power, _leak_power(rows[:, 0])


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
