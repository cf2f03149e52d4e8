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
real Dirichlet kernels: d = <h(phi), w_a> is the transmitter's kernel in
cos(phi) - cos(phi_b), divided by na, and the reflect gain the IRS's in
cos(theta) - cos(theta_b).  _eve_amplitude takes both from _dirichlet on
plain floats for one probe (secrecy_metrics) and for each scene of the rate
sweeps (secrecy_rates; the no-IRS benchmark is the same link with a zero
reflect gain).  The projector P = (I - w_a w_a^H)/sqrt(na - 1) is rank one
off the identity, so a probe's leak row is h^H P = (h^H - d w_a^H)/sqrt(na
- 1) and its expected A = (1 - d^2)/(na - 1).  The routes take the leak so:
  * metrics, expected: A as a sum of non-negative terms (_expected_leak),
    precise near the receiver's ray, on plain floats, so such a process
    never imports numpy (np is numerics.LazyNumpy until an array call);
  * metrics, instantaneous, and the heatmap (probe_block): the closed-form
    row (_leak_rows), O(na) a probe and no projector;
  * the rate sweeps: each scene's na-by-na projector row, held per scene
    and column by the benchmark's work-count pins; so the sweeps and
    secrecy_metrics differ only in A, by round-off.
Rates are log2(1+gamma) bits per channel use, taken as log1p(gamma)/ln 2 so
that a small gamma keeps its relative precision, the secrecy rate the
clamped difference.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

from .arrays import element_cycles, steering_rows, steering_vector
from .geometry import LinkBudget, angle_of, link_budget
from .numerics import LazyNumpy, dbm_to_mw, q_function
from .transmitter import an_projector, complex_normal

np = LazyNumpy(globals())  # numpy itself from the first array call on
AN_MODES = ("expected", "instantaneous")
# ber_from_snrs doubles the SNR, so half the float range is the largest it takes
MAX_SNR = sys.float_info.max / 2.0
_SIN_PI_4 = math.sin(math.pi / 4)
_LN_2 = math.log(2.0)


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


def _dirichlet(offset, n):
    """The real Dirichlet kernel of ``n`` centred elements on one float.

    With the spacing-scaled cosine offset less its nearest integer k as r,
    the value is sin(n*pi*r)/sin(pi*r) with the sign (-1)**(k*(n-1)), so
    grating points keep relative precision; the removable singularity r = 0
    takes its limit n, so the tuned direction gives n and grating points n
    up to sign.  It is n * <h(phi), w_a> for the transmitter's steering
    vectors and the reflect gain for the IRS's elements."""
    k = round(offset)
    r = offset - k
    kernel = math.sin(n * math.pi * r) / math.sin(math.pi * r) if r else float(n)
    return -kernel if k * (n - 1) % 2 else kernel


def _eve_amplitude(scenario, bob, eve, reflect=True):
    """An eve's real amplitude sqrt(l_direct) * d + sqrt(l_reflect) * gain on
    plain floats, with the transmitter's spacing-scaled cosine offset from
    ``bob`` and d = <h(phi), w_a>, its _dirichlet over na.  The gain is the
    IRS's _dirichlet at its own offset; without ``reflect`` (the no-IRS
    benchmark) it is 0 and not computed."""
    offset = scenario.alice_spacing_wavelengths * (math.cos(eve.phi) - math.cos(bob.phi))
    d = _dirichlet(offset, scenario.na) / scenario.na
    amplitude = math.sqrt(eve.l_direct) * d
    if reflect:
        gain = _dirichlet(scenario.irs_spacing_wavelengths * (math.cos(eve.theta) - math.cos(bob.theta)), scenario.nr)
        amplitude += math.sqrt(eve.l_reflect) * gain
    return amplitude, offset, d


def rate_bits(gamma: float) -> float:
    """Achievable rate log2(1 + gamma) in bits per channel use, as log1p(gamma)/ln 2:
    rounding 1 + gamma first would keep only about 1e-16/gamma of a small rate."""
    if gamma < 0.0:
        raise ValueError(f"SNR must be non-negative, got {gamma!r}")
    return math.log1p(gamma) / _LN_2


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


def probe_block(scenario, bob: LinkBudget, w_a, angles, count):
    """Signal powers in mW, expected-noise SINRs and noise-leak rows of ``count`` probes.

    ``angles`` yields the probes' (phi, theta) pairs; each probe has the
    path gains of ``bob``, to which the IRS is tuned.  A probe holds only its
    pinned calls: two steering vectors toward phi (direct term, leak row),
    g_t toward the IRS, and its IRS elements' cycles less the tuned ones.
    Per block, one exponential and one row-wise sum give the IRS phase sums
    and np.vecdot <g_t, g_t> and the direct terms d, all row by row, so no
    value depends on the block split; _leak_rows takes each d to its leak
    row.  Amplitudes and signals are bit for bit oracles.probe_amplitude's;
    the leak rows agree with the textbook h^H P to oracles.leak_row_tol, a
    few eps an entry, and the SINRs to that bound carried through.
    """
    alice, irs = scenario.alice_array(), scenario.irs_array()
    phi_ar = angle_of(scenario.alice, scenario.irs)
    rows = np.empty((count, scenario.na), complex)
    leak = np.empty((count, scenario.na), complex)
    g_t = np.empty((count, scenario.na), complex)
    cycles = np.empty((count, scenario.nr))
    for slot, (phi, theta) in enumerate(angles):
        rows[slot] = steering_vector(alice, phi)
        leak[slot] = steering_vector(alice, phi)
        g_t[slot] = steering_vector(alice, phi_ar)
        np.subtract(element_cycles(irs, theta), element_cycles(irs, bob.theta), out=cycles[slot])
    phases = -2j * np.pi * cycles
    reflect = np.add.reduce(np.exp(phases, out=phases), axis=1)  # each row's IRS phase sum
    norms = np.vecdot(g_t, g_t)
    d = np.vecdot(rows, w_a)
    amplitudes = math.sqrt(bob.l_direct) * d + math.sqrt(bob.l_reflect) * reflect * norms
    rows = _leak_rows(leak, d[:, np.newaxis], w_a, out=rows)
    signal = scenario.alpha * scenario.pt_mw * _amplitude_power(amplitudes)
    return signal, _sinr(scenario.alpha, scenario.noise_mw, scenario.pt_mw, signal, _leak_power(rows)), rows


def _leak_rows(h, d, w_a, out=None):
    """Leak rows h^H P = (h^H - d w_a^H)/sqrt(na - 1) of the steering rows
    ``h`` (last axis) with their d = <h, w_a>, O(na) a row and no projector.
    Conjugates ``h`` in place; the rows go to ``out`` (new if None)."""
    out = np.multiply(d, w_a.conj(), out=out)
    np.subtract(np.conjugate(h, out=h), out, out=out)
    return np.divide(out, math.sqrt(len(w_a) - 1), out=out)


def _amplitude_power(amplitudes):
    """Each complex amplitude's |a|^2, bit for bit abs(a) ** 2: hypot, then pow(x, 2)."""
    return np.float_power(np.hypot(amplitudes.real, amplitudes.imag), 2.0)


def _leak_power(leak_rows):
    """Each leak row's squared norm A, bit for bit np.linalg.norm(row) ** 2:
    the sum of the real and imaginary dot products, square-rooted and
    squared again by pow(x, 2)."""
    re, im = leak_rows.real, leak_rows.imag
    return np.float_power(np.sqrt(np.vecdot(re, re) + np.vecdot(im, im)), 2.0)


def _expected_leak(na, offset):
    """A = (1 - d^2)/(na - 1) of a probe whose spacing-scaled cosine offset
    from the intended receiver is ``offset``, without cancellation.

    With y = pi * offset, d^2 = |sum_n e^(2jny)|^2 / na^2 and sum_{m=1}^{na-1}
    (na - m) = na(na - 1)/2 give 1 - d^2 = (4/na^2) * sum_{m=1}^{na-1} (na - m)
    * sin^2(m*y): non-negative terms, so A keeps its relative precision near
    the receiver's ray, where 1 - d^2 computed from d would keep only an ulp
    of 1.  Reducing ``offset`` by its nearest integer changes no sin^2(m*y).
    math.fsum sums them, correctly rounded (tests/oracles.py::expected_leak_numpy: numpy's dot).
    """
    y = math.pi * (offset - round(offset))
    terms = ((na - m) * (s * s) for m in range(1, na) for s in [math.sin(m * y)])
    return 4.0 * math.fsum(terms) / (na * na * (na - 1))


def _sinr(alpha, noise_mw, pt_mw, signal_mw, an_power):
    """signal / (leaked noise + thermal noise) at ``pt_mw``; elementwise over arrays."""
    return signal_mw / ((1.0 - alpha) * pt_mw * an_power + noise_mw)


def probe_setup(scenario):
    """The intended receiver's budget and the direct beam w_a, the steering
    vector toward that receiver, which the noise avoids."""
    bob = link_budget(scenario, scenario.bob)
    return bob, steering_vector(scenario.alice_array(), bob.phi)


def secrecy_metrics(scenario, probe) -> SecrecyMetrics:
    """Rates and BERs of the intended receiver and one probe, in closed form.

    On plain floats, since a cold numpy call costs microseconds and
    importing numpy about 90 ms: the amplitude and d = <h(phi), w_a> from
    _eve_amplitude, as the rate sweeps take them, ber_from_snrs' BER as one
    q_function call each, and the expected leak from _expected_leak.  Only
    instantaneous mode, one noise draw through _leak_rows' row, uses numpy.
    """
    bob = link_budget(scenario, scenario.bob)
    eve = link_budget(scenario, probe)
    amplitude, offset, d = _eve_amplitude(scenario, bob, eve)
    signal = scenario.alpha * scenario.pt_mw * (amplitude * amplitude)
    if scenario.an_mode == "instantaneous":
        w_a, h = steering_rows([scenario.alice_array()], np.array([[bob.phi, eve.phi]]))[0]
        z = complex_normal(np.random.default_rng(scenario.seed), (scenario.na,))
        an_power = abs(np.dot(_leak_rows(h, d, w_a), z)) ** 2
    else:
        an_power = _expected_leak(scenario.na, offset)
    gamma_b = snr_bob(scenario, bob)
    gamma_e = float(_sinr(scenario.alpha, scenario.noise_mw, scenario.pt_mw, signal, an_power))
    check_snr(scenario.pt_dbm, scenario.noise_dbm, gamma_b, gamma_e)
    ber_b, ber_probe = (q_function(math.sqrt(2.0 * gamma) * _SIN_PI_4) for gamma in (gamma_b, gamma_e))
    rate_b, rate_e = rate_bits(gamma_b), rate_bits(gamma_e)
    return SecrecyMetrics(gamma_b, gamma_e, rate_b, rate_e, max(0.0, rate_b - rate_e), ber_b, ber_probe)


def secrecy_rates(scenes, pt_dbm_values, block):
    """Expected-noise secrecy rates of each scene at its own eve, with and
    without the IRS: a (2, n_scenes, n_powers) array, [0] the proposed
    column and [1] the no-IRS benchmark's, one rate per transmit power in dBm.

    Scenes, all of one na, are taken ``block`` (at least 1) at a time; each
    block's (column, scene) pairs are evaluated in closed form together
    (_scene_terms), and the SNRs of every (column, scene, power) triple,
    their check and the rates [log2(1+gamma_b) - log2(1+gamma_e)]^+ are one
    array pass per block (_snrs), whatever the scene's pt_dbm and an_mode.
    Against secrecy_metrics(replace(scene, pt_dbm=pt, an_mode="expected"),
    scene.eve), gamma_b is the same expression, bit for bit, and the eve's
    amplitude the same _eve_amplitude; gamma_e differs by round-off in A,
    which this takes from the scene's projector row and secrecy_metrics
    from _expected_leak.  The no-IRS column is the same link with a zero
    reflect path, so its rates do not depend on nr.  The powers must be
    valid pt_dbm values; no BER is computed.

    A ValueError from taking or setting up a scene is raised where it is
    met.  An SNR overflow is raised only after the last scene, so a bad
    scene anywhere wins over it: the first scene that overflows names it,
    its proposed column first, by the first power that causes it.
    """
    pt_mw = np.array([dbm_to_mw(pt) for pt in pt_dbm_values])
    scenes, blocks, overflow = iter(scenes), [np.empty((2, 0, len(pt_mw)))], None
    while batch := list(itertools.islice(scenes, block)):
        terms = _scene_terms(batch)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan fail the mask
            gamma_b, gamma_e = _snrs(terms, pt_mw)
            blocks.append(np.maximum(0.0, np.log1p(gamma_b) / _LN_2 - np.log1p(gamma_e) / _LN_2))
        fine = ((gamma_b <= MAX_SNR) & (gamma_e <= MAX_SNR)).all(axis=(0, 2))
        if overflow is None and not fine.all():
            slot = int(fine.argmin())
            overflow = batch[slot].noise_dbm, gamma_b[:, slot], gamma_e[:, slot]
    if overflow is not None:
        noise_dbm, gamma_b, gamma_e = overflow
        for pt_dbm, g_b, g_e in zip(itertools.cycle(pt_dbm_values), gamma_b.flat, gamma_e.flat):
            check_snr(pt_dbm, noise_dbm, g_b, g_e)
    return np.concatenate(blocks, axis=1)


def _snrs(terms, pt_mw):
    """gamma_b and gamma_e of every (column, scene, power) triple, in
    secrecy_metrics' operation order, from _scene_terms' terms and the
    powers in mW."""
    alpha, noise_mw, bob_power, power, an_power = (t[..., np.newaxis] for t in terms)
    return alpha * pt_mw * bob_power / noise_mw, _sinr(alpha, noise_mw, pt_mw, alpha * pt_mw * power, an_power)


def _scene_terms(batch):
    """The terms of the scenes in the non-empty list ``batch``, with and without the IRS.

    The terms are (2, len(batch)) arrays, [0] the proposed column and [1]
    the no-IRS one: alpha, the noise power in mW, the intended receiver's
    squared amplitude, and the eve's |amplitude|^2 (_eve_amplitude) and
    leak-row squared norm A (_leak_power).  Each (column, scene) pair makes
    its own two LinkBudget records and noise projector; a no-IRS pair's eve
    amplitude has no reflect term, and its receiver's squared amplitude is
    the direct gain alone.  The steering rows of every pair toward both receivers,
    which the projector and the leak row read, are one exponential over
    the block, and the eve rows are conjugated once per block.  Each pair's
    leak row is one matmul of its conjugated eve row by its projector,
    written over its w_a row, which nothing reads after the projector.
    """
    proposed, benchmark = [], []
    for scenario in batch:
        constants = (scenario.alpha, scenario.noise_mw)
        bob, eve = link_budget(scenario, scenario.bob), link_budget(scenario, scenario.eve)
        bob_power = (math.sqrt(bob.l_direct) + math.sqrt(bob.l_reflect) * scenario.nr) ** 2  # as in snr_bob
        amplitude = _eve_amplitude(scenario, bob, eve)[0]
        proposed.append((bob.phi, eve.phi, bob_power, amplitude * amplitude, *constants))
        # the benchmark's own link_budget calls, as the bench pins hold
        bob, eve = link_budget(scenario, scenario.bob), link_budget(scenario, scenario.eve)
        amplitude = _eve_amplitude(scenario, bob, eve, reflect=False)[0]
        benchmark.append((bob.phi, eve.phi, bob.l_direct, amplitude * amplitude, *constants))
    columns = np.array([proposed, benchmark], dtype=float).transpose(2, 0, 1)  # [field, column, scene]
    bob_power, power, alpha, noise_mw = columns[2:]
    # rows[k] holds pair k's steering vectors toward its receiver (w_a) and its eve (h_e), proposed pairs first
    alices = [scenario.alice_array() for scenario in batch]
    rows = steering_rows(alices * 2, np.stack(columns[:2], axis=-1).reshape(-1, 2))
    for w_a, h_e_conj in zip(rows[:, 0], rows[:, 1].conj()):
        np.matmul(h_e_conj, an_projector(w_a), out=w_a)
    return alpha, noise_mw, bob_power, power, _leak_power(rows[:, 0]).reshape(power.shape)


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
    u = np.sqrt(2.0 * gammas) * _SIN_PI_4
    return np.fromiter(map(q_function, u.tolist()), float, len(u))
