"""Independent reference implementations used to derive expected values.

Each oracle recomputes a quantity from first principles (numeric
integration, naive loops, explicit per-symbol formulas) so test
expectations are not circular.  Only the scalar probe route
(`irs_phase_diagonal`, `probe_amplitude`, `an_leak_row`, `probe_signal`,
`leak_sinr`, `sinr_eve_scalar`, `scalar_metrics`, `benchmark_no_irs`),
`heatmap_per_cell`, `eve_reference` and `rate_reference` call the package
under test: they evaluate one probe at a time in Python floats, the
reference for `probe_block`, the heatmap's probe route (its amplitudes bit
for bit, its leak rows to the rounding bound `leak_row_tol` derives), and,
at stated tolerances, for the closed forms of `secrecy_metrics` and the
rate sweeps.  `irs_beam` also calls it, for the matched IRS beam w_r, the
steering vector toward the IRS that `probe_amplitude` builds as g_t.
`path_loss`, `combined_path_loss` and `link_budget_composed` are the
per-quantity helpers `geometry.link_budget` once composed, the bitwise
reference for its one pass per hop; the last calls the package's
`distance` and `angle_of`.  `cascaded_gain_closed` is the array form of
the package's scalar Dirichlet kernel, `secrecy._dirichlet`, checked
against the brute-force double sum.
"""

import cmath
import json
import math
import sys

import numpy as np
from scipy import integrate


def q_via_integration(u: float) -> float:
    """Standard-normal tail probability by adaptive quadrature on [0, u]."""
    body, _ = integrate.quad(lambda t: math.exp(-t * t / 2.0), 0.0, u, epsabs=1e-14, epsrel=1e-13)
    return 0.5 - body / math.sqrt(2.0 * math.pi)


def matvec_triple_loop(m, v):
    """Naive row-by-column matrix-vector product."""
    rows = len(m)
    cols = len(m[0])
    out = []
    for i in range(rows):
        acc = 0j
        for j in range(cols):
            acc += m[i][j] * v[j]
        out.append(acc)
    return out


def steering_oracle(n, spacing, phi):
    """Per-element conjugated-exponential steering vector, explicit loop."""
    out = []
    for k in range(n):
        cycles = -spacing * (k - (n - 1) / 2.0) * math.cos(phi)
        out.append(complex(math.cos(-2.0 * math.pi * cycles), math.sin(-2.0 * math.pi * cycles)))
    return np.array(out) / math.sqrt(n)


def cascade_matrix(na, nr, spacing, phi_ar):
    """Rank-one transmitter-to-IRS matrix: all-ones IRS receive vector times
    the Hermitian steering row toward the IRS."""
    return np.outer(np.ones(nr), steering_oracle(na, spacing, phi_ar).conj())


def irs_phase_matrix(nr, spacing, theta, theta_b):
    """Diagonal IRS phase matrix deflecting toward ``theta`` when tuned to ``theta_b``."""
    cyc = lambda th: -spacing * (np.arange(nr) - (nr - 1) / 2.0) * math.cos(th)
    return np.diag(np.exp(-2j * math.pi * (cyc(theta) - cyc(theta_b))))


def channel_rows(budget, bob, phi_ar, na, nr, deflection, spacing=0.5):
    """Direct and reflect channel rows of a probe, by dense matrix products.

    ``budget`` is the probe's record (phi, l_direct, l_reflect), ``bob`` the
    intended receiver's, whose theta the IRS is tuned to, and ``phi_ar`` the
    transmitter-to-IRS angle.  The direct row is sqrt(l_direct) times the
    Hermitian steering row at the probe's departure angle; the reflect row
    is sqrt(l_reflect) times the all-ones IRS row through the phase matrix
    at ``deflection`` and the cascade matrix.
    """
    direct = math.sqrt(budget.l_direct) * steering_oracle(na, spacing, budget.phi).conj()
    reflect = math.sqrt(budget.l_reflect) * (
        np.ones(nr)
        @ irs_phase_matrix(nr, spacing, deflection, bob.theta)
        @ cascade_matrix(na, nr, spacing, phi_ar)
    )
    return direct, reflect


def cascaded_gain_bruteforce(theta_e, theta_b, alice, irs, phi_ar):
    """Reflect-path gain as the literal double sum over transmit and IRS elements.

    ``alice`` and ``irs`` supply n_elements and spacing_wavelengths.  Sums
    exp(2j*pi*(psi1 + psi2)) over every (antenna k, element l) pair and
    divides by the antenna count.  psi1 is the transmit-side cycle
    difference at the IRS departure angle, identically zero because the IRS
    beam is matched to that angle; psi2 is the negated element cycle
    difference applied by the IRS phase matrix.
    """

    def cycles(spec, phi):
        n, d = spec.n_elements, spec.spacing_wavelengths
        return [-d * (k - (n - 1) / 2.0) * math.cos(phi) for k in range(n)]

    cyc_ar = cycles(alice, phi_ar)
    cyc_e = cycles(irs, theta_e)
    cyc_b = cycles(irs, theta_b)
    total = 0.0 + 0.0j
    for k in range(alice.n_elements):
        psi1 = cyc_ar[k] - cyc_ar[k]
        for l in range(irs.n_elements):
            psi2 = -(cyc_e[l] - cyc_b[l])
            total += cmath.exp(2j * math.pi * (psi1 + psi2))
    return total / alice.n_elements


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
    n_r = 3).  The array counterpart of the package's scalar kernel,
    secrecy._dirichlet, and the reference it is held to.
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


def irs_beam(scenario):
    """The matched IRS beam w_r: the transmitter's unit-norm steering vector toward the IRS."""
    from dmirs.arrays import steering_vector
    from dmirs.geometry import angle_of

    return steering_vector(scenario.alice_array(), angle_of(scenario.alice, scenario.irs))


def an_projector_eye_minus_outer(h):
    """The noise projector in its textbook form, (I - h h^H) / ||I - h h^H||_F."""
    p = np.eye(len(h)) - np.outer(h, h.conj())
    return p / np.linalg.norm(p)


def an_projector_extended(w_a):
    """The textbook noise projector (I - w_a w_a^H)/sqrt(na - 1) of the
    stored direct beam ``w_a``, built in extended precision (np.clongdouble,
    unit roundoff EXTENDED_ROUNDOFF): -w_a w_a^H, 1 added to its diagonal,
    divided by sqrt(na - 1), the Frobenius norm of I - w_a w_a^H for a
    unit-norm w_a.  Normalising by a computed Frobenius norm would add the
    rounding of a sum of na^2 terms, which no bound of a few eps covers at
    large na."""
    w = np.asarray(w_a, dtype=np.clongdouble)
    p = np.multiply.outer(w, -w.conj())
    p.flat[:: len(w) + 1] += 1
    p /= np.sqrt(np.longdouble(len(w) - 1))
    return p


def synthesize_tx(w_a, w_r, projector, s, z, alpha):
    """The two transmit vectors for symbol ``s`` and noise draw ``z``.

    The direct beam carries sqrt(alpha) of the symbol plus sqrt(1-alpha) of
    the projected noise; the IRS beam carries sqrt(alpha) of the symbol only.
    """
    x_a = math.sqrt(alpha) * w_a * s + math.sqrt(1.0 - alpha) * (projector @ z)
    x_r = math.sqrt(alpha) * w_r * s
    return x_a, x_r


def link_budget_oracle(alice, bob, irs, probe, d0=1.0, rule="sum-distance"):
    """Symbol-by-symbol recomputation of every link-budget field."""

    def dist(a, b):
        return math.sqrt((b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2)

    def ang(o, t):
        return math.atan2(abs(t[1] - o[1]), t[0] - o[0])

    def loss(d):
        return (d / d0) ** -2

    def combined(d1, d2):
        return loss(d1 + d2) if rule == "sum-distance" else loss(d1) * loss(d2)

    d_ab, d_ar, d_rb = dist(alice, bob), dist(alice, irs), dist(irs, bob)
    d_ae, d_re = dist(alice, probe), dist(irs, probe)
    return {
        "d_ab": d_ab,
        "d_ar": d_ar,
        "d_rb": d_rb,
        "d_ae": d_ae,
        "d_re": d_re,
        "phi_ab": ang(alice, bob),
        "phi_ar": ang(alice, irs),
        "phi_ae": ang(alice, probe),
        "theta_b": ang(irs, bob),
        "theta_e": ang(irs, probe),
        "l_ab": loss(d_ab),
        "l_arb": combined(d_ar, d_rb),
        "l_ae": loss(d_ae),
        "l_are": combined(d_ar, d_re),
    }


def path_loss(d: float, d0: float) -> float:
    """Free-space path-loss gain (d/d0)**-2, checked: the per-quantity helper
    geometry.link_budget once composed, kept as its reference.

    Raises GeometryError when the gain leaves the normal float range, i.e.
    when d/d0 is below about 1e-154 or above about 6.7e153.
    """
    from dmirs.geometry import GeometryError

    if not (d > 0.0 and math.isfinite(d)):
        raise GeometryError(f"distance must be positive and finite, got {d!r}")
    if not (d0 > 0.0 and math.isfinite(d0)):
        raise GeometryError(f"reference distance must be positive and finite, got {d0!r}")
    try:
        gain = (d / d0) ** -2
    except (OverflowError, ZeroDivisionError):  # d/d0 below 1e-154, or underflowed to 0
        gain = math.inf
    if not sys.float_info.min <= gain < math.inf:
        raise GeometryError(_gain_range_message(f"distance {d!r} m", d0, gain))
    return gain


def combined_path_loss(d_first: float, d_second: float, d0: float, rule: str) -> float:
    """Two-hop reflect-path gain under the configured combine rule, from path_loss."""
    from dmirs.geometry import PATH_LOSS_RULES, GeometryError

    if rule == "sum-distance":
        if d_first + d_second == math.inf:
            raise GeometryError(
                f"reflect-path hops of {d_first!r} m and {d_second!r} m add up beyond the float range"
            )
        return path_loss(d_first + d_second, d0)
    if rule == "product":
        gain = path_loss(d_first, d0) * path_loss(d_second, d0)
        if not sys.float_info.min <= gain < math.inf:
            raise GeometryError(_gain_range_message(f"distances {d_first!r} m and {d_second!r} m", d0, gain))
        return gain
    raise ValueError(f"unknown path_loss_combine rule {rule!r}; expected one of {PATH_LOSS_RULES}")


def _gain_range_message(distances: str, d0: float, gain: float) -> str:
    if gain < 1.0:
        limit, fix = "falls below the normal", "lower the distance or raise"
    else:
        limit, fix = "exceeds the", "raise the distance or lower"
    return f"path-loss gain at {distances} with d0_m = {d0!r} {limit} float range; {fix} d0_m"


def link_budget_composed(scene, receiver):
    """geometry.link_budget as a composition of per-quantity helpers: distance,
    then combined_path_loss, then path_loss, then angle_of, each hop's
    difference taken anew by each helper."""
    from dmirs.geometry import LinkBudget, angle_of, distance

    alice, irs, d0 = scene.alice, scene.irs, scene.d0_m
    d_direct = distance(alice, receiver)
    l_reflect = combined_path_loss(distance(alice, irs), distance(irs, receiver), d0, scene.path_loss_combine)
    return LinkBudget(angle_of(alice, receiver), angle_of(irs, receiver), path_loss(d_direct, d0), l_reflect)


def eve_sinr_oracle(
    probe,
    alice=(0.0, 0.0),
    bob=(20.0, 0.0),
    irs=(20.0, -15.0),
    na=16,
    nr=50,
    spacing=0.5,
    pt_dbm=25.0,
    noise_dbm=-20.0,
    alpha=0.6,
    d0=1.0,
    rule="sum-distance",
    include_irs=True,
):
    """Expected-noise probe SINR rebuilt from scratch, matrix route throughout."""
    b = link_budget_oracle(alice, bob, irs, probe, d0, rule)
    pt = 10.0 ** (pt_dbm / 10.0)
    noise = 10.0 ** (noise_dbm / 10.0)

    h_ab = steering_oracle(na, spacing, b["phi_ab"])
    g_t = steering_oracle(na, spacing, b["phi_ar"])
    h_ae = steering_oracle(na, spacing, b["phi_ae"])
    w_a, w_r = h_ab, g_t

    amp = math.sqrt(b["l_ae"]) * np.vdot(h_ae, w_a)
    if include_irs:
        # full dense products: ones^H Theta G w_r
        theta = irs_phase_matrix(nr, spacing, b["theta_e"], b["theta_b"])
        big_g = cascade_matrix(na, nr, spacing, b["phi_ar"])
        amp = amp + math.sqrt(b["l_are"]) * (np.ones(nr) @ theta @ big_g @ w_r)

    p = np.eye(na) - np.outer(h_ab, h_ab.conj())
    p = p / np.linalg.norm(p)
    an_power = float(np.linalg.norm(h_ae.conj() @ p) ** 2)
    return (alpha * pt * abs(amp) ** 2) / ((1.0 - alpha) * pt * an_power + noise)


def bob_snr_oracle(
    alice=(0.0, 0.0),
    bob=(20.0, 0.0),
    irs=(20.0, -15.0),
    nr=50,
    pt_dbm=25.0,
    noise_dbm=-20.0,
    alpha=0.6,
    d0=1.0,
    rule="sum-distance",
    with_irs=True,
):
    """Intended-receiver SNR from the hand-evaluated amplitude expression."""
    b = link_budget_oracle(alice, bob, irs, bob, d0, rule)
    pt = 10.0 ** (pt_dbm / 10.0)
    noise = 10.0 ** (noise_dbm / 10.0)
    amp = math.sqrt(b["l_ab"]) + (math.sqrt(b["l_arb"]) * nr if with_irs else 0.0)
    return alpha * pt * amp ** 2 / noise


def complex_normal_two_draws(rng, shape):
    """Complex normals as two separate real draws joined by complex arithmetic."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def qpsk_ber_scalar(gamma):
    """Gray-coded QPSK BER, one scalar expression per call, as (2/log2 M) * Q(.)."""
    if gamma < 0.0:
        raise ValueError(f"SNR must be non-negative, got {gamma!r}")
    u = math.sqrt(2.0 * gamma) * math.sin(math.pi / 4)
    if not math.isfinite(u):
        raise ValueError(f"Q requires a finite argument, got {u!r}")
    return (2.0 / math.log2(4)) * (0.5 * math.erfc(u / math.sqrt(2.0)))


def mc_mean_ber_per_sample(scenario, signal_mw, leak_row, seed):
    """Monte-Carlo QPSK BER with one scalar BER call per noise draw.

    ``scenario`` supplies alpha, pt_mw, noise_mw, na and mc_samples.  The
    draws come from the same seeded stream as the production path, so the
    two must agree exactly.
    """
    shape = (scenario.mc_samples, scenario.na)
    draws = complex_normal_two_draws(np.random.default_rng(seed), shape)
    an_power = np.abs(draws @ leak_row) ** 2
    gammas = signal_mw / ((1.0 - scenario.alpha) * scenario.pt_mw * an_power + scenario.noise_mw)
    return float(np.mean([qpsk_ber_scalar(g) for g in gammas]))


def result_rows(result):
    """A sweep result as one {column: value} dict per grid cell, in grid order."""
    columns = [result.values[c].tolist() for c in result.columns]
    return [dict(zip(result.columns, row)) for row in zip(*columns)]


def _format_value(value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return format(float(value), ".9g")


def write_csv_per_row(result, sink) -> int:
    """The CSV writer formatting one value at a time and writing one payload.

    Preamble as the production writer's; every row is joined from
    per-value format calls, and the whole file is built in memory.
    """
    lines = []
    meta = result.metadata
    lines.append(f"# {meta.get('artifact', 'dmirs')}")
    lines.append(f"# seed = {meta.get('seed')}")
    for key in sorted(meta):
        if key in ("artifact", "seed", "scenario"):
            continue
        lines.append(f"# {key} = {meta[key]}")
    if "scenario" in meta:
        lines.append(f"# scenario = {json.dumps(meta['scenario'], sort_keys=True)}")
    lines.append(",".join(result.columns))
    n_rows = len(result.values[result.columns[0]])
    for i in range(n_rows):
        lines.append(",".join(_format_value(result.values[c][i]) for c in result.columns))
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    sink.write(payload)
    return len(payload)


def irs_phase_diagonal(irs, theta: float, theta_b: float) -> np.ndarray:
    """Diagonal entries of the IRS phase matrix for deflection ``theta``.

    Entry l is exp(-2j*pi*(cycles_l(theta) - cycles_l(theta_b))); tuning the
    deflection to the boresight gives exactly ones.
    """
    from dmirs.arrays import element_cycles

    return np.exp(-2j * np.pi * (element_cycles(irs, theta) - element_cycles(irs, theta_b)))


def probe_amplitude(scenario, bob, probe, w_a) -> complex:
    """Coherent amplitude reaching ``probe`` over the direct beam ``w_a`` and the IRS
    beam, the steering vector g_t toward the IRS, with the IRS tuned to ``bob``:
    sqrt(l_direct) * <h(phi), w_a> + sqrt(l_reflect) * phase_sum * <g_t, g_t>."""
    from dmirs.arrays import steering_vector
    from dmirs.geometry import angle_of

    alice = scenario.alice_array()
    h_ae = steering_vector(alice, probe.phi)
    g_t = steering_vector(alice, angle_of(scenario.alice, scenario.irs))
    phase_sum = irs_phase_diagonal(scenario.irs_array(), probe.theta, bob.theta).sum()
    direct = math.sqrt(probe.l_direct) * np.vdot(h_ae, w_a)
    return complex(direct + math.sqrt(probe.l_reflect) * phase_sum * np.vdot(g_t, g_t))


def an_leak_row(probe, alice, projector) -> np.ndarray:
    """Probe steering row propagated through the noise projector, h(phi)^H P,
    a vector-matrix product in the projector's precision rounded to complex:
    an_projector_extended's gives the textbook row to within an ulp or so."""
    from dmirs.arrays import steering_vector

    h_ae = steering_vector(alice, probe.phi)
    return (h_ae.conj() @ projector).astype(complex)


def probe_signal(scenario, bob, budget, w_a, include_irs=True):
    """Signal power reaching the probe in mW: alpha * Pt * |probe amplitude|^2,
    the amplitude from probe_amplitude or, without the IRS, its direct term
    sqrt(l_direct) * <h(phi), w_a> alone."""
    from dmirs.arrays import steering_vector

    if include_irs:
        amplitude = probe_amplitude(scenario, bob, budget, w_a)
    else:
        amplitude = complex(math.sqrt(budget.l_direct) * np.vdot(steering_vector(scenario.alice_array(), budget.phi), w_a))
    return scenario.alpha * scenario.pt_mw * abs(amplitude) ** 2


def _sinr(scenario, signal_mw, an_power):
    return signal_mw / ((1.0 - scenario.alpha) * scenario.pt_mw * an_power + scenario.noise_mw)


def leak_sinr(scenario, signal_mw, row):
    """Expected-noise SINR from the probe's signal power and its noise leak row."""
    return _sinr(scenario, signal_mw, float(np.linalg.norm(row) ** 2))


# Unit roundoff of IEEE double arithmetic: a correctly rounded operation is
# off by at most UNIT_ROUNDOFF of its exact result.
UNIT_ROUNDOFF = 2.0**-53
# Unit roundoff of np.longdouble, the precision an_projector_extended works in
EXTENDED_ROUNDOFF = float(np.finfo(np.longdouble).eps) / 2.0
# Assumed bound on math.erfc's error, in units in the last place.  The BER
# bounds below lean on Q being decreasing, which computed values honour only
# to within this error.
ERFC_ULPS = 5


def gamma_n(n):
    """n*u/(1 - n*u): the relative error of n roundings compounded (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Lemma 3.1)."""
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


def leak_row_tol(na):
    """Bound on each entry's difference between a leak row in closed form,
    as secrecy._leak_rows evaluates it for probe_block and the heatmap, and
    the textbook row h(phi)^H P that an_leak_row takes through
    an_projector_extended, for steering vectors h and w_a of na entries.

    Write u = UNIT_ROUNDOFF, v = EXTENDED_ROUNDOFF, gamma_n and gamma_v for
    the compounded errors in each precision, and Q = sqrt(na*(na - 1)).
    Both routes start from the same stored h and w_a, whose entries have
    magnitude 1/sqrt(na) to a few ulps; the exact row from them is x_j =
    (conj(h_j) - d*conj(w_j))/sqrt(na - 1), d = <h, w_a>, with |d| <= 1.
    A complex product's parts each sum two real products, |Re a Re b| +
    |Im a Im b| <= |a||b| and likewise for the cross terms, so a product
    rounded in any order is off by sqrt(2)*gamma_n(2)*|a||b|, and a dot
    product of na terms by sqrt(2)*gamma_n(2*na) times sum |a_k||b_k|.

    Closed form: d is such a dot product, off by sqrt(2)*gamma_n(2*na);
    d*conj(w_j) adds sqrt(2)*gamma_n(2)/sqrt(na); the subtraction rounds
    once (u of a value below 2/sqrt(na)) and the scaling by sqrt(na - 1),
    a square root, its reciprocal and a product, three times.  So

        |closed - x_j| <= (sqrt(2)*gamma_n(2*na) + 2*sqrt(2)*u + 8*u) / Q.

    Textbook row: -w_a w_a^H's entries are off by sqrt(2)*gamma_v(2)/na,
    the diagonal's 1 added by v, the scaling by gamma_v(3) of entries whose
    magnitudes sum to 2 in each column against |h_k| = 1/sqrt(na); the
    product sums na terms of those magnitudes, sqrt(2)*gamma_v(2*na) each
    part, and the conversion to complex rounds once, u of |x_j| <= 2/Q:

        |textbook - x_j| <= (2*u + 2*sqrt(2)*gamma_v(2*na) + 10*v) / Q.

    Their sum, with the constants rounded up and a factor 1 + 1e-9 for the
    second-order terms (products of two roundoffs, or of one and the ulps
    by which a stored |h_k| can exceed 1/sqrt(na)), is

        e = (1 + 1e-9) * (sqrt(2)*(gamma_n(2*na) + 2*gamma_v(2*na)) + 13*u + 10*v) / Q,

    about (2*sqrt(2)*na + 13)*u / Q: 6.6 eps at na = 2, falling to sqrt(2)
    eps at large na, and the rows differ by at most sqrt(na) * e in norm.
    Where v is far below u (v = u/2048 for x87 extended precision), e stays
    below 4*sqrt(2)*gamma_n(2*na) / Q, the bound on two evaluations of h^H P
    through one stored projector that the heatmap's rows were held to when
    it built one; a textbook row in double precision would carry that much
    rounding of its own, which with the closed form's exceeds it at na <= 4.
    """
    u, v = UNIT_ROUNDOFF, EXTENDED_ROUNDOFF
    gamma_v = 2 * na * v / (1.0 - 2 * na * v)
    terms = math.sqrt(2.0) * (gamma_n(2 * na) + 2.0 * gamma_v) + 13.0 * u + 10.0 * v
    return (1.0 + 1e-9) * terms / math.sqrt(na * (na - 1))


def expected_leak_numpy(na, offset):
    """secrecy._expected_leak's A = (1 - d^2)/(na - 1) in numpy: the same
    non-negative terms (na - m) * sin^2(m*y), m = 1..na-1, taken by np.sin
    on the offset less its nearest integer and added by np.dot."""
    m = np.arange(1, na)
    s = np.sin(m * (math.pi * (offset - round(offset))))
    return 4.0 * float(np.dot(na - m, s * s)) / (na * na * (na - 1))


def leak_sinr_bounds(scenario, signal_mw, row):
    """The least and greatest expected-noise SINR that probe_block can give
    a probe with signal power ``signal_mw`` whose reference leak row (from
    an_leak_row) is ``row``: the SINR of any leak row within leak_row_tol
    of ``row`` in each entry, evaluated as probe_block evaluates it.

    The rows differ by at most E = sqrt(na) * leak_row_tol(na) in norm, so
    their exact norms a (probe_block's row) and b (``row``) do too.  Each
    route's A, the squared norm, sums 2*na rounded squares (gamma_n(2*na)),
    then takes a square root and pow(x, 2), within an ulp each, so it is
    off by at most g0 = gamma_n(2*na + 4) of a^2 or b^2.  From the reference
    A_ref, b lies in [sqrt(A_ref/(1 + g0)), sqrt(A_ref/(1 - g0))], so
    probe_block's A lies in

        [(sqrt(A_ref/(1 + g0)) - E)^2 * (1 - g0), (sqrt(A_ref/(1 - g0)) + E)^2 * (1 + g0)],

    the first bracket clamped at 0.  The two ends below take g = gamma_n(2*na
    + 10), six roundings more, for their own evaluation.  The SINR
    signal / ((1 - alpha) * Pt * A + noise) is decreasing in A, and each of
    its correctly rounded operations is monotone, so the same expression at
    the two ends of A bounds probe_block's SINR, bit for bit.
    """
    na = scenario.na
    big_e = math.sqrt(na) * leak_row_tol(na)
    g = gamma_n(2 * na + 10)
    a_ref = float(np.linalg.norm(row) ** 2)
    a_lo = max(0.0, math.sqrt(a_ref / (1.0 + g)) - big_e) ** 2 * (1.0 - g)
    a_hi = (math.sqrt(a_ref / (1.0 - g)) + big_e) ** 2 * (1.0 + g)
    return _sinr(scenario, signal_mw, a_hi), _sinr(scenario, signal_mw, a_lo)


def _ber_bounds(gamma_lo, gamma_hi):
    """QPSK BERs (qpsk_ber_scalar, bit for bit ber_from_snrs) that bound the
    BER of every SINR in [gamma_lo, gamma_hi], elementwise over arrays.

    Q(sqrt(gamma)) is decreasing and every operation before erfc is
    correctly rounded, so monotone; erfc's computed values may break
    monotonicity by its error, ERFC_ULPS ulps, at either end, so both ends
    widen by twice that: relative for normal BERs, and by as many of the
    smallest subnormal steps for BERs that erfc takes below the normal range.
    """
    rel, tiny = 2.0 * ERFC_ULPS * 2.0 * UNIT_ROUNDOFF, 2.0 * ERFC_ULPS * math.ulp(0.0)
    lo = np.array([qpsk_ber_scalar(g) for g in np.atleast_1d(gamma_hi).tolist()]) * (1.0 - rel) - tiny
    hi = np.array([qpsk_ber_scalar(g) for g in np.atleast_1d(gamma_lo).tolist()]) * (1.0 + rel) + tiny
    return lo, hi


def _db_bound(gamma, side):
    """10 * math.log10(gamma), -inf at 0, moved by 1e-14 of itself to ``side``
    (-1 or 1), since np.log10 and math.log10 may differ by an ulp."""
    if gamma == 0.0:
        return -math.inf
    db = 10.0 * math.log10(gamma)
    return db + side * 1e-14 * abs(db)


def _mc_ber_bounds(scenario, signal_mw, row, seed):
    """Bounds on mc_mean_ber(scenario, signal_mw, x, seed) over every leak
    row x within leak_row_tol of ``row`` in each entry.

    Draw k leaks through L_k = z_k . x, a product of the same kind as the
    rows' entries: against z_k . row it differs by at most |z_k| . e
    exactly and by each evaluation's rounding, sqrt(2) * gamma_n(2*na) *
    |z_k| . |x| (|x_j| <= |row_j| + e), so by eps_k = e * sum|z_k| +
    sqrt(2) * gamma_n(2*na) * |z_k| . (2|row| + e) (its own evaluation,
    sums of non-negative terms, is off by at most gamma_n(na + 2) of itself,
    covered by the factor 1 + gamma_n(na + 4)).  mc_mean_ber takes |L_k|
    by hypot, within an ulp; so its |L_k| lies in [(m_k * (1 - g) - eps_k)
    * (1 - g), (m_k * (1 + g) + eps_k) * (1 + g)] for the reference's
    magnitude m_k, g = gamma_n(6) covering the two hypot ulps and the ends'
    own four roundings.  Squaring, the SINR and Q are monotone, as in
    leak_sinr_bounds and _ber_bounds, and so is the mean, a pairwise sum of
    the same length and a division.
    """
    na = scenario.na
    e = leak_row_tol(na)
    draws = complex_normal_two_draws(np.random.default_rng(seed), (scenario.mc_samples, na))
    mags = np.abs(draws @ row)
    size = np.abs(draws)
    eps = e * size.sum(axis=1) + math.sqrt(2.0) * gamma_n(2 * na) * (size @ (2.0 * np.abs(row) + e))
    eps *= 1.0 + gamma_n(na + 4)
    g = gamma_n(6)
    leak_lo = np.maximum(0.0, mags * (1.0 - g) - eps) * (1.0 - g)
    leak_hi = (mags * (1.0 + g) + eps) * (1.0 + g)
    lo, hi = _ber_bounds(_sinr(scenario, signal_mw, leak_hi**2), _sinr(scenario, signal_mw, leak_lo**2))
    return float(lo.mean()), float(hi.mean())


def sinr_eve_scalar(scenario, bob, budget, w_a, projector, include_irs=True):
    """Probe SINR from probe_signal and the leak row: leak_sinr in expected
    mode, or one complex_normal_two_draws draw from the scenario seed."""
    signal = probe_signal(scenario, bob, budget, w_a, include_irs)
    row = an_leak_row(budget, scenario.alice_array(), projector)
    if scenario.an_mode == "expected":
        return leak_sinr(scenario, signal, row)
    z = complex_normal_two_draws(np.random.default_rng(scenario.seed), (scenario.na,))
    return _sinr(scenario, signal, abs(np.dot(row, z)) ** 2)


def secrecy_rate(gamma_b: float, gamma_e: float) -> float:
    """Clamped rate difference [rate_b - rate_e]^+ in bits per channel use."""
    from dmirs.secrecy import rate_bits

    return max(0.0, rate_bits(gamma_b) - rate_bits(gamma_e))


def scalar_metrics(scenario, probe, include_irs=True):
    """secrecy_metrics as one scalar pipeline: gamma_b from snr_bob, gamma_e
    from sinr_eve_scalar (the projector's leak row), BERs from qpsk_ber_scalar.

    Without the IRS, the intended receiver keeps only the direct beam and
    the probe's numerator only the direct term; the artificial noise is
    unchanged, so nothing depends on the IRS element count.
    """
    from dmirs.geometry import link_budget
    from dmirs.secrecy import SecrecyMetrics, check_snr, probe_setup, rate_bits, snr_bob

    bob, w_a = probe_setup(scenario)
    projector = an_projector_extended(w_a)
    if include_irs:
        gamma_b = snr_bob(scenario, bob)
    else:
        gamma_b = scenario.alpha * scenario.pt_mw * bob.l_direct / scenario.noise_mw
    gamma_e = sinr_eve_scalar(scenario, bob, link_budget(scenario, probe), w_a, projector, include_irs)
    check_snr(scenario.pt_dbm, scenario.noise_dbm, gamma_b, gamma_e)
    return SecrecyMetrics(
        gamma_b=gamma_b,
        gamma_e=gamma_e,
        rate_b=rate_bits(gamma_b),
        rate_e=rate_bits(gamma_e),
        rate_s=secrecy_rate(gamma_b, gamma_e),
        ber_b=qpsk_ber_scalar(gamma_b),
        ber_probe=qpsk_ber_scalar(gamma_e),
    )


def benchmark_no_irs(scenario, probe):
    """The no-IRS benchmark's metrics at ``probe``, one scalar pipeline."""
    return scalar_metrics(scenario, probe, include_irs=False)


# Tolerances of the closed-form routes against the scalar route (eve_reference)
SINR_TOL = 1e-12  # rounding per unit of a sum's term magnitudes
RATE_TOL_BITS = 1e-12


def eve_reference(scenario, include_irs=True):
    """scalar_metrics at ``scenario``'s eve, in its an_mode, with the
    tolerances (gamma_e_tol, rate_tol) that the closed-form routes
    (secrecy_metrics, secrecy_rates) are held to.

    Every route computes gamma_e = alpha*Pt*|a|^2 / D, D = noise +
    (1-alpha)*Pt*A, with a = sqrt(l_d)*d + sqrt(l_r)*gain.

    The amplitude.  d = <h_e, w_a> sums na terms of magnitude 1/na, so sum
    |terms| = 1; gain sums nr unit-magnitude phase terms (the scalar route
    literally, the closed form as a Dirichlet kernel), so sum |terms| = nr.
    Rounding, including the phases' own, which grow to pi*spacing*n, is
    relative to those magnitude sums, not to |d| or |gain|, which cancel in
    sidelobes: each route's a is off by at most delta*(sqrt(l_d) +
    sqrt(l_r)*nr), where the phases dominate delta at about pi*spacing*nr
    unit roundoffs (3e-13 at nr = 500 and spacing 1.7).  So the numerators
    differ by at most (2*delta + delta^2)*alpha*Pt*(sqrt(l_d) +
    sqrt(l_r)*nr)^2, and 2*delta + delta^2 <= SINR_TOL.

    The leak A.  The scalar route's leak row is h_e^H P, each entry a sum
    of terms of magnitude r = 2/sqrt(na*(na-1)) in all, which also bounds
    the entry; the closed form's (h_e^H - d*w_a^H)/sqrt(na-1) has the same.
    So the routes' rows differ by at most e = 2*delta*r <= SINR_TOL*r an
    entry, and in norm by at most E = sqrt(na)*SINR_TOL*r =
    2*SINR_TOL/sqrt(na-1).  In expected mode A is the row's squared norm,
    and | |a|^2 - |b|^2 | <= (2|a| + |a - b|)*|a - b|, so the routes' A
    differ by at most 2*sqrt(A)*E + E^2.  The closed form sums A's
    expansion (4/na^2)*sum (na-m)*sin^2(m*y)/(na-1): non-negative terms,
    each off by phase rounding (sin(m*y) by at most delta, inside E by
    Cauchy-Schwarz) and by a few ulp of itself, so add SINR_TOL*A:

        dA = 2*sqrt(A)*E + E^2 + SINR_TOL*A,

    which stays a small fraction of A unless A is itself within E^2 of
    zero, so near the intended receiver's ray the tolerance stays tight.
    In instantaneous mode A = |row . z|^2 with the one draw z, and row . z
    sums terms of magnitude r*|z_k| at most, so it differs by at most e_z
    = SINR_TOL*r*sum|z_k| and A by dA = 2*|row . z|*e_z + e_z^2.

    Together, with D_min = noise + (1-alpha)*Pt*max(0, A - dA),

        gamma_e_tol = (SINR_TOL*alpha*Pt*(sqrt(l_d) + sqrt(l_r)*nr)^2
                       + gamma_e*(1-alpha)*Pt*dA) / D_min

    bounds |d gamma_e| (sqrt(l_r)*nr dropped without the IRS).  gamma_b is
    one expression on every route and must agree exactly.  The rate moves
    by d log2(1+gamma_e) <= |d gamma_e| / ((1 + min gamma_e) * ln 2), plus
    the last bits of log2, so rate_tol = RATE_TOL_BITS + gamma_e_tol / ((1
    + max(0, gamma_e - gamma_e_tol)) * ln 2): RATE_TOL_BITS where gamma_e
    is not cancelled, more where it sits far below its scale.
    """
    from dmirs.geometry import link_budget
    from dmirs.secrecy import probe_setup

    expected = scalar_metrics(scenario, scenario.eve, include_irs)
    projector = an_projector_extended(probe_setup(scenario)[1])
    eve = link_budget(scenario, scenario.eve)
    na = scenario.na
    row = an_leak_row(eve, scenario.alice_array(), projector)
    if scenario.an_mode == "expected":
        an_power = float(np.linalg.norm(row) ** 2)
        row_tol = 2.0 * SINR_TOL / math.sqrt(na - 1)
        an_tol = 2.0 * math.sqrt(an_power) * row_tol + row_tol**2 + SINR_TOL * an_power
    else:
        z = complex_normal_two_draws(np.random.default_rng(scenario.seed), (na,))
        leak = abs(np.dot(row, z))
        e_z = SINR_TOL * 2.0 / math.sqrt(na * (na - 1)) * float(np.abs(z).sum())
        an_power, an_tol = leak**2, 2.0 * leak * e_z + e_z**2
    terms = math.sqrt(eve.l_direct) + (math.sqrt(eve.l_reflect) * scenario.nr if include_irs else 0.0)
    pt, alpha = scenario.pt_mw, scenario.alpha
    d_min = scenario.noise_mw + (1.0 - alpha) * pt * max(0.0, an_power - an_tol)
    gamma_e_tol = (SINR_TOL * alpha * pt * terms**2 + expected.gamma_e * (1.0 - alpha) * pt * an_tol) / d_min
    rate_tol = RATE_TOL_BITS + gamma_e_tol / ((1.0 + max(0.0, expected.gamma_e - gamma_e_tol)) * math.log(2.0))
    return expected, gamma_e_tol, rate_tol


def rate_reference(scenario, include_irs=True):
    """eve_reference in expected mode, whatever ``scenario``'s an_mode: the
    reference of a rate sweep's row at ``scenario``'s eve and pt_dbm."""
    from dataclasses import replace

    return eve_reference(replace(scenario, an_mode="expected"), include_irs)


def heatmap_per_cell(scenario, grid):
    """Bounds on the heatmap's sinr_db and ber columns, one scalar pipeline per cell.

    Returns {"sinr_db": (lo, hi), "ber": (lo, hi)}, arrays in grid order.
    Each cell calls probe_signal, which run_heatmap must match bit for bit,
    and takes its phi's an_leak_row through an_projector_extended, which
    its leak row matches to leak_row_tol (a leak row depends on phi alone,
    so it is taken once per phi); the SINR
    bounds are leak_sinr_bounds, and the BER bounds _ber_bounds of them or,
    in instantaneous mode, _mc_ber_bounds with the cell's (seed, flat index)
    seed, and the sinr_db bounds _db_bound of the SINR bounds.
    """
    from dmirs.geometry import LinkBudget
    from dmirs.secrecy import check_snr, probe_setup, snr_bob

    n_phi, n_theta = grid
    phi_deg = np.linspace(0.0, 180.0, n_phi)
    theta_deg = np.linspace(0.0, 180.0, n_theta)

    bob, w_a = probe_setup(scenario)
    check_snr(scenario.pt_dbm, scenario.noise_dbm, snr_bob(scenario, bob))
    alice = scenario.alice_array()
    projector = an_projector_extended(w_a)
    mc = scenario.an_mode == "instantaneous"

    bounds = np.empty((4, n_phi * n_theta))  # sinr_db lo, hi, ber lo, hi
    index = 0
    for phi in phi_deg.tolist():
        leak = an_leak_row(LinkBudget(math.radians(phi), bob.theta, bob.l_direct, bob.l_reflect), alice, projector)
        for theta in theta_deg.tolist():
            cell = LinkBudget(math.radians(phi), math.radians(theta), bob.l_direct, bob.l_reflect)
            signal = probe_signal(scenario, bob, cell, w_a)
            gamma_lo, gamma_hi = leak_sinr_bounds(scenario, signal, leak)
            if mc:
                ber = _mc_ber_bounds(scenario, signal, leak, np.random.SeedSequence([scenario.seed, index]))
            else:
                ber = [float(b[0]) for b in _ber_bounds(gamma_lo, gamma_hi)]
            bounds[:, index] = [_db_bound(gamma_lo, -1), _db_bound(gamma_hi, 1), *ber]
            index += 1
    return {"sinr_db": (bounds[0], bounds[1]), "ber": (bounds[2], bounds[3])}
