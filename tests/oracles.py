"""Independent reference implementations used to derive expected values.

Each oracle recomputes a quantity from first principles (naive loops,
explicit per-symbol formulas, exact arithmetic) so test expectations are
not circular.  The exact oracle (from DIGITS on)
works in 50-digit mpmath from the stored doubles that the checked step
reads, so each route's bound is its own rounding alone.  The scalar probe
route (`irs_phase_diagonal` to `benchmark_no_irs`) evaluates one probe at
a time in Python floats, its leak row the exact oracle's; `_eve_ranges`
holds the closed forms to it within MODEL_TOL, their array model's check,
as well as to their own rounding.  It, `irs_beam`
(the matched IRS beam w_r), `probe_setup` (the receiver's record and the
direct beam w_a) and the exact oracle's entry points call the package
under test.  `path_loss`, `combined_path_loss` and `link_budget_composed`
are the per-quantity helpers `geometry.link_budget` once composed, its
bitwise reference.  `cascaded_gain_closed` is the array form of the
scalar Dirichlet kernel `secrecy._dirichlet`, checked against the
brute-force double sum.
"""

import cmath
import json
import math
import sys

import mpmath
import numpy as np


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


def probe_setup(scenario):
    """The intended receiver's LinkBudget and the direct beam w_a, the
    steering vector toward that receiver, which the artificial noise avoids."""
    from dmirs.arrays import steering_vector
    from dmirs.geometry import link_budget

    bob = link_budget(scenario, scenario.bob)
    return bob, steering_vector(scenario.alice_array(), bob.phi)


def irs_beam(scenario):
    """The matched IRS beam w_r: the transmitter's unit-norm steering vector toward the IRS."""
    from dmirs.arrays import steering_vector
    from dmirs.geometry import angle_of

    return steering_vector(scenario.alice_array(), angle_of(scenario.alice, scenario.irs))


def an_projector_eye_minus_outer(h):
    """The noise projector in its textbook form, (I - h h^H) / ||I - h h^H||_F."""
    p = np.eye(len(h)) - np.outer(h, h.conj())
    return p / np.linalg.norm(p)


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
    columns = [column.tolist() for column in result.values.values()]
    return [dict(zip(result.values, row)) for row in zip(*columns)]


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
    lines.append(",".join(result.values))
    columns = list(result.values.values())
    for i in range(len(columns[0])):
        lines.append(",".join(_format_value(column[i]) for column in columns))
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


def probe_amplitude(scenario, bob, probe, w_a, include_irs=True) -> complex:
    """Coherent amplitude reaching ``probe`` over the direct beam ``w_a`` and the IRS
    beam, the steering vector g_t toward the IRS, with the IRS tuned to ``bob``:
    sqrt(l_direct) * <h(phi), w_a> + sqrt(l_reflect) * phase_sum * <g_t, g_t>,
    or without the IRS its direct term alone."""
    from dmirs.arrays import steering_vector
    from dmirs.geometry import angle_of

    alice = scenario.alice_array()
    direct = math.sqrt(probe.l_direct) * np.vdot(steering_vector(alice, probe.phi), w_a)
    if not include_irs:
        return complex(direct)
    g_t = steering_vector(alice, angle_of(scenario.alice, scenario.irs))
    phase_sum = irs_phase_diagonal(scenario.irs_array(), probe.theta, bob.theta).sum()
    return complex(direct + math.sqrt(probe.l_reflect) * phase_sum * np.vdot(g_t, g_t))


def an_leak_row(probe, alice, w_a) -> np.ndarray:
    """Probe steering row propagated through the noise projector of ``w_a``,
    h(phi)^H P: exact_leak_rows' row of the package's steering vector toward phi."""
    from dmirs.arrays import steering_vector

    return exact_leak_rows(steering_vector(alice, probe.phi), w_a)[0]


def probe_signal(scenario, bob, budget, w_a, include_irs=True):
    """Signal power reaching the probe in mW: alpha * Pt * |probe_amplitude|^2."""
    return scenario.alpha * scenario.pt_mw * abs(probe_amplitude(scenario, bob, budget, w_a, include_irs)) ** 2


def sinr(scenario, signal_mw, an_power):
    """signal / ((1 - alpha) * Pt * A + noise), in the package's operation order."""
    return signal_mw / ((1.0 - scenario.alpha) * scenario.pt_mw * an_power + scenario.noise_mw)


# The exact oracle.  Each entry point works inside a local mpmath.workdps,
# leaving the global precision alone, and returns values rounded once or a
# range's ends rounded outward; a range is the route's own rounding alone.
DIGITS = 50
UNIT_ROUNDOFF = 2.0**-53  # a correctly rounded operation's most relative error
# Assumed bound on the error of log1p, log10 and erfc in ulps (sin and hypot
# are taken within one); computed Q is decreasing only to within it.
LIBM_ULPS = 5
# secrecy._dirichlet's rounding at a stored offset, in units of n*u: its
# arguments' 3 and 2 roundings move the sines by 3*pi/2 and pi (the second
# relative to |sin(pi*r)| >= 2|r|), the sines' ulps and the quotient by 5.
DIRICHLET_UNITS = 13


def q_exact(u: float) -> float:
    """The standard-normal tail probability Q(u) = erfc(u/sqrt 2)/2, rounded once."""
    with mpmath.workdps(DIGITS):
        return float(mpmath.erfc(mpmath.mpf(u) / mpmath.sqrt(2)) / 2)


def gamma_n(n):
    """n*u/(1 - n*u) rounded up (n*u and 1 - n*u are exact): the relative error of n
    roundings compounded (Higham, Accuracy and Stability of Numerical Algorithms, Lemma 3.1)."""
    return math.nextafter(n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF), math.inf)


def _outward(lo, hi):
    """Doubles at or below the exact ``lo`` and at or above ``hi``: each rounded, then moved out by an ulp."""
    return math.nextafter(float(lo), -math.inf), math.nextafter(float(hi), math.inf)


def _power_range(root, t, big_e, g):
    """(root^2, lo, hi), bounds on a square taken within ``g`` of a root in [root/(1 + t) - E, root/(1 - t) + E]."""
    return root**2, *_outward(max(0, root / (1 + t) - big_e) ** 2 * (1 - g), (root / (1 - t) + big_e) ** 2 * (1 + g))


def mp_dirichlet(offset, n):
    """sin(n*pi*x)/sin(pi*x) at the exact offset x in the caller's mpmath context, the real
    Dirichlet kernel of n centred elements, signed as secrecy._dirichlet, its limit +-n at a whole x."""
    k = int(mpmath.nint(offset))
    r = offset - k
    kernel = mpmath.sin(n * mpmath.pi * r) / mpmath.sin(mpmath.pi * r) if r else mpmath.mpf(n)
    return -kernel if k * (n - 1) % 2 else kernel


def mp_leak_row(h, w, d=None):
    """(conj(h) - d*conj(w))/sqrt(na - 1) of vectors of doubles or mpmath numbers, in the caller's
    context: with d = <h, w>, the default, the textbook leak row h^H (I - w w^H)/sqrt(na - 1)."""
    h, w = ([mpmath.mpc(x) for x in np.asarray(v).tolist()] for v in (h, w))
    if d is None:
        d = mpmath.fdot(w, h, conjugate=True)
    scale = mpmath.sqrt(len(w) - 1)
    return [(mpmath.conj(hj) - d * mpmath.conj(wj)) / scale for hj, wj in zip(h, w)]


def leak_row_bound(na):
    """Bound on each entry's difference between probe_block's closed-form
    leak row (secrecy._leak_rows) and exact_leak_rows' row x of the same
    stored h and w_a, entries of magnitude 1/sqrt(na) to a few ulps.  A
    complex product is off by sqrt(2)*gamma_n(2)*|a||b|, a dot product of
    na terms, as d = <h, w_a> is (|d| <= 1), by sqrt(2)*gamma_n(2*na) * sum
    |a_k||b_k|; d*conj(w_j) adds sqrt(2)*gamma_n(2)/sqrt(na), and the
    subtraction, the scaling by sqrt(na - 1) (three roundings) and x's
    rounding u*|x_j| <= 2u/Q each, Q = sqrt(na*(na - 1)).  With a factor
    for second-order terms: 6.5 eps at na = 2, sqrt(2) eps at large na."""
    q = math.sqrt(na * (na - 1))
    return (1.0 + 1e-9) * (math.sqrt(2.0) * (gamma_n(2 * na) + 2.0 * UNIT_ROUNDOFF) + 10.0 * UNIT_ROUNDOFF) / q


def exact_leak_rows(h, w_a):
    """(rows, lo, hi): the textbook leak rows x of the stored steering rows
    ``h`` (last axis) through the stored ``w_a``'s projector, each part
    rounded once, and bounds on probe_block's A = np.vecdot(row, row).real:
    its row within leak_row_bound of x in each entry, so its norm within
    sqrt(na)*leak_row_bound of |x|, and A a sum of 2*na rounded squares."""
    big_e, g = math.sqrt(len(w_a)) * leak_row_bound(len(w_a)), gamma_n(2 * len(w_a))
    with mpmath.workdps(DIGITS):
        rows = [mp_leak_row(row, w_a) for row in np.reshape(h, (-1, len(w_a)))]
        ends = [_power_range(mpmath.norm(x), 0, big_e, g)[1:] for x in rows]
        return np.array(rows, dtype=complex).reshape(np.shape(h)), *map(np.array, zip(*ends))


def signal_range(scenario, amplitude, delta=0, k=3):
    """Bounds on alpha*Pt*a^2 taken by k roundings, for every a within ``delta`` of
    |``amplitude``|: by default probe_block's alpha*Pt*(x*x + y*y) of the stored x + iy.
    alpha*Pt is as every route rounds it; an underflow after it is within the outward ulp."""
    with mpmath.workdps(DIGITS):
        scale = mpmath.sqrt(scenario.alpha * scenario.pt_mw)
        lo, hi = _power_range(scale * abs(mpmath.mpc(amplitude)), 0, scale * delta, gamma_n(k))[1:]
        return max(0.0, lo), hi


def expected_leak_range(na, offset):
    """(A, lo, hi): secrecy._expected_leak's sum 4/(na^2*(na - 1)) * sum_m (na -
    m)*sin^2(x_m) at ``offset``, exact at the arguments x_m = fl(m*fl(pi*r))
    its sines read (r, the offset less its nearest integer, is exact), and
    bounds on its value: each sine within an ulp, the square, product, fsum
    and division by the exact na^2*(na - 1) once each, so gamma_n(8) of A."""
    y = math.pi * (offset - round(offset))
    with mpmath.workdps(DIGITS):
        an_power = 4 * mpmath.fsum((na - m) * mpmath.sin(m * y) ** 2 for m in range(1, na)) / (na * na * (na - 1))
        return an_power, *_outward(an_power * (1 - gamma_n(8)), an_power * (1 + gamma_n(8)))


def _instantaneous_leak_range(scenario, w_a, h, offset):
    """(A, lo, hi) of secrecy_metrics' one noise draw: A = |x . z|^2 of the
    stored draw z and x = (conj(h) - d*conj(w_a))/sqrt(na - 1), d =
    mp_dirichlet/na at the stored offset.  The route's d is within
    (DIRICHLET_UNITS + 1)*u, so with leak_row_bound's arithmetic each entry
    is within e = (DIRICHLET_UNITS + 10)*u/Q; np.dot adds sqrt(2)*gamma_n(2*na)
    * sum |row_j||z_j|, and abs (hypot) and the square round three times."""
    na = scenario.na
    z = [mpmath.mpc(x) for x in complex_normal_two_draws(np.random.default_rng(scenario.seed), (na,)).tolist()]
    x = mp_leak_row(h, w_a, mp_dirichlet(mpmath.mpf(offset), na) / na)
    e, dot_g = (DIRICHLET_UNITS + 10) * UNIT_ROUNDOFF / math.sqrt(na * (na - 1)), math.sqrt(2.0) * gamma_n(2 * na)
    big_e = (1 + 1e-9) * mpmath.fsum((e + dot_g * (abs(xj) + e)) * abs(zj) for xj, zj in zip(x, z))
    return _power_range(abs(mpmath.fdot(x, z)), 0, big_e, gamma_n(3))


def _projector_leak_range(scenario, w_a, h, offset):
    """(A, lo, hi) of secrecy_rates' leak: A = |x|^2 of the textbook row x,
    bounding the route's A of conj(h) @ an_projector(w_a).  The projector's
    entries are off by sqrt(2)*gamma_n(2)/na + u[k = j]; its Frobenius norm
    sums na^2 squares, adds two sums, takes a root and moves by at most the
    entries' errors' norm, so it is within t = gamma_n(na^2 + 4)/2 +
    (sqrt(2)*gamma_n(2) + sqrt(na)*u)/sqrt(na - 1) of sqrt(na - 1),
    relative.  The division and the product by conj(h) (sum_k |h_k||P_kj|
    <= 2/Q) leave row_j within (sqrt(2)*(gamma_n(2) + 2*gamma_n(2*na)) +
    3u)/Q of x_j/(1 + t_0), |t_0| <= t."""
    na, u = scenario.na, UNIT_ROUNDOFF
    t = (1 + 1e-9) * (gamma_n(na * na + 4) / 2 + (math.sqrt(2.0) * gamma_n(2) + math.sqrt(na) * u) / math.sqrt(na - 1))
    big_e = (1 + 1e-9) * (math.sqrt(2.0) * (gamma_n(2) + 2 * gamma_n(2 * na)) + 3 * u) / math.sqrt(na - 1)
    return _power_range(mpmath.norm(mp_leak_row(h, w_a)), t, big_e, gamma_n(2 * na))


# The vector route (scalar_metrics) reads steering vectors and IRS phases
# whose rounding moves its amplitude and leak row by about pi*spacing*n ulps
# of their scales (under 1e-12 at n = 500 and spacing 1.7), so a thousand
# times that holds the closed forms to the array model, not to its rounding.
MODEL_TOL = 1e-9


def _eve_ranges(scenario, include_irs, leak_range=None):
    """((gamma_b, gamma_e, rate_s), gamma_e's (lo, hi), rate_s's (lo, hi)) at
    ``scenario``'s eve, for a route whose A ``leak_range`` bounds from the
    rows steering_rows stores toward the receiver and the eve, by default
    expected_leak_range's: gamma_b as every route takes it, gamma_e and
    rate_s exact, rounded once.

    The amplitude a = sqrt(l_d)*d + sqrt(l_r)*gain is exact at the stored
    link budgets and offsets; the route's kernels are within
    DIRICHLET_UNITS*n*u, and d's division, the roots, the products and the
    sum add 4u of T = sqrt(l_d) + sqrt(l_r)*nr.  The SINR is sinr's
    expression of monotone correctly rounded operations, so sinr at the
    ranges' ends bounds it.  Each rate is within mu + 3u (mu = 2*LIBM_ULPS*u: log1p,
    the stored ln 2, the division) and the difference rounds once, so rate_s is
    within (mu + 5u)*(rb + re(hi)) of [rb - re(hi), rb - re(lo)], clamped at 0.

    The exact amplitude and expected-noise A are also held to scalar_metrics',
    from steering vectors, IRS phases and the textbook leak row: its gamma_e
    lies within sinr at the ends of signal_range for amplitudes within
    MODEL_TOL*T and of A for row norms within MODEL_TOL*2/sqrt(na - 1)."""
    from dmirs.arrays import steering_rows
    from dmirs.geometry import link_budget

    reference = scalar_metrics(scenario, scenario.eve, include_irs)
    bob, eve = link_budget(scenario, scenario.bob), link_budget(scenario, scenario.eve)
    w_a, h = steering_rows([scenario.alice_array()], np.array([[bob.phi, eve.phi]]))[0]
    offset = scenario.alice_spacing_wavelengths * (math.cos(eve.phi) - math.cos(bob.phi))
    with mpmath.workdps(DIGITS):
        amplitude = terms = mpmath.sqrt(eve.l_direct)
        amplitude *= mp_dirichlet(mpmath.mpf(offset), scenario.na) / scenario.na
        if include_irs:
            offset_r = scenario.irs_spacing_wavelengths * (math.cos(eve.theta) - math.cos(bob.theta))
            amplitude += mpmath.sqrt(eve.l_reflect) * mp_dirichlet(mpmath.mpf(offset_r), scenario.nr)
            terms += mpmath.sqrt(eve.l_reflect) * scenario.nr
        s_lo, s_hi = signal_range(scenario, amplitude, (1 + 1e-9) * (DIRICHLET_UNITS + 4) * UNIT_ROUNDOFF * terms, 2)
        expected = expected_leak_range(scenario.na, offset)
        an_power, a_lo, a_hi = leak_range(scenario, w_a, h, offset) if leak_range else expected
        m_lo, m_hi = signal_range(scenario, amplitude, MODEL_TOL * terms)
        l_lo, l_hi = _power_range(mpmath.sqrt(expected[0]), 0, MODEL_TOL * 2 / math.sqrt(scenario.na - 1), 0)[1:]
        assert sinr(scenario, m_lo, l_hi) <= reference.gamma_e <= sinr(scenario, m_hi, l_lo), "off the array model"
        leaked = (1 - mpmath.mpf(scenario.alpha)) * scenario.pt_mw * an_power
        gamma = amplitude**2 * scenario.alpha * scenario.pt_mw / (leaked + scenario.noise_mw)
        gammas = sinr(scenario, s_lo, a_hi), sinr(scenario, s_hi, a_lo)
        rate_b, rate_e, re_lo, re_hi = (mpmath.log1p(g) / mpmath.log(2) for g in (reference.gamma_b, gamma, *gammas))
        s = (2 * LIBM_ULPS + 5) * UNIT_ROUNDOFF * (rate_b + re_hi)
        rates = _outward(max(0, rate_b - re_hi - s), max(0, rate_b - re_lo + s))
        return (reference.gamma_b, float(gamma), float(max(0, rate_b - rate_e))), gammas, rates


def eve_reference(scenario, include_irs=True):
    """_eve_ranges at ``scenario``'s eve for secrecy_metrics in its an_mode."""
    return _eve_ranges(scenario, include_irs, _instantaneous_leak_range if scenario.an_mode == "instantaneous" else None)


def rate_reference(scenario, include_irs=True):
    """_eve_ranges at a rate sweep's row (scenario's eve and pt_dbm) for secrecy_rates."""
    return _eve_ranges(scenario, include_irs, _projector_leak_range)


def _ber_bounds(gamma_lo, gamma_hi):
    """QPSK BERs (qpsk_ber_scalar, bit for bit ber_from_snrs) that bound the
    BER of every SINR in [gamma_lo, gamma_hi], elementwise over arrays.

    Q(sqrt(gamma)) is decreasing and every operation before erfc is
    correctly rounded, so monotone; erfc's computed values may break
    monotonicity by its error, LIBM_ULPS ulps, at either end, so both ends
    widen by twice that: relative for normal BERs, and by as many of the
    smallest subnormal steps for BERs that erfc takes below the normal range.
    """
    rel, tiny = 2.0 * LIBM_ULPS * 2.0 * UNIT_ROUNDOFF, 2.0 * LIBM_ULPS * math.ulp(0.0)
    lo = np.array([qpsk_ber_scalar(g) for g in np.atleast_1d(gamma_hi).tolist()]) * (1.0 - rel) - tiny
    hi = np.array([qpsk_ber_scalar(g) for g in np.atleast_1d(gamma_lo).tolist()]) * (1.0 + rel) + tiny
    return lo, hi


def sinr_eve_scalar(scenario, bob, budget, w_a, include_irs=True):
    """Expected-noise probe SINR from probe_signal and the exact leak row's squared norm."""
    signal = probe_signal(scenario, bob, budget, w_a, include_irs)
    row = an_leak_row(budget, scenario.alice_array(), w_a)
    return sinr(scenario, signal, float(np.linalg.norm(row) ** 2))


def secrecy_rate(gamma_b: float, gamma_e: float) -> float:
    """Clamped rate difference [rate_b - rate_e]^+ in bits per channel use."""
    from dmirs.secrecy import rate_bits

    return max(0.0, rate_bits(gamma_b) - rate_bits(gamma_e))


def scalar_metrics(scenario, probe, include_irs=True):
    """secrecy_metrics in expected mode, whatever the scenario's an_mode, as
    one scalar pipeline: gamma_b from snr_bob, gamma_e from sinr_eve_scalar
    (the exact leak row), BERs from qpsk_ber_scalar.

    Without the IRS, the intended receiver keeps only the direct beam and
    the probe's numerator only the direct term; the artificial noise is
    unchanged, so nothing depends on the IRS element count.
    """
    from dmirs.geometry import link_budget
    from dmirs.secrecy import SecrecyMetrics, check_snr, rate_bits, snr_bob

    bob, w_a = probe_setup(scenario)
    if include_irs:
        gamma_b = snr_bob(scenario, bob)
    else:
        gamma_b = scenario.alpha * scenario.pt_mw * bob.l_direct / scenario.noise_mw
    gamma_e = sinr_eve_scalar(scenario, bob, link_budget(scenario, probe), w_a, include_irs)
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


def heatmap_per_cell(scenario, grid):
    """Bounds on the heatmap's sinr_db and ber columns, one scalar pipeline per cell.

    Returns {"sinr_db": (lo, hi), "ber": (lo, hi)}, arrays in grid order.
    Each phi's exact_leak_rows are taken once, each cell's signal_range of
    probe_amplitude's amplitude (run_heatmap's); the SINR bounds are sinr
    at both ranges' ends, as in _eve_ranges, sinr_db's 10*log10 of them
    widened by log10's and the product's rounding, the BER bounds
    _ber_bounds', in instantaneous mode meaned over the draws (seeded by the
    scenario seed and flat index): z_k . row differs from z_k . r in double,
    r the exact row's double, by e*sum|z_k| (e = leak_row_bound) and the two
    evaluations' sqrt(2)*gamma_n(2*na) * |z_k| . (2|r| + e), whose own
    evaluation 1 + gamma_n(na + 4) covers; hypot and the ends take gamma_n(6).
    """
    from dmirs.arrays import steering_vector
    from dmirs.geometry import LinkBudget
    from dmirs.secrecy import check_snr, snr_bob

    bob, w_a = probe_setup(scenario)
    check_snr(scenario.pt_dbm, scenario.noise_dbm, snr_bob(scenario, bob))
    alice, na = scenario.alice_array(), scenario.na
    e, g, dot_g, sum_g = leak_row_bound(na), gamma_n(6), math.sqrt(2.0) * gamma_n(2 * na), 1.0 + gamma_n(na + 4)
    widen = (2 * LIBM_ULPS + 2) * UNIT_ROUNDOFF  # log10, the product and second-order terms
    bounds = []  # per cell: sinr_db lo, hi, ber lo, hi
    with mpmath.workdps(DIGITS):
        for phi in np.linspace(0.0, 180.0, grid[0]).tolist():
            row, (a_lo,), (a_hi,) = exact_leak_rows(steering_vector(alice, math.radians(phi)), w_a)
            for theta in np.linspace(0.0, 180.0, grid[1]).tolist():
                cell = LinkBudget(math.radians(phi), math.radians(theta), bob.l_direct, bob.l_reflect)
                s_lo, s_hi = signal_range(scenario, probe_amplitude(scenario, bob, cell, w_a))
                gamma_lo, gamma_hi = sinr(scenario, s_lo, a_hi), sinr(scenario, s_hi, a_lo)
                db_lo, db_hi = (10 * mpmath.log10(gamma) for gamma in (gamma_lo, gamma_hi))
                if scenario.an_mode == "instantaneous":  # the BER is each draw's, meaned
                    seed = np.random.SeedSequence([scenario.seed, len(bounds)])
                    draws = complex_normal_two_draws(np.random.default_rng(seed), (scenario.mc_samples, na))
                    mags, size = np.abs(draws @ row), np.abs(draws)
                    eps = (e * size.sum(axis=1) + dot_g * (size @ (2.0 * np.abs(row) + e))) * sum_g
                    leak_lo = np.maximum(0.0, mags * (1.0 - g) - eps) * (1.0 - g)
                    leak_hi = (mags * (1.0 + g) + eps) * (1.0 + g)
                    gamma_lo, gamma_hi = sinr(scenario, s_lo, leak_hi**2), sinr(scenario, s_hi, leak_lo**2)
                ber = [b.mean() for b in _ber_bounds(gamma_lo, gamma_hi)]
                bounds.append((*_outward(db_lo - widen * abs(db_lo), db_hi + widen * abs(db_hi)), *ber))
    db_lo, db_hi, ber_lo, ber_hi = np.array(bounds).T
    return {"sinr_db": (db_lo, db_hi), "ber": (ber_lo, ber_hi)}
