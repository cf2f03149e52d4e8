"""Array responses: element phases, steering vectors, and the IRS matrices.

The transmit array and the IRS are both uniform linear arrays on the x axis.
An element's phase advance is expressed in cycles (turns), centered on the
array midpoint:

    cycles(n, phi) = -(d/lambda) * (n - (N-1)/2) * cos(phi)

Steering vectors conjugate those cycles and carry a 1/sqrt(N) amplitude, so
they always have unit norm.  The IRS phase matrix applies, per element, the
difference between the deflection-angle cycles and the tuned-boresight
cycles; with the deflection equal to the boresight it is exactly the
identity, which makes the tuned reflect path add up coherently element by
element.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import LinkBudget


@dataclass(frozen=True)
class ArraySpec:
    """Element count and spacing (in wavelengths) of a uniform linear array."""

    n_elements: int
    spacing_wavelengths: float = 0.5

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError(f"array needs at least one element, got {self.n_elements}")
        if not (self.spacing_wavelengths > 0.0 and math.isfinite(self.spacing_wavelengths)):
            raise ValueError(f"element spacing must be positive, got {self.spacing_wavelengths!r}")


@dataclass(frozen=True)
class ChannelRow:
    """Direct-path and reflect-path row blocks of one receiver's channel.

    Both blocks act on length-``n_elements`` transmit vectors; path-loss
    amplitudes are already folded in.
    """

    direct: np.ndarray
    cascaded: np.ndarray


def phase_shift(n: int, spec: ArraySpec, phi: float) -> float:
    """Phase advance, in cycles, of element ``n`` toward direction ``phi``."""
    if not 0 <= n < spec.n_elements:
        raise ValueError(f"element index {n} out of range for {spec.n_elements}-element array")
    return -spec.spacing_wavelengths * (n - (spec.n_elements - 1) / 2.0) * math.cos(phi)


@functools.lru_cache(maxsize=8)
def _centred_offsets(n_elements: int, spacing_wavelengths: float) -> np.ndarray:
    """Read-only -(d/lambda) * (n - (N-1)/2) for every element n.

    Keyed by the spec's two numbers rather than the spec, since callers
    build a fresh ArraySpec per evaluation.  Eight entries cover an array
    and a reflector per scene with room to spare; a 1e6-element reflector
    holds 8 MB, so the cache stays bounded.
    """
    offsets = -spacing_wavelengths * (np.arange(n_elements) - (n_elements - 1) / 2.0)
    offsets.flags.writeable = False
    return offsets


def element_cycles(spec: ArraySpec, phi: float) -> np.ndarray:
    """Vector of per-element phase advances in cycles."""
    return _centred_offsets(spec.n_elements, spec.spacing_wavelengths) * math.cos(phi)


def steering_vector(spec: ArraySpec, phi: float) -> np.ndarray:
    """Unit-norm steering vector toward ``phi`` (conjugated-exponential form)."""
    return np.exp(-2j * np.pi * element_cycles(spec, phi)) / math.sqrt(spec.n_elements)


def cascade_matrix(alice: ArraySpec, irs: ArraySpec, phi_ar: float) -> np.ndarray:
    """Rank-one transmitter-to-IRS propagation matrix.

    Outer product of the IRS receive vector (all ones) and the Hermitian of
    the transmit steering vector toward the IRS, so every row equals that
    Hermitian row.
    """
    g_t = steering_vector(alice, phi_ar)
    return np.outer(np.ones(irs.n_elements), g_t.conj())


def irs_phase_diagonal(irs: ArraySpec, theta: float, theta_b: float) -> np.ndarray:
    """Diagonal entries of the IRS phase matrix for deflection ``theta``.

    Entry l is exp(-2j*pi*(cycles_l(theta) - cycles_l(theta_b))); tuning the
    deflection to the boresight gives exactly ones.
    """
    return np.exp(-2j * np.pi * (element_cycles(irs, theta) - element_cycles(irs, theta_b)))


def irs_phase_matrix(irs: ArraySpec, theta: float, theta_b: float) -> np.ndarray:
    """Unitary diagonal IRS phase matrix (see ``irs_phase_diagonal``)."""
    return np.diag(irs_phase_diagonal(irs, theta, theta_b))


def assemble_channel(
    budget: LinkBudget, alice: ArraySpec, irs: ArraySpec, deflection: float
) -> ChannelRow:
    """Build the probe's two channel row blocks from a link budget.

    The direct block is sqrt(l_ae) times the Hermitian steering row at the
    probe's departure angle.  The cascaded block is sqrt(l_are) times the
    all-ones IRS receive row propagated through the phase matrix at
    ``deflection`` and the rank-one cascade matrix; the rank-one structure
    collapses that product to (sum of phase-diagonal entries) times the
    Hermitian steering row toward the IRS.
    """
    if not 0.0 <= deflection <= math.pi:
        raise ValueError(f"deflection angle must lie in [0, pi], got {deflection!r}")
    h_direct = steering_vector(alice, budget.phi_ae)
    g_t = steering_vector(alice, budget.phi_ar)
    phase_sum = irs_phase_diagonal(irs, deflection, budget.theta_b).sum()
    return ChannelRow(
        direct=math.sqrt(budget.l_ae) * h_direct.conj(),
        cascaded=math.sqrt(budget.l_are) * phase_sum * g_t.conj(),
    )
