"""Transmit-side construction: beamformers, the noise projector, and signals.

The transmitter runs two beams carrying the same unit-power symbol: one
steered straight at the intended receiver, one steered at the IRS.  On top
of the direct beam it radiates artificial noise projected into the
orthogonal complement of the direct-path steering vector, so the noise can
never reach the intended receiver's direct path while degrading every other
direction.
"""

import math
from dataclasses import dataclass

import numpy as np

from .arrays import ArraySpec, steering_vector
from .geometry import LinkBudget

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Precoders:
    """Unit-norm beamformers for the direct path and the IRS path."""

    w_a: np.ndarray
    w_r: np.ndarray


@dataclass(frozen=True)
class AnProjector:
    """Artificial-noise shaping matrix, unit Frobenius norm, annihilates the direct path."""

    matrix: np.ndarray


@dataclass(frozen=True)
class TxSignal:
    """One composite transmit snapshot for the two beams."""

    x_a: np.ndarray
    x_r: np.ndarray
    alpha: float


def make_precoders(budget: LinkBudget, alice: ArraySpec) -> Precoders:
    """Match each beam to its path: steering at phi_ab and at phi_ar."""
    return Precoders(
        w_a=steering_vector(alice, budget.phi_ab),
        w_r=steering_vector(alice, budget.phi_ar),
    )


def an_projector(h_ab: np.ndarray) -> AnProjector:
    """Projector onto the complement of ``h_ab``, scaled to unit Frobenius norm.

    Needs at least two antennas; with one, the complement is empty and the
    unnormalized projector is the zero matrix.
    """
    h = np.asarray(h_ab, dtype=complex)
    n = h.shape[0]
    if n < 2:
        raise ValueError("artificial-noise projection needs at least 2 antennas")
    p = np.eye(n) - np.outer(h, h.conj())
    fro = np.linalg.norm(p)
    if fro == 0.0:
        raise ValueError("degenerate projector: the direct-path complement is empty")
    return AnProjector(matrix=p / fro)


def complex_normal(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Circularly-symmetric complex Gaussian samples, unit variance per entry.

    Real parts are the generator's first prod(shape) normals, imaginary
    parts the next prod(shape).  Each half is scaled straight into the
    result; the product by _INV_SQRT2 has the same bits as dividing the
    complex value by sqrt(2), which numpy does by multiplying with the
    reciprocal.
    """
    z = np.empty(shape, dtype=complex)
    np.multiply(rng.standard_normal(shape), _INV_SQRT2, out=z.real)
    np.multiply(rng.standard_normal(shape), _INV_SQRT2, out=z.imag)
    return z


def sample_an(n: int, rng_seed) -> np.ndarray:
    """Draw one artificial-noise vector of ``n`` entries, reproducible per seed."""
    if n < 1:
        raise ValueError(f"sample count must be at least 1, got {n}")
    return complex_normal(np.random.default_rng(rng_seed), (n,))


def synthesize_tx(
    precoders: Precoders,
    projector: AnProjector,
    s: complex,
    z: np.ndarray,
    alpha: float,
) -> TxSignal:
    """Compose the two transmit vectors for symbol ``s`` and noise draw ``z``.

    The direct beam carries sqrt(alpha) of the symbol plus sqrt(1-alpha) of
    the projected noise; the IRS beam carries sqrt(alpha) of the symbol only.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"power split alpha must lie in [0, 1], got {alpha!r}")
    return TxSignal(
        x_a=math.sqrt(alpha) * precoders.w_a * s
        + math.sqrt(1.0 - alpha) * (projector.matrix @ z),
        x_r=math.sqrt(alpha) * precoders.w_r * s,
        alpha=alpha,
    )
