"""Transmit-side construction: beamformers, the noise projector, and noise draws.

The transmitter runs two beams carrying the same unit-power symbol: one
steered straight at the intended receiver, one steered at the IRS.  On top
of the direct beam it radiates artificial noise projected into the
orthogonal complement of the direct-path steering vector, so the noise can
never reach the intended receiver's direct path while degrading every other
direction.  The direct beam carries sqrt(alpha) of the symbol plus
sqrt(1-alpha) of the projected noise; the IRS beam carries sqrt(alpha) of
the symbol only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .arrays import steering_vector
from .geometry import LinkBudget, angle_of

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Precoders:
    """Unit-norm beamformers for the direct path and the IRS path."""

    w_a: np.ndarray
    w_r: np.ndarray


def make_precoders(scene, bob: LinkBudget) -> Precoders:
    """Match each beam to its path: steering at the intended receiver ``bob``
    and at the IRS of ``scene`` (a Scenario)."""
    alice = scene.alice_array()
    return Precoders(
        w_a=steering_vector(alice, bob.phi),
        w_r=steering_vector(alice, angle_of(scene.alice, scene.irs)),
    )


def an_projector(h_ab: np.ndarray) -> np.ndarray:
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
    return p / fro


# The annotation is a string: evaluating np.random here would load numpy.random
# (and hashlib with it) in every process, though only instantaneous noise draws use it.
def complex_normal(rng: "np.random.Generator", shape: tuple) -> np.ndarray:
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
