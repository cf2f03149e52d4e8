"""Transmit-side construction: the noise projector and noise draws.

The transmitter runs two beams carrying the same unit-power symbol, each
matched to its path: the steering vector toward the intended receiver and
the steering vector toward the IRS.  On top of the direct beam it radiates
artificial noise projected into the orthogonal complement of the direct-path
steering vector, so the noise can never reach the intended receiver's direct
path while degrading every other direction.  The direct beam carries
sqrt(alpha) of the symbol plus sqrt(1-alpha) of the projected noise; the IRS
beam carries sqrt(alpha) of the symbol only.
"""

import math

import numpy as np

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def an_projector(h_ab: np.ndarray) -> np.ndarray:
    """Projector onto the complement of ``h_ab``, scaled to unit Frobenius norm.

    Needs at least two antennas; with one, the complement is empty and the
    unnormalized projector is the zero matrix.  With n >= 2, I - h h^H has
    rank at least n - 1, so its norm is never 0.  Built in place in one
    array: -h h^H, 1 added to its diagonal, then divided by the square
    root of the real and imaginary dot products that np.linalg.norm sums.
    Bit for bit (I - h h^H) / np.linalg.norm(I - h h^H), up to the sign of
    a zero entry.
    """
    h = np.asarray(h_ab, dtype=complex)
    n = h.shape[0]
    if n < 2:
        raise ValueError("artificial-noise projection needs at least 2 antennas")
    p = h[:, np.newaxis] * -h.conj()
    flat = p.reshape(-1)
    flat[:: n + 1] += 1.0
    re, im = flat.real, flat.imag
    p /= math.sqrt(re.dot(re) + im.dot(im))
    return p


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
