"""Array responses: element phases and steering vectors.

The transmit array and the IRS are both uniform linear arrays on the x axis.
An element's phase advance is expressed in cycles (turns), centered on the
array midpoint:

    cycles(n, phi) = -(d/lambda) * (n - (N-1)/2) * cos(phi)

Steering vectors conjugate those cycles and carry a 1/sqrt(N) amplitude, so
they always have unit norm; steering_rows takes a block of them in one
exponential.  An IRS element reflects with the difference between its
cycles at the deflection angle and at the tuned boresight, which is exactly
zero when the two agree, so the tuned reflect path adds up coherently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .numerics import LazyNumpy

np = LazyNumpy(globals())  # numpy itself from the first array call on


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

    @functools.cached_property
    def _offsets(self) -> np.ndarray:
        """Read-only -(d/lambda) * (n - (N-1)/2) for every element n, built once per spec."""
        n = self.n_elements
        offsets = -self.spacing_wavelengths * (np.arange(n) - (n - 1) / 2.0)
        offsets.flags.writeable = False
        return offsets


def element_cycles(spec: ArraySpec, phi: float) -> np.ndarray:
    """Vector of per-element phase advances in cycles."""
    return spec._offsets * math.cos(phi)


def steering_vector(spec: ArraySpec, phi: float) -> np.ndarray:
    """Unit-norm steering vector toward ``phi`` (conjugated-exponential form)."""
    vector = np.multiply(element_cycles(spec, phi), -2j * np.pi)
    np.exp(vector, out=vector)
    vector /= math.sqrt(spec.n_elements)
    return vector


def steering_rows(specs, phis: np.ndarray) -> np.ndarray:
    """Unit-norm steering vectors from each spec toward each angle in its row of ``phis``.

    ``specs`` are arrays of one element count n and ``phis`` has one row per
    spec; entry [i, j] of the (len(specs), phis.shape[1], n) result is
    steering_vector(specs[i], phis[i, j]), taken in one exponential.
    """
    offsets = np.array([spec._offsets for spec in specs])[:, np.newaxis, :]
    cycles = offsets * np.cos(phis)[:, :, np.newaxis]
    return np.exp(-2j * np.pi * cycles) / math.sqrt(offsets.shape[2])
