"""Array responses: element phases, steering vectors, and the IRS phase diagonal.

The transmit array and the IRS are both uniform linear arrays on the x axis.
An element's phase advance is expressed in cycles (turns), centered on the
array midpoint:

    cycles(n, phi) = -(d/lambda) * (n - (N-1)/2) * cos(phi)

Steering vectors conjugate those cycles and carry a 1/sqrt(N) amplitude, so
they always have unit norm.  The IRS phase diagonal applies, per element,
the difference between the deflection-angle cycles and the tuned-boresight
cycles; with the deflection equal to the boresight it is exactly all ones,
which makes the tuned reflect path add up coherently element by element.
The transmitter-to-IRS matrix is rank one, so the reflect path needs only
the sum of that diagonal times the steering row toward the IRS.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np


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
    return np.exp(-2j * np.pi * element_cycles(spec, phi)) / math.sqrt(spec.n_elements)


def irs_phase_diagonal(irs: ArraySpec, theta: float, theta_b: float) -> np.ndarray:
    """Diagonal entries of the IRS phase matrix for deflection ``theta``.

    Entry l is exp(-2j*pi*(cycles_l(theta) - cycles_l(theta_b))); tuning the
    deflection to the boresight gives exactly ones.
    """
    return np.exp(-2j * np.pi * (element_cycles(irs, theta) - element_cycles(irs, theta_b)))
