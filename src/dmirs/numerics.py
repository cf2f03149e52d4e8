"""Scalar special functions, dB unit conversions, and small complex-array helpers.

Everything here is pure and operates on plain floats or numpy arrays; the
rest of the library builds channel vectors and matrices on top of these.
"""

import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)


def q_function(u: float) -> float:
    """Tail probability of the standard normal distribution.

    Evaluated through the complementary error function, which keeps the
    absolute error well below 1e-10 over the range this simulator uses.
    """
    if not math.isfinite(u):
        raise ValueError(f"q_function requires a finite argument, got {u!r}")
    return 0.5 * math.erfc(u / _SQRT2)


def dbm_to_mw(dbm: float) -> float:
    """Convert a dBm power level to linear milliwatts."""
    if not math.isfinite(dbm):
        raise ValueError(f"dbm_to_mw requires a finite argument, got {dbm!r}")
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    """Convert linear milliwatts to dBm."""
    if not (math.isfinite(mw) and mw > 0.0):
        raise ValueError(f"mw_to_dbm requires a positive finite argument, got {mw!r}")
    return 10.0 * math.log10(mw)


@dataclass(frozen=True)
class PowerLevel:
    """A power value carried in both dBm and linear milliwatts."""

    dbm: float
    mw: float

    @classmethod
    def from_dbm(cls, dbm: float) -> "PowerLevel":
        return cls(dbm=dbm, mw=dbm_to_mw(dbm))

    @classmethod
    def from_mw(cls, mw: float) -> "PowerLevel":
        return cls(dbm=mw_to_dbm(mw), mw=mw)


def inner(v: np.ndarray, w: np.ndarray) -> complex:
    """Hermitian inner product; the first argument is conjugated."""
    return complex(np.vdot(v, w))


def norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, or Frobenius norm of a matrix."""
    return float(np.linalg.norm(v))


def hermitian(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dense matrix-vector product."""
    return np.asarray(m) @ np.asarray(v)
