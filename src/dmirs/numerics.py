"""Scalar special functions: the normal tail probability and dBm to mW.

Both are pure functions of plain floats.  LazyNumpy stands in for numpy in
the array modules until their first array call, so a process that only
evaluates closed forms never imports it.
"""

import math

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
    """Convert a dBm power level to linear milliwatts.

    Raises OverflowError when the result exceeds the float range (above
    about 3082 dBm).
    """
    if not math.isfinite(dbm):
        raise ValueError(f"dbm_to_mw requires a finite argument, got {dbm!r}")
    return 10.0 ** (dbm / 10.0)


class LazyNumpy:
    """numpy as a module's global ``np = LazyNumpy(globals())``, imported on the
    first attribute read, which rebinds that ``np`` to numpy: later lookups cost nothing."""

    def __init__(self, namespace):
        self._namespace = namespace

    def __getattr__(self, name):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)
