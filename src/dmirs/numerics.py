"""Scalar special functions: the normal tail probability and dBm to mW.

Both are pure functions of plain floats.
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
