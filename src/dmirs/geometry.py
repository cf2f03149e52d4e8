"""Scene geometry: positions, angles, distances, and free-space path loss.

Conventions (fixed for the whole artifact):
  * the scene is 2D; both the transmit array and the IRS element line lie
    along the +x axis,
  * angles are unsigned, measured in [0, pi] between the +x axis and the
    line of sight, so reflecting the scene across the x axis changes nothing,
  * path-loss gains follow the inverse-square law (d/d0)**-2, and the
    two-hop reflect path combines per ``path_loss_combine``: the default
    "sum-distance" rule applies the law to the total travelled distance,
    while "product" multiplies the two per-hop gains.

A receiver (the intended one, an eavesdropper or a heatmap cell) is one
LinkBudget: its departure and deflection angles and its two path gains.
link_budget takes each hop's distance and angle from one coordinate
difference; tests/oracles.py keeps the per-quantity helpers it replaces
(path_loss, combined_path_loss) as its reference.
"""

import math
import sys
from dataclasses import dataclass

PATH_LOSS_RULES = ("sum-distance", "product")
_MIN_NORMAL = sys.float_info.min


class GeometryError(ValueError):
    """Raised for degenerate scenes (coincident points, non-positive distances)."""


@dataclass(frozen=True)
class Position:
    """A 2D point in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeometryError(f"position coordinates must be finite, got {self!r}")


@dataclass(frozen=True)
class LinkBudget:
    """One receiver's angles and linear path-loss gains.

    ``phi`` is its departure angle at the transmitter and ``theta`` its
    deflection angle at the IRS; ``l_direct`` is the transmitter-to-receiver
    gain and ``l_reflect`` the two-hop gain through the IRS.  link_budget
    fills the fields without the generated __init__, so the record takes no
    __post_init__.
    """

    phi: float
    theta: float
    l_direct: float
    l_reflect: float


def distance(a: Position, b: Position) -> float:
    """Euclidean distance between two distinct points; it must be finite."""
    d = math.hypot(b.x - a.x, b.y - a.y)
    if not 0.0 < d < math.inf:
        raise _apart(a, b, d)
    return d


def _apart(a: Position, b: Position, d: float) -> GeometryError:
    """The error for points ``a`` and ``b`` whose distance ``d`` is 0 or beyond the float range."""
    if d == 0.0:
        return GeometryError(f"coincident points {a} and {b}")
    return GeometryError(f"points {a} and {b} are too far apart: their distance exceeds the float range")


def angle_of(origin: Position, target: Position) -> float:
    """Unsigned angle in [0, pi] between the +x axis and origin->target."""
    dx = target.x - origin.x
    dy = target.y - origin.y
    if dx == 0.0 and dy == 0.0:
        raise GeometryError(f"coincident points {origin} and {target}")
    return math.atan2(abs(dy), dx)


def _gain(d: float, d0: float) -> float:
    """Free-space path-loss gain (d/d0)**-2 at a positive, finite distance ``d``.

    Raises GeometryError for a d0 that is not positive and finite, and when
    the gain leaves the normal float range, i.e. when d/d0 is below about
    1e-154 or above about 6.7e153.
    """
    if not (d0 > 0.0 and math.isfinite(d0)):
        raise GeometryError(f"reference distance must be positive and finite, got {d0!r}")
    try:
        gain = (d / d0) ** -2
    except (OverflowError, ZeroDivisionError):  # d/d0 below 1e-154, or underflowed to 0
        gain = math.inf
    if not _MIN_NORMAL <= gain < math.inf:
        raise GeometryError(_gain_overflow(f"distance {d!r} m", d0, gain))
    return gain


def _gain_overflow(distances: str, d0: float, gain: float) -> str:
    """Message for a gain above the float range or, if ``gain`` < 1, below its normal range."""
    if gain < 1.0:
        limit, fix = "falls below the normal", "lower the distance or raise"
    else:
        limit, fix = "exceeds the", "raise the distance or lower"
    return f"path-loss gain at {distances} with d0_m = {d0!r} {limit} float range; {fix} d0_m"


def link_budget(scene, receiver: Position) -> LinkBudget:
    """The angles and path-loss gains of one receiver in the scene.

    ``scene`` provides the alice and irs positions plus d0_m and
    path_loss_combine (a Scenario works).  The receiver may be the intended
    one, but may not coincide with alice or the IRS.  One coordinate
    difference per hop gives both its distance and its angle, for the
    transmitter-to-receiver and the IRS-to-receiver hop; the
    transmitter-to-IRS distance is taken once.  Checks run in a fixed order:
    the three distances (transmitter to receiver, to IRS, IRS to receiver),
    then the reflect gain, then the direct one, so a receiver too far for
    both paths is named by its reflect-path hops.
    """
    alice, irs, d0 = scene.alice, scene.irs, scene.d0_m
    dx, dy = receiver.x - alice.x, receiver.y - alice.y
    d_direct = math.hypot(dx, dy)
    if not 0.0 < d_direct < math.inf:
        raise _apart(alice, receiver, d_direct)
    d_first = distance(alice, irs)
    rx, ry = receiver.x - irs.x, receiver.y - irs.y
    d_second = math.hypot(rx, ry)
    if not 0.0 < d_second < math.inf:
        raise _apart(irs, receiver, d_second)
    rule = scene.path_loss_combine
    if rule == "sum-distance":
        if d_first + d_second == math.inf:
            raise GeometryError(
                f"reflect-path hops of {d_first!r} m and {d_second!r} m add up beyond the float range"
            )
        l_reflect = _gain(d_first + d_second, d0)
    elif rule == "product":
        l_reflect = _gain(d_first, d0) * _gain(d_second, d0)
        if not _MIN_NORMAL <= l_reflect < math.inf:
            raise GeometryError(_gain_overflow(f"distances {d_first!r} m and {d_second!r} m", d0, l_reflect))
    else:
        raise ValueError(f"unknown path_loss_combine rule {rule!r}; expected one of {PATH_LOSS_RULES}")
    budget = object.__new__(LinkBudget)  # filled as the generated __init__ would, without its four setattr calls
    vars(budget).update(
        phi=math.atan2(abs(dy), dx), theta=math.atan2(abs(ry), rx), l_direct=_gain(d_direct, d0), l_reflect=l_reflect
    )
    return budget
