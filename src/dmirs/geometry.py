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
"""

import math
import sys
from dataclasses import dataclass

PATH_LOSS_RULES = ("sum-distance", "product")


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
    gain and ``l_reflect`` the two-hop gain through the IRS.
    """

    phi: float
    theta: float
    l_direct: float
    l_reflect: float


def distance(a: Position, b: Position) -> float:
    """Euclidean distance between two distinct points; it must be finite."""
    d = math.hypot(b.x - a.x, b.y - a.y)
    if d == 0.0:
        raise GeometryError(f"coincident points {a} and {b}")
    if d == math.inf:
        raise GeometryError(f"points {a} and {b} are too far apart: their distance exceeds the float range")
    return d


def angle_of(origin: Position, target: Position) -> float:
    """Unsigned angle in [0, pi] between the +x axis and origin->target."""
    dx = target.x - origin.x
    dy = target.y - origin.y
    if dx == 0.0 and dy == 0.0:
        raise GeometryError(f"coincident points {origin} and {target}")
    return math.atan2(abs(dy), dx)


def path_loss(d: float, d0: float) -> float:
    """Free-space path-loss gain (d/d0)**-2.

    Raises GeometryError when the gain leaves the normal float range, i.e.
    when d/d0 is below about 1e-154 or above about 6.7e153.
    """
    if not (d > 0.0 and math.isfinite(d)):
        raise GeometryError(f"distance must be positive and finite, got {d!r}")
    if not (d0 > 0.0 and math.isfinite(d0)):
        raise GeometryError(f"reference distance must be positive and finite, got {d0!r}")
    try:
        gain = (d / d0) ** -2
    except (OverflowError, ZeroDivisionError):  # d/d0 below 1e-154, or underflowed to 0
        gain = math.inf
    if not sys.float_info.min <= gain < math.inf:
        raise GeometryError(_gain_overflow(f"distance {d!r} m", d0, gain))
    return gain


def combined_path_loss(d_first: float, d_second: float, d0: float, rule: str) -> float:
    """Two-hop reflect-path gain under the configured combine rule."""
    if rule == "sum-distance":
        if d_first + d_second == math.inf:
            raise GeometryError(
                f"reflect-path hops of {d_first!r} m and {d_second!r} m add up beyond the float range"
            )
        return path_loss(d_first + d_second, d0)
    if rule == "product":
        gain = path_loss(d_first, d0) * path_loss(d_second, d0)
        if not sys.float_info.min <= gain < math.inf:
            raise GeometryError(_gain_overflow(f"distances {d_first!r} m and {d_second!r} m", d0, gain))
        return gain
    raise ValueError(f"unknown path_loss_combine rule {rule!r}; expected one of {PATH_LOSS_RULES}")


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
    one, but may not coincide with alice or the IRS.  The reflect gain is
    evaluated before the direct one, so a receiver too far for both paths
    is named by its reflect-path hops.
    """
    alice, irs, d0 = scene.alice, scene.irs, scene.d0_m
    d_direct = distance(alice, receiver)
    l_reflect = combined_path_loss(distance(alice, irs), distance(irs, receiver), d0, scene.path_loss_combine)
    return LinkBudget(angle_of(alice, receiver), angle_of(irs, receiver), path_loss(d_direct, d0), l_reflect)
