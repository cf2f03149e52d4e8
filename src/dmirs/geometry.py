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
"""

import math
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
    """All distances, angles, and path-loss gains one probe evaluation needs.

    ``phi_*`` are departure angles at the transmitter, ``theta_*`` are
    deflection angles at the IRS; ``l_*`` are linear path-loss gains.
    ``theta_b`` is the IRS-to-intended-receiver angle the IRS is tuned to,
    ``theta_e`` / ``phi_ae`` / ``l_ae`` / ``l_are`` describe the probe.
    """

    d_ab: float
    d_ar: float
    d_rb: float
    d_ae: float
    d_re: float
    phi_ab: float
    phi_ar: float
    phi_ae: float
    theta_b: float
    theta_e: float
    l_ab: float
    l_arb: float
    l_ae: float
    l_are: float


def distance(a: Position, b: Position) -> float:
    """Euclidean distance between two distinct points."""
    d = math.hypot(b.x - a.x, b.y - a.y)
    if d == 0.0:
        raise GeometryError(f"coincident points {a} and {b}")
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

    Raises GeometryError when the gain exceeds the float range, i.e. when d
    is below about 1e-154 * d0.
    """
    if not (d > 0.0 and math.isfinite(d)):
        raise GeometryError(f"distance must be positive and finite, got {d!r}")
    if not (d0 > 0.0 and math.isfinite(d0)):
        raise GeometryError(f"reference distance must be positive and finite, got {d0!r}")
    try:
        return (d / d0) ** -2
    except (OverflowError, ZeroDivisionError):  # d/d0 below 1e-154, or underflowed to 0
        raise GeometryError(_gain_overflow(f"distance {d!r} m", d0)) from None


def combined_path_loss(d_first: float, d_second: float, d0: float, rule: str) -> float:
    """Two-hop reflect-path gain under the configured combine rule."""
    if rule == "sum-distance":
        return path_loss(d_first + d_second, d0)
    if rule == "product":
        gain = path_loss(d_first, d0) * path_loss(d_second, d0)
        if gain == math.inf:
            raise GeometryError(_gain_overflow(f"distances {d_first!r} m and {d_second!r} m", d0))
        return gain
    raise ValueError(f"unknown path_loss_combine rule {rule!r}; expected one of {PATH_LOSS_RULES}")


def _gain_overflow(distances: str, d0: float) -> str:
    return (
        f"path-loss gain at {distances} with d0_m = {d0!r} exceeds the float range; "
        "raise the distance or lower d0_m"
    )


def link_budget(scene, probe: Position) -> LinkBudget:
    """Assemble every distance, angle, and loss for a probe in the scene.

    ``scene`` provides alice, bob, irs positions plus d0_m and
    path_loss_combine (a Scenario works).  The probe may coincide with bob
    (the intended receiver) but not with alice or the IRS.
    """
    alice, bob, irs = scene.alice, scene.bob, scene.irs
    d0 = scene.d0_m
    rule = scene.path_loss_combine

    d_ab = distance(alice, bob)
    d_ar = distance(alice, irs)
    d_rb = distance(irs, bob)
    d_ae = distance(alice, probe)
    d_re = distance(irs, probe)

    return LinkBudget(
        d_ab=d_ab,
        d_ar=d_ar,
        d_rb=d_rb,
        d_ae=d_ae,
        d_re=d_re,
        phi_ab=angle_of(alice, bob),
        phi_ar=angle_of(alice, irs),
        phi_ae=angle_of(alice, probe),
        theta_b=angle_of(irs, bob),
        theta_e=angle_of(irs, probe),
        l_ab=path_loss(d_ab, d0),
        l_arb=combined_path_loss(d_ar, d_rb, d0, rule),
        l_ae=path_loss(d_ae, d0),
        l_are=combined_path_loss(d_ar, d_re, d0, rule),
    )
