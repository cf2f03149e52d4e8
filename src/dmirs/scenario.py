"""Experiment configuration: the Scenario record and its JSON form.

A scenario is a single JSON object; every field is optional and defaults to
the baseline setup below.  Unknown keys are rejected outright so that a
typo cannot silently fall back to a default.

    {
      "na": 16, "nr": 50,
      "alice_spacing_wavelengths": 0.5, "irs_spacing_wavelengths": 0.5,
      "pt_dbm": 25.0, "noise_dbm": -20.0,
      "alpha": 0.6, "d0_m": 1.0,
      "alice": [0.0, 0.0], "bob": [20.0, 0.0],
      "irs": [20.0, -15.0], "eve": [30.0, 20.0],
      "path_loss_combine": "sum-distance",
      "an_mode": "expected",
      "seed": 0, "mc_samples": 1000
    }

Sizes are bounded so that a typo fails validation instead of exhausting
memory; each bound keeps the largest array it sizes in the hundreds of MiB
at most (complex values take 16 bytes):

  * na <= MAX_NA (1024): the noise projector holds na*na complex values
    (16 MiB),
  * nr <= MAX_NR (1,000,000): a heatmap cell's IRS phase row holds nr complex
    values (15 MiB),
  * mc_samples <= MAX_MC_SAMPLES (10,000): one heatmap cell draws
    mc_samples*na complex noise values (156 MiB at na = MAX_NA).
"""

import functools
import json
import math
import numbers
from dataclasses import dataclass, fields

from .arrays import ArraySpec
from .geometry import PATH_LOSS_RULES, GeometryError, Position
from .numerics import dbm_to_mw
from .secrecy import AN_MODES


MAX_NA = 1024
MAX_NR = 1_000_000
MAX_MC_SAMPLES = 10_000


class ConfigError(ValueError):
    """Raised for malformed or out-of-range configuration input."""


@dataclass(frozen=True)
class Scenario:
    """Complete description of one experiment.

    __post_init__ is the whole validation.  parse_config, the command-line
    overrides and the rate sweeps build their scenes with fill_scenario,
    which fills the fields without the constructor and runs it once.
    """

    na: int = 16
    nr: int = 50
    alice_spacing_wavelengths: float = 0.5
    irs_spacing_wavelengths: float = 0.5
    pt_dbm: float = 25.0
    noise_dbm: float = -20.0
    alpha: float = 0.6
    d0_m: float = 1.0
    alice: Position = Position(0.0, 0.0)
    bob: Position = Position(20.0, 0.0)
    irs: Position = Position(20.0, -15.0)
    eve: Position = Position(30.0, 20.0)
    path_loss_combine: str = "sum-distance"
    an_mode: str = "expected"
    seed: int = 0
    mc_samples: int = 1000

    def __post_init__(self):
        # four plain ints, the usual case, skip the per-field check
        if not type(self.na) is type(self.nr) is type(self.seed) is type(self.mc_samples) is int:
            for name in ("na", "nr", "seed", "mc_samples"):
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise ConfigError(f"{name} must be an integer, got {brief_repr(value)}")
                object.__setattr__(self, name, int(value))  # e.g. numpy integers, which json cannot write
        if self.na < 2:
            raise ConfigError(f"na must be at least 2 (noise projection needs it), got {brief_repr(self.na)}")
        if self.na > MAX_NA:
            raise ConfigError(f"na must be at most {MAX_NA}, got {brief_repr(self.na)}")
        if self.nr < 1:
            raise ConfigError(f"nr must be at least 1, got {brief_repr(self.nr)}")
        if self.nr > MAX_NR:
            raise ConfigError(f"nr must be at most {MAX_NR}, got {brief_repr(self.nr)}")
        for name in ("alice_spacing_wavelengths", "irs_spacing_wavelengths", "d0_m"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be positive and finite, got {brief_repr(value)}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha must lie in [0, 1], got {brief_repr(self.alpha)}")
        for name in ("pt_dbm", "noise_dbm"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {brief_repr(value)}")
            try:
                mw = dbm_to_mw(value)
            except OverflowError:
                mw = math.inf
            if not 0.0 < mw < math.inf:
                raise ConfigError(f"{name} = {brief_repr(value)} dBm is not a finite, nonzero power in mW")
        if self.path_loss_combine not in PATH_LOSS_RULES:
            rule = brief_repr(self.path_loss_combine)
            raise ConfigError(f"path_loss_combine must be one of {PATH_LOSS_RULES}, got {rule}")
        if self.an_mode not in AN_MODES:
            raise ConfigError(f"an_mode must be one of {AN_MODES}, got {brief_repr(self.an_mode)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {brief_repr(self.seed)}")
        if not 1 <= self.mc_samples <= MAX_MC_SAMPLES:
            raise ConfigError(
                f"mc_samples must lie in [1, {MAX_MC_SAMPLES}], got {brief_repr(self.mc_samples)}"
            )
        alice, bob, irs, eve = self.alice, self.bob, self.irs, self.eve
        # eve is a probe: it may sit on bob but not on alice or the IRS.  Coordinates
        # compare as Position.__eq__ compares them, so -0.0 meets 0.0.
        for name_a, a, name_b, b in (
            ("alice", alice, "bob", bob),
            ("alice", alice, "irs", irs),
            ("bob", bob, "irs", irs),
            ("eve", eve, "alice", alice),
            ("eve", eve, "irs", irs),
        ):
            if a.x == b.x and a.y == b.y:
                raise GeometryError(f"{name_a} and {name_b} coincide at {a}")

    def alice_array(self) -> ArraySpec:
        return _array_spec(self.na, self.alice_spacing_wavelengths)

    def irs_array(self) -> ArraySpec:
        return _array_spec(self.nr, self.irs_spacing_wavelengths)

    @property
    def pt_mw(self) -> float:
        return dbm_to_mw(self.pt_dbm)

    @property
    def noise_mw(self) -> float:
        return dbm_to_mw(self.noise_dbm)


@functools.lru_cache(maxsize=8)
def _array_spec(n_elements: int, spacing_wavelengths: float) -> ArraySpec:
    """The (immutable) spec of an array, built once per element count and spacing.

    Every probe evaluation asks its scenario for both arrays; eight entries
    cover a transmitter and a reflector per scene with room to spare.
    """
    return ArraySpec(n_elements, spacing_wavelengths)


def brief_repr(value) -> str:
    """repr(value) for a one-line error message, cut as _brief cuts text."""
    return _brief(repr(value))


def _brief(text: str) -> str:
    """``text`` if at most 60 characters, else its first 60 and the full length."""
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


def _as_float(name, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {brief_repr(value)}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{name} must lie within the float range, got {brief_repr(value)}") from None


def _as_position(name, value):
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        raise ConfigError(f"{name} must be a [x, y] pair of numbers, got {brief_repr(value)}")
    return Position(_as_float(name, value[0]), _as_float(name, value[1]))


def _as_string(name, value):
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {brief_repr(value)}")
    return value


# Scenario itself rejects a non-integer count, seed or sample number
_COERCERS = {int: lambda name, value: value, float: _as_float, Position: _as_position, str: _as_string}
_FIELD_TYPES = {f.name: f.type for f in fields(Scenario)}
_DEFAULTS = {f.name: f.default for f in fields(Scenario)}


def fill_scenario(base: dict, change: dict) -> Scenario:
    """Scenario(**{**base, **change}) without the frozen constructor's
    per-field setattr: the same field dict, checked by one full __post_init__."""
    scene = object.__new__(Scenario)
    vars(scene).update(base, **change)
    scene.__post_init__()
    return scene


def parse_config(text: str) -> Scenario:
    """Parse and validate a JSON scenario, applying defaults for absent fields."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ConfigError("config nests arrays or objects too deeply to parse") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - _FIELD_TYPES.keys())
    if unknown:
        raise ConfigError(f"unknown config keys: {_brief(', '.join(unknown))}")
    return fill_scenario(
        _DEFAULTS, {name: _COERCERS[_FIELD_TYPES[name]](name, value) for name, value in raw.items()}
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    """Plain-JSON dictionary form of a scenario (inverse of parse_config)."""
    out = {}
    for f in fields(Scenario):
        value = getattr(scenario, f.name)
        if f.type is Position:
            value = [value.x, value.y]
        out[f.name] = value
    return out


def serialize_config(scenario: Scenario) -> str:
    """Canonical JSON text for a scenario; parse_config round-trips it."""
    return json.dumps(scenario_to_dict(scenario), sort_keys=True, indent=2) + "\n"
