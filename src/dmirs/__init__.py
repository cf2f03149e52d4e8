"""Deterministic link-level simulator for IRS-aided directional-modulation
secure transmission: legitimate-link SNR, eavesdropper SINR, BER, and
secrecy rates from scene geometry, plus CSV experiment sweeps."""

__version__ = "0.1.0"

from .arrays import ArraySpec
from .geometry import GeometryError, LinkBudget, Position, link_budget
from .numerics import dbm_to_mw, q_function
from .scenario import ConfigError, Scenario, parse_config, serialize_config
from .secrecy import (
    SecrecyMetrics,
    benchmark_no_irs,
    cascaded_gain_closed,
    secrecy_metrics,
    snr_bob,
)
from .sweeps import SweepResult, run_heatmap, run_sweep_dab, run_sweep_nr, write_csv
from .transmitter import Precoders, an_projector, make_precoders

__all__ = [
    "ArraySpec",
    "ConfigError",
    "GeometryError",
    "LinkBudget",
    "Position",
    "Precoders",
    "Scenario",
    "SecrecyMetrics",
    "SweepResult",
    "an_projector",
    "benchmark_no_irs",
    "cascaded_gain_closed",
    "dbm_to_mw",
    "link_budget",
    "make_precoders",
    "parse_config",
    "q_function",
    "run_heatmap",
    "run_sweep_dab",
    "run_sweep_nr",
    "secrecy_metrics",
    "serialize_config",
    "snr_bob",
    "write_csv",
]
