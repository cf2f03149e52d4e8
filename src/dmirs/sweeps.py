"""Experiment sweeps and CSV emission.

Every sweep walks an ordered grid, evaluates one cell at a time from
immutable inputs, and lists its rows lexicographically by grid index, so
the output is identical however cells are scheduled.  Randomized cells
derive their generator seed from (scenario seed, cell index), never from
shared state.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .geometry import LinkBudget, Position, link_budget
from .scenario import Scenario, scenario_to_dict
from .secrecy import (
    an_leak_row,
    ber_from_snr,
    benchmark_no_irs,
    leak_sinr,
    mc_mean_ber,
    probe_setup,
    probe_signal,
    secrecy_metrics,
)

HEATMAP_COLUMNS = ("phi_deg", "theta_deg", "sinr_db", "ber")
NR_SWEEP_COLUMNS = ("nr", "pt_dbm", "rs_proposed_bits", "rs_benchmark_bits")
DAB_SWEEP_COLUMNS = ("dab_m", "pt_dbm", "rs_proposed_bits", "rs_benchmark_bits")


@dataclass(frozen=True)
class SweepResult:
    """Ordered sweep output: named axes, one row dict per grid cell, metadata."""

    axes: dict
    columns: tuple
    rows: list
    metadata: dict

    def __post_init__(self):
        expected = math.prod(len(v) for v in self.axes.values())
        if len(self.rows) != expected:
            raise ValueError(f"row count {len(self.rows)} does not match grid size {expected}")


def _metadata(scenario: Scenario, **extra) -> dict:
    meta = {"artifact": f"dmirs {__version__}", "seed": scenario.seed}
    meta.update(extra)
    meta["scenario"] = scenario_to_dict(scenario)
    return meta


def run_heatmap(scenario: Scenario, grid=(181, 181)) -> SweepResult:
    """BER map over a hypothetical receiver's two angles.

    Each cell is a receiver whose departure angle from the transmitter is
    phi and whose deflection angle at the IRS is theta, with both path
    distances pinned to the intended receiver's, so only angular
    selectivity varies.  sinr_db is the expected-noise SINR in dB; ber is
    its QPSK error rate, or a Monte-Carlo average over noise draws when the
    scenario requests instantaneous noise.
    """
    n_phi, n_theta = grid
    if n_phi < 2 or n_theta < 2:
        raise ValueError(f"heatmap grid must be at least 2x2, got {grid!r}")
    phi_deg = np.linspace(0.0, 180.0, n_phi)
    theta_deg = np.linspace(0.0, 180.0, n_theta)

    bob_budget, _, precoders, projector = probe_setup(scenario, scenario.bob)
    fixed = {k: v for k, v in vars(bob_budget).items() if k not in ("phi_ae", "theta_e")}
    alice = scenario.alice_array()
    mc = scenario.an_mode == "instantaneous"

    rows = []
    index = 0
    for phi in phi_deg:
        for theta in theta_deg:
            cell = LinkBudget(**fixed, phi_ae=math.radians(phi), theta_e=math.radians(theta))
            signal = probe_signal(scenario, cell, precoders)
            leak = an_leak_row(cell, alice, projector)
            gamma = leak_sinr(scenario, signal, leak)
            if mc:
                seed = np.random.SeedSequence([scenario.seed, index])
                ber = mc_mean_ber(scenario, signal, leak, scenario.mc_samples, seed)
            else:
                ber = ber_from_snr(gamma, 4)
            rows.append(
                {
                    "phi_deg": phi,
                    "theta_deg": theta,
                    "sinr_db": 10.0 * math.log10(gamma) if gamma > 0.0 else -math.inf,
                    "ber": ber,
                }
            )
            index += 1
    meta = _metadata(
        scenario,
        note="heatmap probes keep the intended receiver's path distances; only angles vary",
    )
    return SweepResult(
        axes={"phi_deg": list(phi_deg), "theta_deg": list(theta_deg)},
        columns=HEATMAP_COLUMNS,
        rows=rows,
        metadata=meta,
    )


def run_sweep_nr(scenario: Scenario, nr_values, pt_dbm_values) -> SweepResult:
    """Secrecy rate against IRS element count, with and without the IRS.

    The probe sits at the scenario's eavesdropper position.  Rates use the
    expected-noise model so the curves are deterministic.
    """
    nr_values = [int(v) for v in nr_values]
    pt_values = [float(v) for v in pt_dbm_values]
    if not nr_values or not pt_values:
        raise ValueError("nr and pt sweeps need at least one value each")
    rows = []
    for nr in nr_values:
        for pt in pt_values:
            sc = replace(scenario, nr=nr, pt_dbm=pt)
            proposed = secrecy_metrics(sc, sc.eve, "expected")
            benchmark = benchmark_no_irs(sc, sc.eve, "expected")
            rows.append(
                {
                    "nr": nr,
                    "pt_dbm": pt,
                    "rs_proposed_bits": proposed.rate_s,
                    "rs_benchmark_bits": benchmark.rate_s,
                }
            )
    return SweepResult(
        axes={"nr": nr_values, "pt_dbm": pt_values},
        columns=NR_SWEEP_COLUMNS,
        rows=rows,
        metadata=_metadata(scenario),
    )


def run_sweep_dab(scenario: Scenario, dab_values, pt_dbm_values) -> SweepResult:
    """Secrecy rate against the transmitter-to-receiver distance.

    The intended receiver is repositioned along the original
    transmitter-to-receiver ray at each requested distance; everything else
    stays put.
    """
    dab_values = [float(v) for v in dab_values]
    pt_values = [float(v) for v in pt_dbm_values]
    if not dab_values or not pt_values:
        raise ValueError("dab and pt sweeps need at least one value each")
    if any(d <= 0.0 for d in dab_values):
        raise ValueError("dab values must be positive")
    baseline = link_budget(scenario, scenario.bob)
    ux = (scenario.bob.x - scenario.alice.x) / baseline.d_ab
    uy = (scenario.bob.y - scenario.alice.y) / baseline.d_ab
    rows = []
    for dab in dab_values:
        bob = Position(scenario.alice.x + dab * ux, scenario.alice.y + dab * uy)
        for pt in pt_values:
            sc = replace(scenario, bob=bob, pt_dbm=pt)
            proposed = secrecy_metrics(sc, sc.eve, "expected")
            benchmark = benchmark_no_irs(sc, sc.eve, "expected")
            rows.append(
                {
                    "dab_m": dab,
                    "pt_dbm": pt,
                    "rs_proposed_bits": proposed.rate_s,
                    "rs_benchmark_bits": benchmark.rate_s,
                }
            )
    return SweepResult(
        axes={"dab_m": dab_values, "pt_dbm": pt_values},
        columns=DAB_SWEEP_COLUMNS,
        rows=rows,
        metadata=_metadata(scenario),
    )


def _format_value(value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return format(float(value), ".9g")


def write_csv(result: SweepResult, sink) -> int:
    """Write a sweep as UTF-8 CSV to a binary sink; returns bytes written.

    A '#'-prefixed preamble echoes the scenario, seed, and artifact version
    so a result file is self-describing; identical inputs produce
    byte-identical files.
    """
    lines = []
    meta = result.metadata
    lines.append(f"# {meta.get('artifact', 'dmirs')}")
    lines.append(f"# seed = {meta.get('seed')}")
    for key in sorted(meta):
        if key in ("artifact", "seed", "scenario"):
            continue
        lines.append(f"# {key} = {meta[key]}")
    if "scenario" in meta:
        lines.append(f"# scenario = {json.dumps(meta['scenario'], sort_keys=True)}")
    lines.append(",".join(result.columns))
    for row in result.rows:
        lines.append(",".join(_format_value(row[c]) for c in result.columns))
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    sink.write(payload)
    return len(payload)
