"""Experiment sweeps and CSV emission.

Every sweep walks an ordered grid, evaluates one cell at a time from
immutable inputs, and lists its rows lexicographically by grid index, so
the output is identical however cells are scheduled.  Randomized cells
derive their generator seed from (scenario seed, cell index), never from
shared state.

A result holds one read-only numpy array per column (8 bytes a cell), and
the CSV writer formats CSV_CHUNK_ROWS rows at a time, so neither keeps a
Python object per cell.
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
    check_snr,
    leak_sinr,
    mc_mean_ber,
    probe_setup,
    probe_signal,
    secrecy_metrics,
    snr_bob,
)

HEATMAP_COLUMNS = ("phi_deg", "theta_deg", "sinr_db", "ber")
NR_SWEEP_COLUMNS = ("nr", "pt_dbm", "rs_proposed_bits", "rs_benchmark_bits")
DAB_SWEEP_COLUMNS = ("dab_m", "pt_dbm", "rs_proposed_bits", "rs_benchmark_bits")
# Rows formatted and written per sink.write call: bounds the writer's
# working set (a few hundred KiB) whatever the grid size.
CSV_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class SweepResult:
    """Ordered sweep output: named axes, metadata, and ``values``, one
    read-only 1-D array per column, each in grid order."""

    axes: dict
    columns: tuple
    values: dict
    metadata: dict

    def __post_init__(self):
        expected = math.prod(len(v) for v in self.axes.values())
        if set(self.values) != set(self.columns):
            raise ValueError(f"value columns {sorted(self.values)} do not match {self.columns}")
        for name in self.columns:
            column = self.values[name]
            if column.ndim != 1 or len(column) != expected:
                raise ValueError(
                    f"column {name} has shape {column.shape}, grid size is {expected}"
                )
            column.flags.writeable = False


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
    # cells keep the receiver's path losses, so no cell's SINR exceeds the receiver's SNR
    check_snr(scenario, snr_bob(scenario, bob_budget))
    fixed = {k: v for k, v in vars(bob_budget).items() if k not in ("phi_ae", "theta_e")}
    alice = scenario.alice_array()
    mc = scenario.an_mode == "instantaneous"

    sinr_db = np.empty(n_phi * n_theta)
    ber = np.empty(n_phi * n_theta)
    index = 0
    for phi in phi_deg.tolist():
        for theta in theta_deg.tolist():
            cell = LinkBudget(**fixed, phi_ae=math.radians(phi), theta_e=math.radians(theta))
            signal = probe_signal(scenario, cell, precoders)
            leak = an_leak_row(cell, alice, projector)
            gamma = leak_sinr(scenario, signal, leak)
            if mc:
                seed = np.random.SeedSequence([scenario.seed, index])
                ber[index] = mc_mean_ber(scenario, signal, leak, scenario.mc_samples, seed)
            else:
                ber[index] = ber_from_snr(gamma)
            sinr_db[index] = 10.0 * math.log10(gamma) if gamma > 0.0 else -math.inf
            index += 1
    meta = _metadata(
        scenario,
        note="heatmap probes keep the intended receiver's path distances; only angles vary",
    )
    return SweepResult(
        axes={"phi_deg": list(phi_deg), "theta_deg": list(theta_deg)},
        columns=HEATMAP_COLUMNS,
        values={
            "phi_deg": np.repeat(phi_deg, n_theta),
            "theta_deg": np.tile(theta_deg, n_phi),
            "sinr_db": sinr_db,
            "ber": ber,
        },
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
    proposed, benchmark = _rate_columns(
        replace(scenario, nr=nr, pt_dbm=pt) for nr in nr_values for pt in pt_values
    )
    return SweepResult(
        axes={"nr": nr_values, "pt_dbm": pt_values},
        columns=NR_SWEEP_COLUMNS,
        values={
            # built after the rates: a scenario rejects an out-of-range nr first
            "nr": np.repeat(np.array(nr_values, dtype=np.int64), len(pt_values)),
            "pt_dbm": np.tile(np.array(pt_values), len(nr_values)),
            "rs_proposed_bits": proposed,
            "rs_benchmark_bits": benchmark,
        },
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
    proposed, benchmark = _rate_columns(
        replace(
            scenario,
            bob=Position(scenario.alice.x + dab * ux, scenario.alice.y + dab * uy),
            pt_dbm=pt,
        )
        for dab in dab_values
        for pt in pt_values
    )
    return SweepResult(
        axes={"dab_m": dab_values, "pt_dbm": pt_values},
        columns=DAB_SWEEP_COLUMNS,
        values={
            "dab_m": np.repeat(np.array(dab_values), len(pt_values)),
            "pt_dbm": np.tile(np.array(pt_values), len(dab_values)),
            "rs_proposed_bits": proposed,
            "rs_benchmark_bits": benchmark,
        },
        metadata=_metadata(scenario),
    )


def _rate_columns(scenarios):
    """Proposed and no-IRS secrecy rates at each scenario's eavesdropper, as two arrays."""
    proposed, benchmark = [], []
    for sc in scenarios:
        proposed.append(secrecy_metrics(sc, sc.eve, "expected").rate_s)
        benchmark.append(benchmark_no_irs(sc, sc.eve, "expected").rate_s)
    return np.array(proposed), np.array(benchmark)


def write_csv(result: SweepResult, sink) -> int:
    """Write a sweep as UTF-8 CSV to a binary sink; returns bytes written.

    A '#'-prefixed preamble echoes the scenario, seed, and artifact version
    so a result file is self-describing; identical inputs produce
    byte-identical files.  Integer columns print as integers, the rest with
    nine significant digits ("%.9g", the same text as format(x, ".9g")).
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
    head = ("\n".join(lines) + "\n").encode("utf-8")
    sink.write(head)
    written = len(head)

    columns = [result.values[c] for c in result.columns]
    row_format = ",".join(
        "%d" if np.issubdtype(c.dtype, np.integer) else "%.9g" for c in columns
    ) + "\n"
    for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        rows = zip(*(c[start : start + CSV_CHUNK_ROWS].tolist() for c in columns))
        payload = "".join([row_format % row for row in rows]).encode("utf-8")
        sink.write(payload)
        written += len(payload)
    return written
