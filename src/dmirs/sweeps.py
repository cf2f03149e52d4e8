"""Experiment sweeps and CSV emission.

Every sweep walks an ordered grid from immutable inputs and lists its rows
lexicographically by grid index, so the output is identical however cells
are scheduled.  The heatmap builds each cell's amplitude and noise-leak row
in a Python loop, and evaluates SINR, dB and BER as arrays over a block of
cells at a time.  Randomized cells derive their generator seed from
(scenario seed, cell index), never from shared state.

A result holds one read-only numpy array per column (8 bytes a cell), and
the CSV writer formats CSV_CHUNK_ROWS rows at a time, so neither keeps a
Python object per cell.
"""

import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .geometry import LinkBudget, Position, link_budget
from .scenario import Scenario, scenario_to_dict
from .secrecy import (
    an_leak_row,
    ber_from_snrs,
    benchmark_no_irs,
    check_snr,
    mc_mean_ber,
    probe_amplitude,
    probe_block,
    probe_setup,
    secrecy_metrics,
    snr_bob,
)

HEATMAP_COLUMNS = ("phi_deg", "theta_deg", "sinr_db", "ber")
NR_SWEEP_COLUMNS = ("nr", "pt_dbm", "rs_proposed_bits", "rs_benchmark_bits")
DAB_SWEEP_COLUMNS = ("dab_m", "pt_dbm", "rs_proposed_bits", "rs_benchmark_bits")
# Rows formatted and written per sink.write call: bounds the writer's
# working set (a few hundred KiB) whatever the grid size.
CSV_CHUNK_ROWS = 4096
# Complex values in the heatmap's buffer of noise-leak rows (1 MiB): a block
# of max(1, HEATMAP_BLOCK_VALUES // na) cells is evaluated per array pass,
# whatever the grid size.
HEATMAP_BLOCK_VALUES = 65536


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
    scenario requests instantaneous noise.  Values are bit for bit those of
    the scalar per-probe functions, except that np.log10 may differ from
    math.log10 by an ulp.
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

    n_cells = n_phi * n_theta
    sinr_db = np.empty(n_cells)
    ber = np.empty(n_cells)
    block = max(1, HEATMAP_BLOCK_VALUES // scenario.na)
    amplitudes = np.empty(block, complex)
    leak_rows = np.empty((block, scenario.na), complex)
    phi_rad = [math.radians(p) for p in phi_deg.tolist()]
    theta_rad = [math.radians(t) for t in theta_deg.tolist()]
    cells = itertools.product(phi_rad, theta_rad)  # (phi, theta) in grid order
    for start in range(0, n_cells, block):
        stop = min(start + block, n_cells)
        for slot, (phi, theta) in enumerate(itertools.islice(cells, stop - start)):
            cell = LinkBudget(**fixed, phi_ae=phi, theta_e=theta)
            amplitudes[slot] = probe_amplitude(scenario, cell, precoders)
            leak_rows[slot] = an_leak_row(cell, alice, projector)
        amps, rows = amplitudes[: stop - start], leak_rows[: stop - start]
        signal, gammas = probe_block(scenario, amps, rows)
        with np.errstate(divide="ignore"):  # log10(0) = -inf dB
            sinr_db[start:stop] = 10.0 * np.log10(gammas)
        if mc:
            for index, signal_mw, row in zip(range(start, stop), signal.tolist(), rows):
                seed = np.random.SeedSequence([scenario.seed, index])
                ber[index] = mc_mean_ber(scenario, signal_mw, row, seed)
        else:
            ber[start:stop] = ber_from_snrs(gammas)
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

    The probe sits at the scenario's eavesdropper position.
    """
    nr_values = [int(v) for v in nr_values]
    pt_values = [float(v) for v in pt_dbm_values]
    if not nr_values or not pt_values:
        raise ValueError("nr and pt sweeps need at least one value each")
    return _rate_sweep(scenario, NR_SWEEP_COLUMNS, nr_values, pt_values, lambda nr: {"nr": nr})


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
    return _rate_sweep(
        scenario,
        DAB_SWEEP_COLUMNS,
        dab_values,
        pt_values,
        lambda dab: {"bob": Position(scenario.alice.x + dab * ux, scenario.alice.y + dab * uy)},
    )


def _rate_sweep(scenario, columns, axis_values, pt_values, changes) -> SweepResult:
    """Proposed and no-IRS secrecy rates at the eavesdropper, one row per (axis value, pt).

    A row's scenario is ``scenario`` with ``changes(axis value)`` and the
    row's pt_dbm applied.  Rates use the expected-noise model whatever the
    scenario's an_mode, so the curves are deterministic; the preamble
    echoes ``scenario`` as given.
    """
    proposed, benchmark = [], []
    for value in axis_values:
        for pt in pt_values:
            sc = replace(scenario, **changes(value), pt_dbm=pt, an_mode="expected")
            proposed.append(secrecy_metrics(sc, sc.eve).rate_s)
            benchmark.append(benchmark_no_irs(sc, sc.eve).rate_s)
    # the axis column is built after the rates: a scenario rejects an out-of-range nr first
    axis_column = np.repeat(np.array(axis_values), len(pt_values))
    pt_column = np.tile(np.array(pt_values), len(axis_values))
    rates = (np.array(proposed), np.array(benchmark))
    return SweepResult(
        axes={columns[0]: axis_values, columns[1]: pt_values},
        columns=columns,
        values=dict(zip(columns, (axis_column, pt_column, *rates))),
        metadata=_metadata(scenario),
    )


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
