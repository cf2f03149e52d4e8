"""Experiment sweeps and CSV emission.

Every sweep walks an ordered grid from immutable inputs and lists its rows
lexicographically by grid index, so the output is identical however cells
are scheduled.  Each hands its physics to one secrecy call, which sizes its
own array passes: the heatmap its angle axes to secrecy.probe_grid, and a
rate sweep one Scenario per axis value to secrecy.secrecy_rates
(_rate_sweep), which rates them all, with and without the IRS, and computes
no BER.

A result holds one read-only numpy array per column (8 bytes a cell), and
the CSV writer formats CSV_CHUNK_ROWS rows at a time, so neither keeps a
Python object per cell.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

from . import __version__
from .geometry import Position, distance
from .numerics import LazyNumpy
from .scenario import Scenario, brief_repr, fill_scenario, scenario_to_dict
from .secrecy import probe_grid, secrecy_rates
# not called here; bench/tests/test_bench.py reads it as dmirs.sweeps.secrecy_metrics
from .secrecy import secrecy_metrics

np = LazyNumpy(globals())  # numpy itself from the first array call on

# Rows formatted and written per sink.write call: bounds the writer's
# working set (a few hundred KiB) whatever the grid size.
CSV_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class SweepResult:
    """Ordered sweep output: metadata and ``values``, one read-only 1-D
    array per column, all of one length, each in grid order; the columns
    are the keys of ``values``, in their order."""

    values: dict
    metadata: dict

    def __post_init__(self):
        shapes = [column.shape for column in self.values.values()]
        if len(set(shapes)) != 1 or len(shapes[0]) != 1:
            raise ValueError(f"need at least one column, all 1-D of one length; got shapes {shapes}")
        for column in self.values.values():
            column.flags.writeable = False


def _metadata(scenario: Scenario, **extra) -> dict:
    meta = {"artifact": f"dmirs {__version__}", "seed": scenario.seed}
    meta.update(extra)
    meta["scenario"] = scenario_to_dict(scenario)
    return meta


def run_heatmap(scenario: Scenario, grid=(181, 181)) -> SweepResult:
    """BER map over a hypothetical receiver's two angles.

    Each cell is a receiver whose departure angle from the transmitter is
    phi and whose deflection angle at the IRS is theta, with the intended
    receiver's two path gains, so only angular selectivity varies.  sinr_db
    is the expected-noise SINR in dB; ber is its QPSK error rate, or a
    Monte-Carlo average over noise draws when the scenario requests
    instantaneous noise.  One secrecy.probe_grid call evaluates the cells.
    Against the scalar per-probe route, a cell's amplitude is exact and its
    signal and leak row within a few eps (see probe_block); sinr_db and ber
    carry those bounds, np.log10 perhaps an ulp off math.log10.
    """
    n_phi, n_theta = grid
    if n_phi < 2 or n_theta < 2:
        raise ValueError(f"heatmap grid must be at least 2x2, got {grid!r}")
    phi_deg = np.linspace(0.0, 180.0, n_phi)
    theta_deg = np.linspace(0.0, 180.0, n_theta)
    phis, thetas = ([math.radians(a) for a in axis.tolist()] for axis in (phi_deg, theta_deg))
    sinr_db, ber = probe_grid(scenario, phis, thetas)
    return SweepResult(
        values={
            "phi_deg": np.repeat(phi_deg, n_theta),
            "theta_deg": np.tile(theta_deg, n_phi),
            "sinr_db": sinr_db,
            "ber": ber,
        },
        metadata=_metadata(
            scenario, note="heatmap probes keep the intended receiver's path distances; only angles vary"
        ),
    )


def run_sweep_nr(scenario: Scenario, nr_values, pt_dbm_values) -> SweepResult:
    """Secrecy rate against IRS element count, with and without the IRS.

    The probe sits at the scenario's eavesdropper position.
    """
    bad = [v for v in nr_values if not (isinstance(v, numbers.Integral) or float(v).is_integer())]
    if bad:
        raise ValueError(f"nr values must be integers, got {brief_repr(bad[0])}")
    nr_values = [int(v) for v in nr_values]
    return _rate_sweep(scenario, "nr", nr_values, pt_dbm_values, lambda nr: {"nr": nr})


def run_sweep_dab(scenario: Scenario, dab_values, pt_dbm_values) -> SweepResult:
    """Secrecy rate against the transmitter-to-receiver distance.

    The intended receiver is repositioned along the original
    transmitter-to-receiver ray at each requested distance; everything else
    stays put.
    """
    dab_values = [float(v) for v in dab_values]
    bad = [d for d in dab_values if not math.isfinite(d)]
    if bad:
        raise ValueError(f"dab values must be finite, got {brief_repr(bad[0])}")
    if any(d <= 0.0 for d in dab_values):
        raise ValueError("dab values must be positive")
    d_ab = distance(scenario.alice, scenario.bob)
    ux = (scenario.bob.x - scenario.alice.x) / d_ab
    uy = (scenario.bob.y - scenario.alice.y) / d_ab
    return _rate_sweep(
        scenario, "dab_m", dab_values, pt_dbm_values,
        lambda dab: {"bob": Position(scenario.alice.x + dab * ux, scenario.alice.y + dab * uy)},
    )


def _rate_sweep(scenario, axis, axis_values, pt_dbm_values, change) -> SweepResult:
    """Proposed and no-IRS secrecy rates at the eavesdropper, one row per (axis value, pt).

    ``axis`` names the first column, and ``change`` maps an axis value to
    its change of the scenario.  The powers are read as floats and both
    lists checked to be non-empty.  The fields of ``scenario`` (its field
    dict) are the base of every scene.  Each pt is validated once, as a
    scene of that dict with its pt_dbm; then each axis value makes one scene
    of the dict with its change applied by scenario.fill_scenario, the fill
    path parse_config and the command-line overrides share: the Scenario
    dataclasses.replace would build, validated by one __post_init__, without
    the frozen constructor.  One secrecy_rates call rates the scenes.
    Rates use the expected-noise model whatever the scenario's an_mode, so
    the curves are deterministic; no BER is computed.  The preamble echoes
    ``scenario``.
    """
    pt_values = [float(v) for v in pt_dbm_values]
    if not axis_values or not pt_values:
        flag = axis.partition("_")[0]  # nr or dab, as the command line names the axis
        raise ValueError(f"{flag} and pt sweeps need at least one value each")
    base = vars(scenario)
    for pt in pt_values:
        fill_scenario(base, {"pt_dbm": pt})  # rejects a power no scenario may hold, before any row
    rates = secrecy_rates((fill_scenario(base, change(v)) for v in axis_values), pt_values)
    # the axis column is built after the rates: a scenario rejects an out-of-range nr first
    axis_column = np.repeat(np.array(axis_values), len(pt_values))
    pt_column = np.tile(np.array(pt_values), len(axis_values))
    columns = (axis, "pt_dbm", "rs_proposed_bits", "rs_benchmark_bits")
    return SweepResult(
        values=dict(zip(columns, (axis_column, pt_column, *rates.reshape(2, -1)))),
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
    lines.append(",".join(result.values))
    head = ("\n".join(lines) + "\n").encode("utf-8")
    sink.write(head)
    written = len(head)

    columns = list(result.values.values())
    row_format = ",".join(
        "%d" if np.issubdtype(c.dtype, np.integer) else "%.9g" for c in columns
    ) + "\n"
    for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        rows = zip(*(c[start : start + CSV_CHUNK_ROWS].tolist() for c in columns))
        payload = "".join([row_format % row for row in rows]).encode("utf-8")
        sink.write(payload)
        written += len(payload)
    return written
