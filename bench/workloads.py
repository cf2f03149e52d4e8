"""The four benchmark workloads: seeded inputs, CLI commands and output checks.

The workload seed only places bob, the IRS, eve and the probe points inside
fixed boxes (alice stays at the origin).  Grid sizes, sweep ranges, na=16,
nr=50 and mc_samples=1000 are the reference values for every seed, so each
seed asks for the same amount of work.  dmirs receives only the generated
scenario JSON and the command line.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

import reference as ref

# (x range, y range) of each seeded point, in meters.
BOB_BOX = ((15.0, 25.0), (-3.0, 3.0))
IRS_BOX = ((15.0, 25.0), (-20.0, -10.0))
EVE_BOX = ((25.0, 35.0), (10.0, 25.0))
PROBE_BOX = ((2.0, 40.0), (2.0, 30.0))  # |x|, |y|; one quarter per quadrant
N_PROBES = 64
MIN_SEPARATION_M = 1.0

HEATMAP_SAMPLE_ROWS = 256
HEATMAP_NULL_ROWS = 16

SWEEP_NR = "10:200:10"
SWEEP_DAB = "10:50:1"
SWEEP_PT = "10,15"
NR_VALUES = list(range(10, 201, 10))
DAB_VALUES = [10.0 + i for i in range(41)]
PT_VALUES = [10.0, 15.0]

METRIC_KEYS = ("gamma_b", "gamma_e", "rate_b", "rate_e", "rate_s", "ber_b", "ber_probe")


@dataclass(frozen=True)
class Inputs:
    """Everything one seed generates."""

    seed: int
    bob: tuple
    irs: tuple
    eve: tuple
    probes: tuple

    def scene(self) -> ref.Scene:
        return ref.Scene(bob=self.bob, irs=self.irs)

    def config(self, an_mode: str) -> dict:
        return {
            "na": 16,
            "nr": 50,
            "alice": [0.0, 0.0],
            "bob": list(self.bob),
            "irs": list(self.irs),
            "eve": list(self.eve),
            "an_mode": an_mode,
            "seed": self.seed % 2**32,
            "mc_samples": 1000,
        }


def make_inputs(seed: int) -> Inputs:
    """Seeded scene: no two points closer than MIN_SEPARATION_M."""
    rng = random.Random(seed)
    placed = [(0.0, 0.0)]

    def draw(box, sx=1.0, sy=1.0):
        while True:
            p = (
                round(sx * rng.uniform(*box[0]), 3),
                round(sy * rng.uniform(*box[1]), 3),
            )
            if all(math.dist(p, q) >= MIN_SEPARATION_M for q in placed):
                placed.append(p)
                return p

    bob, irs, eve = draw(BOB_BOX), draw(IRS_BOX), draw(EVE_BOX)
    quadrants = ((1, 1), (-1, 1), (-1, -1), (1, -1))
    probes = tuple(draw(PROBE_BOX, *quadrants[i % 4]) for i in range(N_PROBES))
    return Inputs(seed, bob, irs, eve, probes)


@dataclass(frozen=True)
class Command:
    argv: list
    csv_path: str | None  # the CSV the command writes, if any


def parse_csv(payload: bytes):
    """Header and data lines of a dmirs CSV (preamble dropped)."""
    lines = payload.decode("utf-8").splitlines()
    body = [line for line in lines if not line.startswith("#")]
    return body[0].split(","), body[1:]


def _close(got, want, atol, rtol=0.0):
    return abs(got - want) <= atol + rtol * abs(want)


class HeatmapWorkload:
    """`dmirs heatmap` over a fixed grid; one op is one command."""

    def __init__(self, name, an_mode, grid, why):
        self.name, self.an_mode, self.grid, self.why = name, an_mode, grid, why
        self.rows_per_op = grid * grid

    def _argv(self, config_path, out, grid):
        argv = ["heatmap", "--config", config_path, "--grid", f"{grid}x{grid}", "--out", out]
        if self.an_mode == "instantaneous":
            argv += ["--mc-samples", "1000"]
        return argv

    def commands(self, inputs, k, config_path, workdir):
        out = f"{workdir}/heatmap.csv"
        return [Command(self._argv(config_path, out, self.grid), out)]

    def setup_argv(self, config_path, workdir):
        return [self._argv(config_path, f"{workdir}/setup.csv", 2)]

    def checker(self, inputs):
        scene = inputs.scene()
        signal, leak = ref.heatmap_terms(scene, self.grid, self.grid)
        gamma = ref.sinr(scene, signal, leak)
        angles = np.linspace(0.0, 180.0, self.grid)
        if self.an_mode == "instantaneous":
            # every cell: a bias too small for one cell's tolerance adds up over all of them
            rows = np.arange(gamma.size)
            want_ber, sd = ref.mc_ber_moments(scene, signal, leak)
            ber_tol = ref.mc_tolerance(sd**2, 1000) + ref.BER_ATOL
            sum_tol = ref.mc_tolerance(np.sum(sd**2), 1000) + rows.size * ref.BER_ATOL
        else:
            rng = np.random.default_rng(inputs.seed % 2**32)
            rows = set(rng.choice(gamma.size, HEATMAP_SAMPLE_ROWS, replace=False).tolist())
            rows |= set(np.argsort(gamma)[:HEATMAP_NULL_ROWS].tolist())  # pattern nulls
            rows = np.array(sorted(rows))
            want_ber = ref.ber(gamma[rows])
            ber_tol = np.full(rows.size, ref.BER_ATOL)
            sum_tol = math.inf

        def check(k, stdouts, csvs):
            header, lines = parse_csv(csvs[0])
            if header != ["phi_deg", "theta_deg", "sinr_db", "ber"]:
                return [f"heatmap header {header}"]
            if len(lines) != gamma.size:
                return [f"heatmap has {len(lines)} rows, want {gamma.size}"]
            errors, ber_sum = [], 0.0
            for j, row in enumerate(rows):
                phi, theta, sinr_db, ber = (float(v) for v in lines[row].split(","))
                ber_sum += ber - want_ber[j]
                g = 10.0 ** (sinr_db / 10.0)
                i_phi, i_theta = divmod(int(row), self.grid)
                if not (_close(phi, angles[i_phi], 1e-6) and _close(theta, angles[i_theta], 1e-6)):
                    errors.append(f"row {row}: angles {phi},{theta}")
                if not _close(g, gamma[row], ref.SINR_ATOL, ref.SINR_RTOL):
                    errors.append(f"row {row}: sinr {g!r}, reference {gamma[row]!r}")
                if not _close(ber, want_ber[j], ber_tol[j]):
                    errors.append(f"row {row}: ber {ber!r}, reference {want_ber[j]!r} +- {ber_tol[j]!r}")
            if abs(ber_sum) > sum_tol:
                errors.append(f"ber summed over all cells is off by {ber_sum!r}, tolerance {sum_tol!r}")
            return errors

        return check


class RateSweepsWorkload:
    """`sweep-nr` then `sweep-dab` on one seeded scene; one op is the pair."""

    name = "rate-sweeps"
    an_mode = "expected"
    why = "the paper's two rate figures: per-point link-budget, projector and Scenario set-up dominate"
    rows_per_op = len(NR_VALUES) * len(PT_VALUES) + len(DAB_VALUES) * len(PT_VALUES)

    @staticmethod
    def _argvs(config_path, workdir, nr, dab, tag):
        return [
            ["sweep-nr", "--config", config_path, "--nr", nr, "--pt", SWEEP_PT,
             "--out", f"{workdir}/{tag}nr.csv"],
            ["sweep-dab", "--config", config_path, "--dab", dab, "--pt", SWEEP_PT,
             "--out", f"{workdir}/{tag}dab.csv"],
        ]

    def commands(self, inputs, k, config_path, workdir):
        return [Command(a, a[-1]) for a in self._argvs(config_path, workdir, SWEEP_NR, SWEEP_DAB, "")]

    def setup_argv(self, config_path, workdir):
        return self._argvs(config_path, workdir, "10", "10", "setup-")

    def checker(self, inputs):
        scene = inputs.scene()
        want = [
            ref.sweep_nr_rows(scene, inputs.eve, NR_VALUES, PT_VALUES),
            ref.sweep_dab_rows(scene, inputs.eve, DAB_VALUES, PT_VALUES),
        ]
        headers = [
            ["nr", "pt_dbm", "rs_proposed_bits", "rs_benchmark_bits"],
            ["dab_m", "pt_dbm", "rs_proposed_bits", "rs_benchmark_bits"],
        ]

        def check(k, stdouts, csvs):
            errors = []
            for payload, header_want, rows_want in zip(csvs, headers, want):
                header, lines = parse_csv(payload)
                if header != header_want or len(lines) != len(rows_want):
                    errors.append(f"{header_want[0]} sweep: header {header}, {len(lines)} rows")
                    continue
                for line, row_want in zip(lines, rows_want):
                    got = [float(v) for v in line.split(",")]
                    if not (
                        all(_close(a, b, 1e-9) for a, b in zip(got[:2], row_want[:2]))
                        and all(_close(a, b, ref.RATE_ATOL) for a, b in zip(got[2:], row_want[2:]))
                    ):
                        errors.append(f"{header_want[0]} sweep row {line!r}, reference {row_want}")
            return errors

        return check


class ProbeWorkload:
    """`dmirs metrics --eve=X,Y` at seeded probes; one op is one query."""

    name = "probe-queries"
    an_mode = "expected"
    why = "per-request latency: argparse set-up, config parsing and one secrecy_metrics call per op"
    rows_per_op = 1

    @staticmethod
    def _argv(config_path, probe):
        # `--eve=X,Y`: argparse reads a separate `-5,3` as an option and exits 2.
        return ["metrics", "--config", config_path, f"--eve={probe[0]!r},{probe[1]!r}",
                "--an-mode", "expected"]

    def commands(self, inputs, k, config_path, workdir):
        return [Command(self._argv(config_path, inputs.probes[k % len(inputs.probes)]), None)]

    def setup_argv(self, config_path, workdir):
        return [["metrics", "--config", config_path, "--an-mode", "expected"]]

    def checker(self, inputs):
        scene = inputs.scene()
        want = [ref.link_metrics(scene, p) for p in inputs.probes]

        def check(k, stdouts, csvs):
            got = dict(line.split("=", 1) for line in stdouts[0].splitlines())
            if tuple(got) != METRIC_KEYS:
                return [f"metrics keys {tuple(got)}"]
            got = {key: float(v) for key, v in got.items()}
            w = want[k % len(want)]
            tol = {"gamma_b": (0.0, ref.SINR_RTOL), "gamma_e": (ref.SINR_ATOL, ref.SINR_RTOL),
                   "ber_b": (ref.BER_ATOL, 0.0), "ber_probe": (ref.BER_ATOL, 0.0)}
            return [
                f"probe {k}: {key}={got[key]!r}, reference {w[key]!r}"
                for key in METRIC_KEYS
                if not _close(got[key], w[key], *tol.get(key, (ref.RATE_ATOL, 0.0)))
            ]

        return check


WORKLOADS = {
    w.name: w
    for w in (
        HeatmapWorkload(
            "heatmap-expected", "expected", 181,
            "181x181 closed-form BER map: per-cell steering vectors, element_cycles, replace and a 1 MB CSV",
        ),
        HeatmapWorkload(
            "heatmap-instantaneous", "instantaneous", 41,
            "41x41 Monte-Carlo BER map at 1000 samples per cell: per-sample BER calls and complex normals",
        ),
        RateSweepsWorkload(),
        ProbeWorkload(),
    )
}
