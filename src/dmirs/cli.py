"""Command-line interface.

    dmirs metrics   --config PATH [--eve X,Y] [--an-mode expected|instantaneous]
    dmirs heatmap   --config PATH --grid 181x181 --out PATH [--mc-samples N --seed S]
    dmirs sweep-nr  --config PATH --nr 10:200:10 --pt 10,15 --out PATH
    dmirs sweep-dab --config PATH --dab 10:50:1 --pt 10,15 --out PATH

`python -m dmirs ...` runs the same commands.

A probe with a negative X is written `--eve=-5,3`: argparse reads a
separate `-5,3` as an option.

Exit codes: 0 success, 2 configuration or validation error, 3 runtime or
I/O error.  A command validates its config file as written, then applies
DMIRS_SEED and its own flags in one step; a flag wins over DMIRS_SEED,
which wins over the config.  DMIRS_SEED must be an integer, but a negative
one that --seed replaces is not range-checked.

A start:stop:step range may hold at most MAX_RANGE_VALUES values and a
heatmap grid at most MAX_GRID_CELLS cells; larger requests exit 2 before
anything is allocated.

`main(argv)` may be called any number of times in one process.  It builds
the argument parser on its first call and reuses it: parsing never changes
the parser, and each command reads the environment and its config file
when it runs.
"""

import argparse
import functools
import math
import os
import sys
from dataclasses import replace

from .geometry import Position
from .scenario import ConfigError, Scenario, brief_repr, parse_config
from .secrecy import AN_MODES, secrecy_metrics
from .sweeps import run_heatmap, run_sweep_dab, run_sweep_nr, write_csv

MAX_RANGE_VALUES = 10_000
MAX_GRID_CELLS = 1_000_000


def _parse_values(spec: str, kind: str):
    """Parse '10:200:10' (inclusive range) or '10,15' (list) into floats."""
    spec = spec.strip()
    is_list = ":" not in spec
    try:
        if is_list:
            values = [float(p) for p in spec.split(",") if p.strip() != ""]
        else:
            start, stop, step = (float(p) for p in spec.split(":"))
            if step <= 0 or stop < start:
                raise ValueError
    except ValueError:
        raise ConfigError(
            f"could not parse {kind} values {brief_repr(spec)}; use start:stop:step or a comma list"
        ) from None
    if is_list:
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{kind} values {brief_repr(spec)} must all be finite")
        return values
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError(f"{kind} range {brief_repr(spec)} must have finite start, stop and step")
    steps = (stop - start) / step  # may overflow to inf, which the bound rejects
    if steps + 1 > MAX_RANGE_VALUES:
        raise ConfigError(f"{kind} range {brief_repr(spec)} has more than {MAX_RANGE_VALUES} values")
    values = [start + i * step for i in range(round(steps) + 1)]
    return [v for v in values if v <= stop + 1e-9]


def _parse_grid(spec: str):
    try:
        w, h = spec.lower().split("x")
        w, h = int(w), int(h)
    except ValueError:
        raise ConfigError(f"could not parse grid {brief_repr(spec)}; expected WxH like 181x181") from None
    if w * h > MAX_GRID_CELLS:
        raise ConfigError(f"grid {brief_repr(spec)} has more than {MAX_GRID_CELLS} cells")
    return w, h


def _parse_point(spec: str) -> Position:
    try:
        x, y = (float(p) for p in spec.split(","))
    except ValueError:
        raise ConfigError(f"could not parse position {brief_repr(spec)}; expected X,Y") from None
    return Position(x, y)


def _load_scenario(args, **flags) -> Scenario:
    """The config file's Scenario with DMIRS_SEED and every flag that is not None applied."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            scenario = parse_config(fh.read())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}") from None
    overrides = {}
    env_seed = os.environ.get("DMIRS_SEED")
    if env_seed is not None:
        try:
            overrides["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"DMIRS_SEED must be an integer, got {brief_repr(env_seed)}") from None
    overrides.update((name, value) for name, value in flags.items() if value is not None)
    return replace(scenario, **overrides) if overrides else scenario


def _write_result(result, path) -> None:
    with open(path, "wb") as fh:
        write_csv(result, fh)


def _cmd_metrics(args) -> int:
    eve = None if args.eve is None else _parse_point(args.eve)
    scenario = _load_scenario(args, eve=eve, an_mode=args.an_mode)
    metrics = secrecy_metrics(scenario, scenario.eve)
    for key in ("gamma_b", "gamma_e", "rate_b", "rate_e", "rate_s", "ber_b", "ber_probe"):
        print(f"{key}={format(getattr(metrics, key), '.9g')}")
    return 0


def _cmd_heatmap(args) -> int:
    scenario = _load_scenario(args, seed=args.seed, mc_samples=args.mc_samples)
    result = run_heatmap(scenario, _parse_grid(args.grid))
    _write_result(result, args.out)
    return 0


def _cmd_sweep_nr(args) -> int:
    scenario = _load_scenario(args)
    result = run_sweep_nr(scenario, _parse_values(args.nr, "nr"), _parse_values(args.pt, "pt"))
    _write_result(result, args.out)
    return 0


def _cmd_sweep_dab(args) -> int:
    scenario = _load_scenario(args)
    dab_values = _parse_values(args.dab, "dab")
    pt_values = _parse_values(args.pt, "pt")
    result = run_sweep_dab(scenario, dab_values, pt_values)
    _write_result(result, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmirs",
        description="Link-level simulator for IRS-aided directional-modulation secure transmission",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    metrics = sub.add_parser("metrics", help="print link metrics for one probe position")
    metrics.add_argument("--config", required=True, help="scenario JSON file")
    metrics.add_argument(
        "--eve", help="probe position X,Y (overrides config); write --eve=-5,3 for a negative X"
    )
    metrics.add_argument("--an-mode", choices=AN_MODES, dest="an_mode")
    metrics.set_defaults(func=_cmd_metrics)

    heatmap = sub.add_parser("heatmap", help="BER map over probe angles, written as CSV")
    heatmap.add_argument("--config", required=True)
    heatmap.add_argument("--grid", default="181x181", help="grid size WxH (default 181x181)")
    heatmap.add_argument("--out", required=True, help="output CSV path")
    heatmap.add_argument("--mc-samples", type=int, dest="mc_samples")
    heatmap.add_argument("--seed", type=int)
    heatmap.set_defaults(func=_cmd_heatmap)

    sweep_nr = sub.add_parser("sweep-nr", help="secrecy rate vs IRS element count, CSV")
    sweep_nr.add_argument("--config", required=True)
    sweep_nr.add_argument("--nr", required=True, help="element counts, start:stop:step or list")
    sweep_nr.add_argument("--pt", required=True, help="transmit powers in dBm, start:stop:step or list")
    sweep_nr.add_argument("--out", required=True)
    sweep_nr.set_defaults(func=_cmd_sweep_nr)

    sweep_dab = sub.add_parser("sweep-dab", help="secrecy rate vs receiver distance, CSV")
    sweep_dab.add_argument("--config", required=True)
    sweep_dab.add_argument("--dab", required=True, help="distances in m, start:stop:step or list")
    sweep_dab.add_argument("--pt", required=True, help="transmit powers in dBm, start:stop:step or list")
    sweep_dab.add_argument("--out", required=True)
    sweep_dab.set_defaults(func=_cmd_sweep_dab)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # covers ConfigError and GeometryError
        print(f"dmirs: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"dmirs: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
