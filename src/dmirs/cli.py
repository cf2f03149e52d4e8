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

A start:stop:step range or a comma list may hold at most
MAX_RANGE_VALUES values, a heatmap grid at most MAX_GRID_CELLS cells and a
rate sweep at most MAX_GRID_CELLS rows (axis values times --pt values);
larger requests exit 2 before anything is allocated.

`main(argv)` may be called any number of times in one process.  It builds
the argument parser on its first call and reuses it: parsing never changes
the parser, and each command reads the environment and its config file
when it runs.  An argv that starts with a command name is parsed in one
pass by that command's own parser; any other argv, and one the command's
parser finds unrecognized arguments in, goes through the top-level parser,
so usage, help and error text are the top-level parser's.  The config
file is read in one unbuffered binary read and decoded as text mode would
decode it; the config as written and then its overrides are each built by
scenario.fill_scenario and validated once.
"""

import argparse
import functools
import math
import os
import sys

from .geometry import Position
from .scenario import ConfigError, Scenario, brief_repr, fill_scenario, parse_config
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
        if len(values) > MAX_RANGE_VALUES:
            raise ConfigError(f"{kind} list {brief_repr(spec)} has more than {MAX_RANGE_VALUES} values")
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{kind} values {brief_repr(spec)} must all be finite")
        return values
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError(f"{kind} range {brief_repr(spec)} must have finite start, stop and step")
    # floor(steps) + 1 values; 1e-9 of a step absorbs rounding, and an overflow to inf fails the bound
    steps = (stop - start) / step + 1e-9
    if steps >= MAX_RANGE_VALUES:
        raise ConfigError(f"{kind} range {brief_repr(spec)} has more than {MAX_RANGE_VALUES} values")
    return [start + i * step for i in range(math.floor(steps) + 1)]


def _sweep_values(args, axis: str):
    """A sweep's ``axis`` values and --pt values, at most MAX_GRID_CELLS rows in all."""
    axis_values = _parse_values(getattr(args, axis), axis)
    pt_values = _parse_values(args.pt, "pt")
    if len(axis_values) * len(pt_values) > MAX_GRID_CELLS:
        raise ConfigError(
            f"{len(axis_values)} {axis} values by {len(pt_values)} pt values "
            f"make more than {MAX_GRID_CELLS} sweep rows"
        )
    return axis_values, pt_values


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
        with open(args.config, "rb", buffering=0) as fh:  # no buffer or text layer for one read
            raw = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}") from None
    # the text open(args.config, encoding="utf-8").read() gives, universal newlines included
    scenario = parse_config(raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    overrides = {}
    env_seed = os.environ.get("DMIRS_SEED")
    if env_seed is not None:
        try:
            overrides["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"DMIRS_SEED must be an integer, got {brief_repr(env_seed)}") from None
    overrides.update((name, value) for name, value in flags.items() if value is not None)
    return fill_scenario(vars(scenario), overrides) if overrides else scenario


def _write_result(result, path) -> None:
    with open(path, "wb") as fh:
        write_csv(result, fh)


def _cmd_metrics(args) -> int:
    eve = None if args.eve is None else _parse_point(args.eve)
    scenario = _load_scenario(args, eve=eve, an_mode=args.an_mode)
    metrics = secrecy_metrics(scenario, scenario.eve)
    keys = ("gamma_b", "gamma_e", "rate_b", "rate_e", "rate_s", "ber_b", "ber_probe")
    print("\n".join(f"{key}={format(getattr(metrics, key), '.9g')}" for key in keys))
    return 0


def _cmd_heatmap(args) -> int:
    scenario = _load_scenario(args, seed=args.seed, mc_samples=args.mc_samples)
    result = run_heatmap(scenario, _parse_grid(args.grid))
    _write_result(result, args.out)
    return 0


def _cmd_sweep(args) -> int:
    scenario = _load_scenario(args)
    result = args.run(scenario, *_sweep_values(args, args.axis))
    _write_result(result, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmirs",
        description="Link-level simulator for IRS-aided directional-modulation secure transmission",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # command name -> its parser, for main's one-pass dispatch

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

    for command, axis, run, summary, axis_help in (
        ("sweep-nr", "nr", run_sweep_nr, "secrecy rate vs IRS element count, CSV", "element counts"),
        ("sweep-dab", "dab", run_sweep_dab, "secrecy rate vs receiver distance, CSV", "distances in m"),
    ):
        sweep = sub.add_parser(command, help=summary)
        sweep.add_argument("--config", required=True)
        sweep.add_argument(f"--{axis}", required=True, help=f"{axis_help}, start:stop:step or list")
        sweep.add_argument("--pt", required=True, help="transmit powers in dBm, start:stop:step or list")
        sweep.add_argument("--out", required=True)
        sweep.set_defaults(func=_cmd_sweep, axis=axis, run=run)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _parse(argv):
    """The Namespace _parser().parse_args(argv) gives, in one argparse pass
    when argv starts with a command; argv None reads sys.argv."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
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
