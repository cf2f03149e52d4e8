"""The calls each command makes: one table, counted by the benchmark's tracer.

Each command runs through cli.main under bench/tracer.py's Tracer, with
dmirs_targets() and two more spans: ArraySpec's validation (one per array
spec built) and secrecy._snrs (one SNR pass).  An op's count of a span is
its table entry's ``op`` calls, plus ``each`` per heatmap cell or sweep axis
value, plus ``block`` per array pass of cells or scenes; asserting it exactly
at two sizes of every command pins the marginal per cell or axis value, as
the benchmark reads it, and what an op makes besides.  A span's ``.amount``
is the tracer's amount counter (transmitter.complex_normal: real values
drawn).  A change to the work re-derives this table, as exact counts.
"""

import math
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from dmirs import cli, secrecy
from dmirs import scenario as scenario_module
from dmirs.arrays import ArraySpec
from dmirs.scenario import Scenario

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from tracer import Tracer, dmirs_targets  # noqa: E402


class Calls(NamedTuple):
    """A span's calls in one op: ``op`` once, ``each`` per heatmap cell or
    sweep axis value, ``block`` per array pass."""

    op: int = 0
    each: int = 0
    block: int = 0


HEATMAP = {
    "arrays.steering_vector": Calls(op=1, each=3),  # w_a, then a cell's direct, leak and g_t rows
    "arrays.element_cycles": Calls(op=1, each=5),  # one a steering vector, two IRS rows a cell
    "geometry.link_budget": Calls(op=1),  # the intended receiver's
    "transmitter.an_projector": Calls(),
    "secrecy.probe_block": Calls(block=1),
    "arrays.ArraySpec": Calls(op=2),  # the transmitter's and the IRS's, whatever the grid
}
SWEEP = {
    "geometry.link_budget": Calls(each=4),  # receiver and eve, for each column
    "transmitter.an_projector": Calls(each=2),  # one for each column
    "arrays.steering_vector": Calls(),
    "arrays.element_cycles": Calls(),
    "arrays.steering_rows": Calls(block=1),
    "secrecy._snrs": Calls(block=1),
    "secrecy.secrecy_rates": Calls(op=1),
}
METRICS = {
    "geometry.link_budget": Calls(op=2),
    "arrays.steering_vector": Calls(),
    "transmitter.an_projector": Calls(),
    "secrecy.probe_block": Calls(),
    "arrays.element_cycles": Calls(),
    "secrecy.ber_from_snrs": Calls(),
}
WORK = {
    "heatmap expected": HEATMAP | {
        "numerics.q_function": Calls(each=1),
        "transmitter.complex_normal.amount": Calls(),
    },
    "heatmap instantaneous": HEATMAP | {
        "numerics.q_function": Calls(each=1000),  # one a noise draw
        "transmitter.complex_normal.amount": Calls(each=32_000),  # 1000 draws of 16 complex values
    },
    # the sweep is called by its name in cli, so the tracer's wrapper sees it
    "sweep-nr": SWEEP | {"sweeps.run_sweep_nr": Calls(op=1), "sweeps.run_sweep_dab": Calls()},
    "sweep-dab": SWEEP | {"sweeps.run_sweep_nr": Calls(), "sweeps.run_sweep_dab": Calls(op=1)},
    "metrics expected": METRICS | {"arrays.steering_rows": Calls()},
    "metrics instantaneous": METRICS | {"arrays.steering_rows": Calls(op=1)},  # for its one noise draw
}

# complex values a default-scene heatmap cell and rate-sweep scene hold in a pass (secrecy.BLOCK_VALUES)
CELL_VALUES = 3 * Scenario().na + 2 * Scenario().nr
SCENE_VALUES = 4 * Scenario().na


def targets():
    """dmirs_targets(), with ArraySpec's validation and secrecy._snrs as spans too."""
    layers, methods, amounts = dmirs_targets()
    # install skips private names; its (holder, attribute, span) targets take a module as well as a class
    extra = [(ArraySpec, "__post_init__", "arrays.ArraySpec"), (layers["secrecy"], "_snrs", "secrecy._snrs")]
    return layers, methods + extra, amounts


def traced(argv):
    """Calls of each traced span, and each amount as ``<span>.amount``, in
    one cli.main op from a cold ArraySpec cache."""
    scenario_module._array_spec.cache_clear()
    layers, methods, amounts = targets()
    with Tracer() as tracer:
        tracer.install(layers, methods, amounts)
        assert cli.main(argv) == 0
    counts = {name: agg.calls for name, agg in tracer.aggregates.items()}
    counts.update((f"{name}.amount", tracer.aggregates[name].amount) for name in amounts)
    return counts


def assert_work(command, argv, each=0, blocks=0):
    counts = traced(argv)
    want = WORK[command]
    assert {name: counts[name] for name in want} == {
        name: calls.op + calls.each * each + calls.block * blocks for name, calls in want.items()
    }


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text("{}")
    return str(path)


@pytest.mark.parametrize("an_mode", ["expected", "instantaneous"])
@pytest.mark.parametrize(
    "block_cells", [None, 4, 1], ids=["production-blocks", "4-cell-blocks", "1-cell-blocks"]
)
def test_heatmap_cells(an_mode, block_cells, tmp_path, monkeypatch):
    config = tmp_path / "scenario.json"
    config.write_text(f'{{"an_mode": "{an_mode}"}}')
    if block_cells is not None:
        monkeypatch.setattr(secrecy, "BLOCK_VALUES", block_cells * CELL_VALUES)
    block = max(1, secrecy.BLOCK_VALUES // CELL_VALUES)
    for n_phi, n_theta in ((3, 3), (4, 5)):
        cells = n_phi * n_theta
        argv = ["heatmap", "--config", str(config), "--grid", f"{n_phi}x{n_theta}",
                "--mc-samples", "1000", "--out", str(tmp_path / "h.csv")]
        assert_work(f"heatmap {an_mode}", argv, each=cells, blocks=math.ceil(cells / block))


@pytest.mark.parametrize("command, axis", [("sweep-nr", "nr"), ("sweep-dab", "dab")])
@pytest.mark.parametrize("block_scenes", [None, 2], ids=["production-blocks", "2-scene-blocks"])
def test_rate_sweep_axis_values(command, axis, block_scenes, config, tmp_path, monkeypatch):
    if block_scenes is not None:
        monkeypatch.setattr(secrecy, "BLOCK_VALUES", block_scenes * SCENE_VALUES)
    block = max(1, secrecy.BLOCK_VALUES // SCENE_VALUES)
    for values in (["10"], ["10", "20", "30"]):
        for pts in ("10", "10,15,15,30"):
            argv = [command, "--config", config, f"--{axis}", ",".join(values), "--pt", pts,
                    "--out", str(tmp_path / "s.csv")]
            assert_work(command, argv, each=len(values), blocks=math.ceil(len(values) / block))


@pytest.mark.parametrize("an_mode", ["expected", "instantaneous"])
def test_metrics_ops(an_mode, config):
    for eve in ([], ["--eve=-5,3"], ["--eve=20,0"]):
        assert_work(f"metrics {an_mode}", ["metrics", "--config", config, "--an-mode", an_mode, *eve])


def bound_names(layers):
    """Each attribute of each module in ``layers`` and both validations, by (holder, name)."""
    names = {(layer, key): value for layer, module in layers.items() for key, value in vars(module).items()}
    names.update(((cls.__name__, "__post_init__"), vars(cls)["__post_init__"]) for cls in (Scenario, ArraySpec))
    return names


def test_the_tracer_restores_every_name_it_rebinds(config, tmp_path):
    """Whatever the tracer rebinds, each name holds the same object after it exits as before."""
    argvs = [
        ["metrics", "--config", config, "--an-mode", "instantaneous"],
        ["heatmap", "--config", config, "--grid", "2x2", "--out", str(tmp_path / "h.csv")],
        ["sweep-nr", "--config", config, "--nr", "10", "--pt", "10", "--out", str(tmp_path / "s.csv")],
    ]
    for argv in argvs:  # the package binds numpy over its lazy stand-ins on first use
        assert cli.main(argv) == 0
    layers = targets()[0]
    before = bound_names(layers)
    for argv in argvs:
        traced(argv)
    after = bound_names(layers)
    assert [key for key, value in before.items() if after.get(key) is not value] == []
