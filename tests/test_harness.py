import argparse
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmirs import arrays, cli, geometry, secrecy, sweeps, transmitter
from dmirs import scenario as scenario_module
from dmirs.arrays import ArraySpec
from dmirs.geometry import PATH_LOSS_RULES, GeometryError, Position
from dmirs.scenario import (
    MAX_MC_SAMPLES,
    MAX_NA,
    MAX_NR,
    MAX_SPACING_WAVELENGTHS,
    ConfigError,
    Scenario,
    parse_config,
    serialize_config,
)
from dmirs.secrecy import probe_setup, secrecy_metrics
from dmirs.sweeps import run_heatmap, run_sweep_dab, run_sweep_nr, write_csv
from oracles import an_projector_extended, heatmap_per_cell, rate_reference, result_rows, sinr_eve_scalar

# nested far beyond the JSON decoder's recursion limit
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000

# the default alice, bob and irs, signed zeros and points near the float range's ends
POINTS = [[0, 0], [-0.0, 0.0], [20, 0], [20.0, -15.0], [5, 5], [-7.5, 3], [1e-300, 0], [1e300, 1e300]]


@st.composite
def config_texts(draw):
    """JSON scenario text: some of the fields, in half the texts each with a
    value in its range, in the others with a valid or an invalid value of
    any JSON type; now and then an unknown key."""
    coordinate = st.floats(-50.0, 50.0) | st.integers(-50, 50)
    position = st.sampled_from(POINTS) | st.lists(coordinate, min_size=2, max_size=2)
    positive = st.floats(0.01, 10.0) | st.integers(1, 10)
    spacing = positive | st.floats(10.0, MAX_SPACING_WAVELENGTHS) | st.just(MAX_SPACING_WAVELENGTHS)
    power = st.floats(-40.0, 40.0) | st.integers(-40, 40)
    valid = {
        "na": st.integers(2, MAX_NA), "nr": st.integers(1, MAX_NR), "seed": st.integers(0, 2**63),
        "mc_samples": st.integers(1, MAX_MC_SAMPLES), "alpha": st.floats(0.0, 1.0) | st.sampled_from([0, 1]),
        "alice_spacing_wavelengths": spacing, "irs_spacing_wavelengths": spacing, "d0_m": positive,
        "pt_dbm": power, "noise_dbm": power, "alice": position, "bob": position, "irs": position, "eve": position,
        "path_loss_combine": st.sampled_from(PATH_LOSS_RULES), "an_mode": st.sampled_from(secrecy.AN_MODES),
    }
    junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(0, 3), max_size=3))
    numbers = st.one_of(st.integers(-3, 2_000_000), st.floats(), st.just(10**400))
    invalid = {
        int: st.one_of(st.integers(-2, 1100), st.integers(MAX_NR - 1, MAX_NR + 1), numbers, junk),
        float: st.one_of(st.integers(-40, 3100), numbers, junk),
        Position: st.one_of(st.lists(numbers, min_size=2, max_size=2), st.lists(numbers, max_size=3), junk),
        str: st.one_of(st.just("mean"), junk),
    }
    in_range = draw(st.booleans())
    raw = {
        f.name: draw(valid[f.name] if in_range else valid[f.name] | invalid[f.type])
        for f in fields(Scenario)
        if draw(st.booleans())
    }
    if draw(st.integers(0, 9)) == 0:
        raw["alpha_an"] = 0.5
    return json.dumps(raw)


def built_or_raised(build):
    """Each field's name, type and repr of the Scenario ``build()`` returns,
    or the type and message of the ValueError it raises."""
    try:
        scenario = build()
    except ValueError as exc:
        return type(exc), str(exc)
    return [(f.name, type(getattr(scenario, f.name)), repr(getattr(scenario, f.name))) for f in fields(Scenario)]


class TestParseConfig:
    def test_empty_object_gives_defaults(self):
        assert parse_config("{}") == Scenario()

    def test_defaults_match_baseline_setup(self):
        s = parse_config("{}")
        assert (s.na, s.nr) == (16, 50)
        assert (s.pt_dbm, s.noise_dbm) == (25.0, -20.0)
        assert (s.alpha, s.d0_m) == (0.6, 1.0)
        assert s.alice_spacing_wavelengths == s.irs_spacing_wavelengths == 0.5
        assert s.alice == Position(0.0, 0.0)
        assert s.bob == Position(20.0, 0.0)
        assert s.irs == Position(20.0, -15.0)

    def test_partial_override(self):
        s = parse_config('{"nr": 100, "eve": [5, 5]}')
        assert s.nr == 100
        assert s.eve == Position(5.0, 5.0)
        assert s.na == 16

    def test_alpha_out_of_range_names_field(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config('{"alpha": 1.5}')

    def test_malformed_syntax_reports_line(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config('{"nr": 100,')

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="alpha_an"):
            parse_config('{"alpha_an": 0.5}')

    def test_wrong_types_rejected(self):
        with pytest.raises(ConfigError, match="na"):
            parse_config('{"na": "sixteen"}')
        with pytest.raises(ConfigError, match="na"):
            parse_config('{"na": true}')
        with pytest.raises(ConfigError, match="bob"):
            parse_config('{"bob": [1, 2, 3]}')

    def test_coincident_transmitter_and_receiver(self):
        with pytest.raises(GeometryError):
            parse_config('{"bob": [0, 0]}')

    def test_probe_may_sit_on_receiver_but_not_on_reflector(self):
        assert parse_config('{"eve": [20, 0]}').eve == Position(20.0, 0.0)
        with pytest.raises(GeometryError):
            parse_config('{"eve": [20, -15]}')

    @pytest.mark.parametrize(
        "points, message",
        [
            ({"bob": Position(0.0, 0.0)}, "alice and bob coincide at Position(x=0.0, y=0.0)"),
            ({"irs": Position(0.0, 0.0)}, "alice and irs coincide at Position(x=0.0, y=0.0)"),
            ({"irs": Position(20.0, 0.0)}, "bob and irs coincide at Position(x=20.0, y=0.0)"),
            ({"eve": Position(0.0, 0.0)}, "eve and alice coincide at Position(x=0.0, y=0.0)"),
            ({"eve": Position(20.0, -15.0)}, "eve and irs coincide at Position(x=20.0, y=-15.0)"),
            # -0.0 equals 0.0: signed zeros coincide, and the first point of the pair is named
            ({"bob": Position(-0.0, 0.0)}, "alice and bob coincide at Position(x=0.0, y=0.0)"),
            ({"alice": Position(-0.0, -0.0), "irs": Position(0.0, 0.0)},
             "alice and irs coincide at Position(x=-0.0, y=-0.0)"),
            ({"eve": Position(-0.0, 0.0)}, "eve and alice coincide at Position(x=-0.0, y=0.0)"),
            # several pairs coincide: the first in the order above is named
            ({"bob": Position(20.0, -15.0), "eve": Position(0.0, 0.0)},
             "bob and irs coincide at Position(x=20.0, y=-15.0)"),
        ],
    )
    def test_coincident_points_are_named_in_a_fixed_order(self, points, message):
        with pytest.raises(GeometryError) as info:
            Scenario(**points)
        assert type(info.value) is GeometryError and str(info.value) == message

    @pytest.mark.parametrize("eve", [Position(20.0, 0.0), Position(20.0, -0.0)])
    def test_eve_on_bob_is_accepted(self, eve):
        assert Scenario(eve=eve).eve == eve

    def test_round_trip(self):
        assert parse_config(serialize_config(Scenario())) == Scenario()
        custom = Scenario(nr=77, alpha=0.25, eve=Position(1.0, 2.0), seed=9)
        assert parse_config(serialize_config(custom)) == custom

    @settings(max_examples=300, deadline=None)
    @given(config_texts())
    @example('{"alice": [-0.0, 0], "bob": [0, 0]}')
    @example('{"na": 10000000, "mc_samples": 0, "alpha": NaN}')
    def test_drawn_configs_build_what_the_frozen_constructor_builds(self, text):
        """Field by field and type by type the Scenario Scenario(**fields)
        would build, or the same exception type and message."""
        with pytest.MonkeyPatch.context() as patch:
            # the frozen constructor with its own defaults for the absent fields
            patch.setattr(scenario_module, "fill_scenario", lambda defaults, change: Scenario(**change))
            frozen = built_or_raised(lambda: parse_config(text))
        assert built_or_raised(lambda: parse_config(text)) == frozen

    def test_scenario_field_validation(self):
        with pytest.raises(ConfigError, match="na"):
            Scenario(na=1)
        with pytest.raises(ConfigError, match="nr"):
            Scenario(nr=0)
        with pytest.raises(ConfigError, match="mc_samples"):
            Scenario(mc_samples=0)
        with pytest.raises(ConfigError, match="path_loss_combine"):
            Scenario(path_loss_combine="mean")
        with pytest.raises(ConfigError, match="an_mode"):
            Scenario(an_mode="typical")
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            Scenario(seed=-1)
        assert Scenario(seed=0).seed == 0

    @pytest.mark.parametrize("field, value", [("na", 16.0), ("nr", 10.7), ("seed", 1.5), ("mc_samples", 2.5)])
    def test_counts_seed_and_samples_must_be_integers(self, field, value):
        """A fractional, boolean or text value fails in one named line, in either
        noise mode; a numpy integer passes as a plain int, so the scenario
        serializes and round-trips."""
        for bad in (value, True, str(int(value))):
            for an_mode in ("expected", "instantaneous"):
                with pytest.raises(ConfigError, match=f"^{field} must be an integer, got {re.escape(repr(bad))}$"):
                    Scenario(**{field: bad}, an_mode=an_mode)
        scenario = Scenario(**{field: np.int64(value)})
        assert type(getattr(scenario, field)) is int and getattr(scenario, field) == int(value)
        assert parse_config(serialize_config(scenario)) == scenario

    @pytest.mark.parametrize(
        "field, value", [("pt_dbm", 5000.0), ("pt_dbm", 3083.0), ("noise_dbm", -5000.0), ("noise_dbm", -3300.0)]
    )
    def test_power_level_must_be_a_finite_nonzero_mw_value(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} = {value!r} dBm is not a finite, nonzero power"):
            Scenario(**{field: value})
        edge = 3080.0 if field == "pt_dbm" else -3230.0
        mw = getattr(Scenario(**{field: edge}), field.replace("dbm", "mw"))
        assert 0.0 < mw < math.inf

    def test_size_bounds(self):
        """Validation only: building a Scenario allocates no array of these sizes."""
        assert (MAX_NA, MAX_NR, MAX_MC_SAMPLES, MAX_SPACING_WAVELENGTHS) == (1024, 1_000_000, 10_000, 1_000_000)
        spacings = ("alice_spacing_wavelengths", "irs_spacing_wavelengths")
        Scenario(na=MAX_NA, nr=MAX_NR, mc_samples=MAX_MC_SAMPLES, **dict.fromkeys(spacings, MAX_SPACING_WAVELENGTHS))
        bounds = [("na", MAX_NA), ("nr", MAX_NR), ("mc_samples", MAX_MC_SAMPLES)]
        for field, limit in bounds + [(name, MAX_SPACING_WAVELENGTHS) for name in spacings]:
            with pytest.raises(ConfigError, match=f"{field} must .*{limit}"):
                Scenario(**{field: limit + 1})
        with pytest.raises(ConfigError, match="na must be at most 1024"):
            parse_config('{"mc_samples": 1000000000000, "na": 10000000}')


class TestRunHeatmap:
    def test_row_count_and_lexicographic_order(self):
        result = run_heatmap(Scenario(), grid=(7, 5))
        assert all(len(result.values[c]) == 35 for c in result.columns)
        coords = list(zip(result.values["phi_deg"], result.values["theta_deg"]))
        assert coords == sorted(coords)
        assert result.columns == ("phi_deg", "theta_deg", "sinr_db", "ber")

    def test_minimum_sits_at_receiver_cell_on_coarse_grid(self):
        result = run_heatmap(Scenario(), grid=(19, 19))  # includes 0 and 90 degrees
        best = max(result_rows(result), key=lambda r: r["sinr_db"])
        assert (best["phi_deg"], best["theta_deg"]) == (0.0, 90.0)

    def test_cells_match_probe_sinr_route(self):
        scenario = Scenario()
        result = run_heatmap(scenario, grid=(7, 7))
        bob_budget, w_a = probe_setup(scenario)
        projector = an_projector_extended(w_a)
        for row in result_rows(result)[::5]:
            cell = replace(
                bob_budget,
                phi=math.radians(row["phi_deg"]),
                theta=math.radians(row["theta_deg"]),
            )
            gamma = sinr_eve_scalar(scenario, bob_budget, cell, w_a, projector)
            assert 10 * math.log10(gamma) == pytest.approx(row["sinr_db"], rel=1e-12)

    def test_off_band_cells_are_noise_like(self):
        result = run_heatmap(Scenario(), grid=(19, 19))
        off = [
            r["ber"]
            for r in result_rows(result)
            if r["phi_deg"] > 10.0 and abs(r["theta_deg"] - 90.0) > 10.0
            and r["phi_deg"] < 170.0
        ]
        assert float(np.median(off)) > 0.25

    def test_instantaneous_mode_is_deterministic(self):
        scenario = Scenario(an_mode="instantaneous", mc_samples=50, seed=3)
        a = run_heatmap(scenario, grid=(4, 4))
        b = run_heatmap(scenario, grid=(4, 4))
        assert result_rows(a) == result_rows(b)
        c = run_heatmap(replace(scenario, seed=4), grid=(4, 4))
        assert result_rows(a) != result_rows(c)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            run_heatmap(Scenario(), grid=(1, 5))

    @staticmethod
    def _assert_matches_per_cell_loop(scenario, grid):
        # the signal is the scalar route's bit for bit and the leak row within its
        # rounding bound against the textbook row (tests/oracles.py::leak_row_tol); the
        # bounds carry that through
        result = run_heatmap(scenario, grid)
        for column, (lo, hi) in heatmap_per_cell(scenario, grid).items():
            values = result.values[column]
            outside = np.flatnonzero(~((lo <= values) & (values <= hi)))
            assert outside.size == 0, f"{column} cell {outside[:1]} outside its bounds"

    # a block is sweeps._heatmap_block_cells cells (21 at na = 1024 and nr = 7), so at
    # large na the longer grids end mid-block after full ones; the examples make sure
    # both modes do
    @settings(max_examples=40, deadline=None)
    @given(
        na=st.integers(2, MAX_NA),
        nr=st.integers(1, 200),
        spacings=st.tuples(st.floats(0.3, 1.2), st.floats(0.3, 1.2)),
        rule=st.sampled_from(["sum-distance", "product"]),
        an_mode=st.sampled_from(["expected", "instantaneous"]),
        grid=st.tuples(st.integers(2, 6), st.integers(2, 40)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(na=1024, nr=7, spacings=(0.5, 1.2), rule="product", an_mode="expected", grid=(3, 50), seed=1)
    @example(na=700, nr=200, spacings=(1.2, 0.3), rule="sum-distance", an_mode="instantaneous",
             grid=(2, 95), seed=2)
    def test_block_evaluation_matches_per_cell_loop(self, na, nr, spacings, rule, an_mode, grid, seed):
        scenario = Scenario(
            na=na, nr=nr, alice_spacing_wavelengths=spacings[0], irs_spacing_wavelengths=spacings[1],
            path_loss_combine=rule, an_mode=an_mode, seed=seed, mc_samples=20,
        )
        self._assert_matches_per_cell_loop(scenario, grid)

    def test_cells_whose_signal_underflows_read_minus_inf_db(self):
        # at -3200 dBm some cells' signal power underflows to 0: log10(0) must not warn
        scenario = Scenario(pt_dbm=-3200.0)
        assert np.isneginf(run_heatmap(scenario, (3, 3)).values["sinr_db"]).sum() == 2
        self._assert_matches_per_cell_loop(scenario, (3, 3))

    # 5x5 = 25 cells: one cell a block, blocks that do and do not divide the grid,
    # exactly the grid, and more than the grid
    @pytest.mark.parametrize("block_cells", [1, 3, 5, 24, 25, 26])
    @pytest.mark.parametrize("an_mode", ["expected", "instantaneous"])
    def test_every_block_size_gives_the_per_cell_values(self, block_cells, an_mode, monkeypatch):
        scenario = Scenario(an_mode=an_mode, mc_samples=20, seed=4)
        set_heatmap_block_cells(monkeypatch, scenario, block_cells)
        self._assert_matches_per_cell_loop(scenario, (5, 5))

    @pytest.mark.parametrize("an_mode", ["expected", "instantaneous"])
    def test_every_block_size_gives_the_same_bits(self, an_mode, monkeypatch):
        scenario = Scenario(na=9, nr=37, alice_spacing_wavelengths=0.7, an_mode=an_mode, mc_samples=20, seed=4)
        results = []
        for block_cells in (1, 3, 5, 24, 25, 26, 4096):
            set_heatmap_block_cells(monkeypatch, scenario, block_cells)
            results.append({c: v.tolist() for c, v in run_heatmap(scenario, (5, 5)).values.items()})
        assert all(r == results[0] for r in results[1:])

    @pytest.mark.parametrize("an_mode", ["expected", "instantaneous"])
    def test_array_specs_are_built_once_per_run_not_per_cell(self, an_mode, monkeypatch):
        built = []
        post_init = ArraySpec.__post_init__
        monkeypatch.setattr(ArraySpec, "__post_init__", lambda spec: built.append(1) or post_init(spec))
        scenario = Scenario(an_mode=an_mode, mc_samples=5)
        counts = []
        for grid in ((2, 2), (6, 7)):
            scenario_module._array_spec.cache_clear()
            built.clear()
            run_heatmap(scenario, grid=grid)
            counts.append(len(built))
        assert counts[0] == counts[1] <= 2

    @pytest.mark.parametrize("an_mode", ["expected", "instantaneous"])
    @pytest.mark.parametrize("block_cells", [None, 4], ids=["production-blocks", "4-cell-blocks"])
    def test_cells_build_no_records_and_reach_probe_block_a_block_at_a_time(
        self, an_mode, block_cells, monkeypatch
    ):
        """Between a 3x3 and a 4x5 grid, no LinkBudget is built per cell, and
        probe_block runs once per block of sweeps._heatmap_block_cells cells,
        not once per cell."""
        scenario = Scenario(an_mode=an_mode, mc_samples=5)
        if block_cells is not None:
            set_heatmap_block_cells(monkeypatch, scenario, block_cells)
        block = sweeps._heatmap_block_cells(scenario)
        counts = count_calls(monkeypatch, ("probe_block",))
        records = []
        init = geometry.LinkBudget.__init__
        monkeypatch.setattr(geometry.LinkBudget, "__init__", lambda self, *a: records.append(1) or init(self, *a))
        built = {}
        for grid in ((3, 3), (4, 5)):
            cells = grid[0] * grid[1]
            counts["probe_block"] = 0
            records.clear()
            run_heatmap(scenario, grid)
            assert counts["probe_block"] == math.ceil(cells / block)
            built[cells] = len(records)
        assert (built[20] - built[9]) / (20 - 9) == 0

    @pytest.mark.parametrize("an_mode", ["expected", "instantaneous"])
    def test_builds_no_projector_and_only_the_pinned_calls_per_cell(self, an_mode, monkeypatch):
        """No noise projector at all: the leak rows are closed form.  Between a
        3x3 and a 4x5 grid, each cell makes the calls the benchmark pins: three
        steering vectors and five element_cycles rows (two in probe_block, one
        in each steering vector)."""
        scenario = Scenario(an_mode=an_mode, mc_samples=5)
        counts = count_calls(monkeypatch, ("an_projector", "steering_vector", "element_cycles"))
        seen = {}
        for grid in ((3, 3), (4, 5)):
            counts.update(dict.fromkeys(counts, 0))
            run_heatmap(scenario, grid)
            seen[grid[0] * grid[1]] = dict(counts)
        assert seen[9]["an_projector"] == seen[20]["an_projector"] == 0
        per_cell = {name: (seen[20][name] - seen[9][name]) / (20 - 9) for name in counts}
        assert per_cell == {"an_projector": 0, "steering_vector": 3, "element_cycles": 5}


class TestRunSweepNr:
    def test_shape_and_columns(self):
        result = run_sweep_nr(Scenario(), [10, 20], [10.0, 15.0])
        assert all(len(result.values[c]) == 4 for c in result.columns)
        assert result.columns == ("nr", "pt_dbm", "rs_proposed_bits", "rs_benchmark_bits")
        assert result.values["nr"].dtype.kind == "i"
        assert [(r["nr"], r["pt_dbm"]) for r in result_rows(result)] == [
            (10, 10.0), (10, 15.0), (20, 10.0), (20, 15.0)
        ]

    def test_rows_match_direct_pipeline_calls(self):
        scenario = Scenario()
        result = run_sweep_nr(scenario, [30], [12.0])
        sc = replace(scenario, nr=30, pt_dbm=12.0)
        for column, include_irs in (("rs_proposed_bits", True), ("rs_benchmark_bits", False)):
            expected, _, rate_tol = rate_reference(sc, include_irs)
            assert result.values[column][0] == pytest.approx(expected.rate_s, abs=rate_tol)

    def test_proposed_grows_benchmark_constant(self):
        result = run_sweep_nr(Scenario(), [10, 50, 100, 200], [10.0])
        proposed = result.values["rs_proposed_bits"].tolist()
        benchmark = result.values["rs_benchmark_bits"].tolist()
        assert all(a < b for a, b in zip(proposed, proposed[1:]))
        assert len(set(benchmark)) == 1

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            run_sweep_nr(Scenario(), [], [10.0])

    def test_fractional_element_count_rejected_naming_the_first(self):
        with pytest.raises(ValueError, match=r"^nr values must be integers, got 10\.7$"):
            run_sweep_nr(Scenario(), [10.7, 20.2], [10.0])
        assert run_sweep_nr(Scenario(), [10.0, np.int64(20)], [10.0]).values["nr"].tolist() == [10, 20]


class TestRunSweepDab:
    def test_example_grid_size(self):
        result = run_sweep_dab(Scenario(), list(range(10, 51, 5)), [10.0, 15.0])
        assert all(len(result.values[c]) == 18 for c in result.columns)

    def test_receiver_moves_along_the_original_ray(self):
        scenario = Scenario()
        result = run_sweep_dab(scenario, [35.0], [25.0])
        moved = replace(scenario, bob=Position(35.0, 0.0))
        assert result.values["rs_proposed_bits"][0] == secrecy_metrics(moved, moved.eve).rate_s

    def test_decreasing_under_product_combine_rule(self):
        scenario = Scenario(path_loss_combine="product")
        result = run_sweep_dab(scenario, list(range(10, 51, 5)), [10.0])
        values = result.values["rs_proposed_bits"].tolist()
        assert all(a > b for a, b in zip(values, values[1:]))
        bench = result.values["rs_benchmark_bits"].tolist()
        assert all(a > b for a, b in zip(bench, bench[1:]))

    def test_proposed_at_least_benchmark(self):
        result = run_sweep_dab(Scenario(), [10.0, 25.0, 40.0], [10.0, 15.0])
        assert all(result.values["rs_proposed_bits"] >= result.values["rs_benchmark_bits"])

    def test_rejects_non_positive_distance(self):
        with pytest.raises(ValueError):
            run_sweep_dab(Scenario(), [0.0, 10.0], [10.0])

    @pytest.mark.parametrize("value, text", [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")])
    def test_rejects_non_finite_distance_naming_it(self, value, text):
        with pytest.raises(ValueError, match=f"^dab values must be finite, got {text}$"):
            run_sweep_dab(Scenario(), [10.0, value, 20.0], [10.0])


def set_heatmap_block_cells(monkeypatch, scenario, cells):
    """Sizes HEATMAP_BLOCK_VALUES so that run_heatmap takes ``cells`` cells of
    ``scenario`` per block: three na-long rows and two nr-long rows a cell."""
    monkeypatch.setattr(sweeps, "HEATMAP_BLOCK_VALUES", cells * (3 * scenario.na + 2 * scenario.nr))
    assert sweeps._heatmap_block_cells(scenario) == cells


def count_calls(monkeypatch, names):
    """Calls of each package function in ``names``, counted under every
    module name bound to it, as a dict that updates while the test runs."""
    counts = dict.fromkeys(names, 0)
    modules = (arrays, geometry, transmitter, secrecy, sweeps, scenario_module, cli)
    for name in names:
        original = next(getattr(m, name) for m in modules if hasattr(m, name))

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


@st.composite
def rate_sweeps(draw):
    """A scene under either combine rule and spacings in [0.3, 1.2], 1-3 nr
    and dab values, and 1-4 powers in [-30, 40] dBm, repeats allowed."""
    spacing = st.floats(0.3, 1.2)
    scenario = Scenario(
        path_loss_combine=draw(st.sampled_from(PATH_LOSS_RULES)),
        alice_spacing_wavelengths=draw(spacing),
        irs_spacing_wavelengths=draw(spacing),
        an_mode=draw(st.sampled_from(["expected", "instantaneous"])),
    )
    pts = draw(st.lists(st.floats(-30.0, 40.0), min_size=1, max_size=4))
    pts += draw(st.lists(st.sampled_from(pts), max_size=4 - len(pts)))
    nr_values = draw(st.lists(st.integers(1, 200), min_size=1, max_size=3))
    dab_values = draw(st.lists(st.floats(0.5, 100.0), min_size=1, max_size=3))
    return scenario, nr_values, dab_values, pts


class TestRateSweepRows:
    @settings(max_examples=30, deadline=None)
    @given(rate_sweeps())
    @example((Scenario(), [1, 200], [0.5, 100.0], [10.0, -30.0, 10.0, 40.0]))
    def test_every_row_equals_one_pipeline_per_row(self, inputs):
        scenario, nr_values, dab_values, pts = inputs
        # the default transmitter sits at the origin and the receiver on the +x axis
        for run, axis, values in ((run_sweep_nr, "nr", nr_values), (run_sweep_dab, "bob", dab_values)):
            rows = result_rows(run(scenario, values, pts))
            assert len(rows) == len(values) * len(pts)
            for row, (value, pt) in zip(rows, [(v, pt) for v in values for pt in pts]):
                change = value if axis == "nr" else Position(value, 0.0)
                sc = replace(scenario, **{axis: change}, pt_dbm=pt)
                for column, include_irs in (("rs_proposed_bits", True), ("rs_benchmark_bits", False)):
                    expected, _, rate_tol = rate_reference(sc, include_irs)
                    assert row[column] == pytest.approx(expected.rate_s, abs=rate_tol)

    @pytest.mark.parametrize("run", [run_sweep_nr, run_sweep_dab])
    def test_per_axis_value_only_link_budgets_and_projectors(self, run, monkeypatch):
        """Per axis value, whatever the sweep's size and powers: one validated
        Scenario, equal to what dataclasses.replace builds, one receiver and
        one eve LinkBudget and one noise projector per column, and none of the
        heatmap's steering vectors or element cycles.  Each pt is
        validated once, as one Scenario."""
        scenario = Scenario()
        # the default transmitter sits at the origin and the receiver on the +x axis
        change = (lambda v: {"nr": v}) if run is run_sweep_nr else (lambda v: {"bob": Position(v, 0.0)})
        counts = count_calls(
            monkeypatch, ("link_budget", "an_projector", "steering_vector", "element_cycles")
        )
        validate, built = Scenario.__post_init__, []
        monkeypatch.setattr(Scenario, "__post_init__", lambda self: built.append(self) or validate(self))
        for size in (1, 3, 50):
            for pts in ([10.0], [10.0, 15.0, 15.0, 30.0]):
                counts.update(dict.fromkeys(counts, 0))
                built.clear()
                axis = list(range(10, 10 + size))
                run(scenario, axis, pts)
                scenes = built[:]  # replace below validates too
                assert counts == {
                    "link_budget": 4 * size,
                    "an_projector": 2 * size,
                    "steering_vector": 0,
                    "element_cycles": 0,
                }
                assert scenes == [replace(scenario, pt_dbm=pt) for pt in pts] + [
                    replace(scenario, **change(v)) for v in axis
                ]

    @pytest.mark.parametrize(
        "run, scenario, axis, error, message",
        [
            (run_sweep_nr, Scenario(), [10, 0], ConfigError, "nr must be at least 1, got 0"),
            (run_sweep_nr, Scenario(), [10, 1_000_001], ConfigError, "nr must be at most 1000000, got 1000001"),
            (run_sweep_dab, Scenario(irs=Position(30.0, 0.0)), [10.0, 30.0], GeometryError,
             "bob and irs coincide at Position(x=30.0, y=0.0)"),
        ],
    )
    def test_each_scene_is_validated_in_full(self, run, scenario, axis, error, message):
        with pytest.raises(error) as info:
            run(scenario, axis, [10.0])
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("run", [run_sweep_nr, run_sweep_dab])
    def test_one_secrecy_rates_call_per_sweep_whatever_its_size(self, run, monkeypatch):
        results = []
        rates = sweeps.secrecy_rates
        monkeypatch.setattr(sweeps, "secrecy_rates", lambda *args: results.append(rates(*args)) or results[-1])
        for axis, pts in (([10], [10.0]), ([10, 20, 30], [10.0, 15.0, 15.0, 30.0]), (list(range(10, 60)), [10.0])):
            results.clear()
            run(Scenario(), axis, pts)
            assert [r.shape for r in results] == [(2, len(axis), len(pts))]


class TestMetricsWork:
    @pytest.mark.parametrize("an_mode, steering_rows", [("expected", 0), ("instantaneous", 1)])
    def test_builds_no_steering_vector_or_projector(self, an_mode, steering_rows, config_file, monkeypatch):
        """metrics makes the receiver's and the probe's LinkBudget and, for its one
        noise draw, one block of steering rows: no steering vector, projector,
        probe block or element cycles, at any probe."""
        counts = count_calls(
            monkeypatch,
            ("link_budget", "steering_vector", "steering_rows", "an_projector", "probe_block", "element_cycles"),
        )
        for eve in ([], ["--eve=-5,3"], ["--eve=20,0"]):
            counts.update(dict.fromkeys(counts, 0))
            assert cli.main(["metrics", "--config", config_file, "--an-mode", an_mode, *eve]) == 0
            assert counts == {
                "link_budget": 2,
                "steering_vector": 0,
                "steering_rows": steering_rows,
                "an_projector": 0,
                "probe_block": 0,
                "element_cycles": 0,
            }


# alpha = 1 leaves no noise in the probe's SINR; at nr = 1 the IRS path cancels part
# of the direct one at this eve, so without the IRS the probe's SNR is the largest
# of the scene's four, and at 3081 dBm alone above MAX_SNR.
NO_IRS_LOUDEST = Scenario(alpha=1.0, nr=1, eve=Position(-7.5, -2.5))
OVERFLOW_AT_3081 = "pt_dbm = 3081.0 and noise_dbm = -20.0 give an SNR"
OVERFLOW_AT_3070 = "pt_dbm = 3070.0 and noise_dbm = -40.0 give an SNR"


class TestRateSweepFaults:
    """The fault a sweep reports does not depend on how its columns stream
    through secrecy_rates in blocks."""

    @pytest.fixture(params=[1, sweeps.HEATMAP_BLOCK_VALUES], ids=["one-scene-blocks", "default-blocks"])
    def blocks(self, request, monkeypatch):
        monkeypatch.setattr(sweeps, "HEATMAP_BLOCK_VALUES", request.param)

    @pytest.mark.parametrize("run, axis", [(run_sweep_nr, [1]), (run_sweep_dab, [20.0])])
    def test_overflow_in_the_no_irs_column_alone_names_its_power(self, run, axis, blocks):
        assert run(NO_IRS_LOUDEST, axis, [3080.0]).values["rs_benchmark_bits"].tolist() == [0.0]
        with pytest.raises(ValueError, match=OVERFLOW_AT_3081):
            run(NO_IRS_LOUDEST, axis, [3080.0, 3081.0])

    def test_no_irs_overflow_wins_over_a_later_axis_values_proposed_overflow(self, blocks):
        # at nr = 50 the proposed column overflows already at 3080 dBm
        with pytest.raises(ValueError, match="pt_dbm = 3080.0"):
            run_sweep_nr(NO_IRS_LOUDEST, [50], [3080.0, 3081.0])
        with pytest.raises(ValueError, match=OVERFLOW_AT_3081):
            run_sweep_nr(NO_IRS_LOUDEST, [1, 50], [3080.0, 3081.0])

    @pytest.mark.parametrize(
        "run, axis, message",
        [
            (run_sweep_nr, [10, 2_000_000], "nr must be at most 1000000, got 2000000"),
            (run_sweep_dab, [10.0, 1e200], "falls below the normal float range"),
        ],
        ids=["nr", "dab"],
    )
    def test_a_bad_axis_value_wins_over_an_earlier_overflow(self, run, axis, message, blocks):
        """An out-of-range nr fails the scene; a 1e200 m distance fails the receiver's path gain."""
        with pytest.raises(ValueError, match=OVERFLOW_AT_3070):
            run(Scenario(noise_dbm=-40.0), axis[:1], [10.0, 3070.0, 3071.0])
        for order in (axis, axis[::-1]):
            with pytest.raises(ValueError, match=message):
                run(Scenario(noise_dbm=-40.0), order, [10.0, 3070.0, 3071.0])

    def test_cli_reports_the_bad_axis_value_not_the_earlier_overflow(self, tmp_path, capsys):
        config, out = tmp_path / "scenario.json", tmp_path / "nr.csv"
        config.write_text('{"noise_dbm": -40}')
        argv = ["sweep-nr", "--config", str(config), "--nr", "10,2000000", "--pt", "10,3070", "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "dmirs: error: nr must be at most 1000000, got 2000000\n"
        assert not out.exists()


class TestWriteCsv:
    def test_header_and_preamble(self, tmp_path):
        result = run_sweep_nr(Scenario(), [10], [10.0])
        out = tmp_path / "nr.csv"
        with open(out, "wb") as fh:
            count = write_csv(result, fh)
        data = out.read_bytes()
        assert count == len(data)
        text = data.decode("utf-8")
        comment_lines = [l for l in text.splitlines() if l.startswith("#")]
        assert any("seed = 0" in l for l in comment_lines)
        assert any('"nr": 50' in l for l in comment_lines)  # scenario echo
        body = [l for l in text.splitlines() if not l.startswith("#")]
        assert body[0] == "nr,pt_dbm,rs_proposed_bits,rs_benchmark_bits"
        assert text.endswith("\n")
        assert "\r" not in text

    def test_heatmap_header(self, tmp_path):
        result = run_heatmap(Scenario(), grid=(2, 2))
        out = tmp_path / "hm.csv"
        with open(out, "wb") as fh:
            write_csv(result, fh)
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == "phi_deg,theta_deg,sinr_db,ber"

    def test_nine_significant_digits(self, tmp_path):
        result = run_sweep_nr(Scenario(), [50], [25.0])
        out = tmp_path / "nr.csv"
        with open(out, "wb") as fh:
            write_csv(result, fh)
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        rs_proposed = body[1].split(",")[2]
        assert rs_proposed == format(result.values["rs_proposed_bits"][0], ".9g")
        assert len(rs_proposed.replace(".", "").replace("-", "").lstrip("0")) <= 9

    def test_byte_identical_reruns(self, tmp_path):
        blobs = []
        for name in ("a.csv", "b.csv"):
            result = run_heatmap(Scenario(seed=5), grid=(5, 5))
            with open(tmp_path / name, "wb") as fh:
                write_csv(result, fh)
            blobs.append((tmp_path / name).read_bytes())
        assert blobs[0] == blobs[1]


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text("{}")
    return str(path)


class TestCli:
    def test_metrics_prints_key_value_lines(self, config_file, capsys):
        assert cli.main(["metrics", "--config", config_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        keys = [l.split("=")[0] for l in lines]
        assert keys == ["gamma_b", "gamma_e", "rate_b", "rate_e", "rate_s", "ber_b", "ber_probe"]
        values = {l.split("=")[0]: float(l.split("=")[1]) for l in lines}
        assert values["gamma_b"] == pytest.approx(32065.495, rel=1e-4)

    def test_metrics_eve_override(self, config_file, capsys):
        assert cli.main(["metrics", "--config", config_file, "--eve", "20,0"]) == 0
        out = capsys.readouterr().out
        rate_s = float([l for l in out.splitlines() if l.startswith("rate_s=")][0].split("=")[1])
        assert rate_s == pytest.approx(0.0, abs=1e-9)

    def test_heatmap_writes_csv(self, config_file, tmp_path, capsys):
        out = tmp_path / "hm.csv"
        code = cli.main(
            ["heatmap", "--config", config_file, "--grid", "5x5", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().count("\n") == 5 * 5 + 4 + 1  # rows + preamble + header

    def test_sweep_nr_range_syntax(self, config_file, tmp_path):
        out = tmp_path / "nr.csv"
        code = cli.main(
            ["sweep-nr", "--config", config_file, "--nr", "10:50:10", "--pt", "10,15", "--out", str(out)]
        )
        assert code == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 1 + 5 * 2

    def test_sweep_dab(self, config_file, tmp_path):
        out = tmp_path / "dab.csv"
        code = cli.main(
            ["sweep-dab", "--config", config_file, "--dab", "10:50:5", "--pt", "10,15", "--out", str(out)]
        )
        assert code == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 1 + 9 * 2

    def test_missing_config_exits_2(self, capsys):
        assert cli.main(["metrics", "--config", "/nonexistent.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"alpha": 2.0}')
        assert cli.main(["metrics", "--config", str(bad)]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data",
        [b'{\r\n"na": 16,\r\n"nr": x}', b'{\r"na": 16,\r\r"nr": x}', b'{"na": 3}\r\r{', b'{"eve": [1,\r\n2]}\r\n',
         b'{"an_mode": "caf\xc3\xa9"}', b'{"an_mode": "\xff"}', b"\xef\xbb\xbf{}", b""],
    )
    def test_config_file_reads_as_utf8_text_with_universal_newlines(self, tmp_path, capsys, data):
        """The config's bytes give the result and message parse_config gives
        on the file as text mode reads it: each of \\r\\n and \\r is a newline."""
        path = tmp_path / "scenario.json"
        path.write_bytes(data)
        try:
            with open(path, encoding="utf-8") as fh:
                parse_config(fh.read())
            expected = (0, "")
        except ValueError as exc:
            expected = (2, f"dmirs: error: {exc}\n")
        assert (cli.main(["metrics", "--config", str(path)]), capsys.readouterr().err) == expected

    @pytest.mark.parametrize("text", [DEEP_ARRAY, '{"na": ' + DEEP_ARRAY + "}"], ids=["array", "na-value"])
    def test_deeply_nested_config_exits_2_with_one_line(self, tmp_path, capsys, text):
        bad = tmp_path / "deep.json"
        bad.write_text(text)
        out = tmp_path / "nr.csv"
        assert cli.main(["metrics", "--config", str(bad)]) == 2
        assert cli.main(["sweep-nr", "--config", str(bad), "--nr", "10", "--pt", "10", "--out", str(out)]) == 2
        message = "dmirs: error: config nests arrays or objects too deeply to parse"
        assert capsys.readouterr().err.splitlines() == [message, message]
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("an_mode", '"' + "x" * 100_000 + '"'),
            ("path_loss_combine", '"' + "y" * 100_000 + '"'),
            ("na", '"' + "z" * 100_000 + '"'),
            ("na", "[" * 900 + "]" * 900),
            ("nr", "7" * 4000),
            ("alpha", '"' + "w" * 100_000 + '"'),
            ("bob", '"' + "v" * 100_000 + '"'),
            ("pt_dbm", "1" + "0" * 400),
            ("eve", "[0, " + "9" * 400 + "]"),
            ("k" * 100_000, "0"),
        ],
        ids=[
            "an_mode", "path_loss_combine", "na", "na-nested", "nr-digits", "alpha", "bob", "pt-digits",
            "eve-digits", "unknown-key",
        ],
    )
    def test_overlong_config_value_exits_2_with_one_short_line(self, tmp_path, capsys, field, value):
        path = tmp_path / "long.json"
        path.write_text(f'{{"{field}": {value}}}')
        assert cli.main(["metrics", "--config", str(path)]) == 2
        (line,) = capsys.readouterr().err.encode("utf-8").splitlines()
        subject = field if hasattr(Scenario(), field) else "unknown config keys:"  # an unknown key is listed
        assert len(line) < 300 and line.startswith(f"dmirs: error: {subject} ".encode())
        assert line.endswith(b" characters)")  # the echoed value was cut, its length given

    def test_overlong_flag_or_environment_value_exits_2_with_one_short_line(
        self, config_file, tmp_path, monkeypatch, capsys
    ):
        out = str(tmp_path / "o.csv")
        monkeypatch.setenv("DMIRS_SEED", "s" * 100_000)
        assert cli.main(["heatmap", "--config", config_file, "--grid", "2x2", "--out", out]) == 2
        monkeypatch.delenv("DMIRS_SEED")
        assert cli.main(["sweep-nr", "--config", config_file, "--nr", "n" * 100_000, "--pt", "10", "--out", out]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert [line[:30] for line in lines] == ["dmirs: error: DMIRS_SEED must ", "dmirs: error: could not parse "]
        assert all(len(line) < 300 and "... (100002 characters)" in line for line in lines)

    def test_fractional_nr_exits_2_with_one_line(self, config_file, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert cli.main(["sweep-nr", "--config", config_file, "--nr", "1.5", "--pt", "10", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "dmirs: error: nr values must be integers, got 1.5\n"
        assert not out.exists()

    def test_bad_range_exits_2(self, config_file, tmp_path, capsys):
        code = cli.main(
            ["sweep-nr", "--config", config_file, "--nr", "10:x", "--pt", "10", "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2

    def test_unwritable_output_exits_3(self, config_file, capsys):
        code = cli.main(
            ["sweep-nr", "--config", config_file, "--nr", "10", "--pt", "10",
             "--out", "/nonexistent-dir/out.csv"]
        )
        assert code == 3

    def test_env_seed_override(self, config_file, tmp_path, monkeypatch):
        out = tmp_path / "nr.csv"
        monkeypatch.setenv("DMIRS_SEED", "777")
        cli.main(["sweep-nr", "--config", config_file, "--nr", "10", "--pt", "10", "--out", str(out)])
        assert "# seed = 777" in out.read_text()

    def test_cli_seed_flag_beats_env(self, config_file, tmp_path, monkeypatch):
        out = tmp_path / "hm.csv"
        monkeypatch.setenv("DMIRS_SEED", "777")
        cli.main(
            ["heatmap", "--config", config_file, "--grid", "3x3", "--out", str(out), "--seed", "9"]
        )
        assert "# seed = 9" in out.read_text()

    @settings(max_examples=300, deadline=None)
    @given(
        base=st.fixed_dictionaries(
            {"seed": st.integers(1, 2**40)},  # a seed the overrides may or may not replace
            optional={
                "na": st.integers(2, 64), "nr": st.integers(1, 300), "pt_dbm": st.floats(-30.0, 40.0),
                "alice": st.sampled_from(POINTS), "irs": st.sampled_from(POINTS), "eve": st.sampled_from(POINTS),
                "an_mode": st.sampled_from(secrecy.AN_MODES), "mc_samples": st.integers(1, MAX_MC_SAMPLES),
            },
        ),
        env_seed=st.none() | st.integers(0, 2**40).map(str) | st.just("-1"),
        flags=st.fixed_dictionaries({
            "eve": st.none() | st.sampled_from(POINTS).map(lambda p: Position(float(p[0]), float(p[1]))),
            "an_mode": st.none() | st.sampled_from(secrecy.AN_MODES) | st.just("typical"),
            "seed": st.none() | st.integers(0, 2**40) | st.just(-1),
            "mc_samples": st.none() | st.integers(1, MAX_MC_SAMPLES) | st.sampled_from([0, MAX_MC_SAMPLES + 1]),
        }),
    )
    def test_overrides_build_what_dataclasses_replace_builds(self, tmp_path_factory, base, env_seed, flags):
        """DMIRS_SEED and the flags over a drawn config give, field by field and
        type by type, the Scenario dataclasses.replace would build, or the same
        exception type and message."""
        path = tmp_path_factory.getbasetemp() / "overrides.json"
        path.write_text(json.dumps(base))
        overrides = {} if env_seed is None else {"seed": int(env_seed)}
        overrides.update((name, value) for name, value in flags.items() if value is not None)
        with pytest.MonkeyPatch.context() as patch:
            if env_seed is None:
                patch.delenv("DMIRS_SEED", raising=False)
            else:
                patch.setenv("DMIRS_SEED", env_seed)
            loaded = built_or_raised(lambda: cli._load_scenario(argparse.Namespace(config=str(path)), **flags))
        assert loaded == built_or_raised(lambda: replace(parse_config(json.dumps(base)), **overrides))

    def test_env_seed_must_be_integer(self, config_file, monkeypatch, capsys):
        monkeypatch.setenv("DMIRS_SEED", "abc")
        assert cli.main(["metrics", "--config", config_file]) == 2

    def test_metrics_an_mode_flag(self, config_file, capsys):
        assert cli.main(
            ["metrics", "--config", config_file, "--an-mode", "instantaneous"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("gamma_b=")

    @pytest.mark.parametrize(
        "spec", ["10:inf:10", "nan:20:10", "10:20:inf", "-inf:20:1", "0:1e308:1e-308", "-1e308:1e308:1"]
    )
    def test_non_finite_or_overflowing_range_exits_2_with_one_line(self, config_file, tmp_path, capsys, spec):
        code = cli.main(
            ["sweep-nr", "--config", config_file, f"--nr={spec}", "--pt", "10",
             "--out", str(tmp_path / "o.csv")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("dmirs: error: nr range") and err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    def test_range_length_bound(self, monkeypatch):
        assert cli.MAX_RANGE_VALUES == 10_000
        # the bound counts the values yielded: a stop a hair past the last value adds none
        assert cli._parse_values("0:9999.0000001:1", "pt") == cli._parse_values("0:9999:1", "pt")
        assert len(cli._parse_values("0:9999:1", "pt")) == 10_000
        for spec in ("0:10000:1", "0:1e308:1e-308"):
            with pytest.raises(ConfigError, match=re.escape(f"pt range '{spec}' has more than 10000 values")):
                cli._parse_values(spec, "pt")
        monkeypatch.setattr(cli, "MAX_RANGE_VALUES", 5)
        assert cli._parse_values("1:5:1", "nr") == [1.0, 2.0, 3.0, 4.0, 5.0]
        for spec in ("1:6:1", "0:1:0.1"):
            with pytest.raises(ConfigError, match="more than 5 values"):
                cli._parse_values(spec, "nr")
        # a comma list has the same bound; empty items do not count
        assert cli._parse_values("1,2,,3,4,5", "pt") == [1.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.raises(ConfigError, match=re.escape("pt list '1,2,3,4,5,6' has more than 5 values")):
            cli._parse_values("1,2,3,4,5,6", "pt")

    def test_range_never_passes_its_stop(self):
        assert len(cli._parse_values("0:0.3:0.1", "pt")) == 4
        assert cli._parse_values("10:200:10", "nr") == [float(v) for v in range(10, 201, 10)]
        # 1.0000000003 lies 4e-11 past the stop: inside an absolute slack of 1e-9, but 0.4 of a step
        assert cli._parse_values("1:1.00000000026:1e-10", "dab") == [1.0, 1.0000000001, 1.0000000002]

    @pytest.mark.parametrize("command, axis", [("sweep-nr", "nr"), ("sweep-dab", "dab")])
    def test_sweep_size_bounds_exit_2_before_the_sweep_runs(
        self, command, axis, config_file, tmp_path, monkeypatch, capsys
    ):
        """A comma list longer than MAX_RANGE_VALUES, or more than
        MAX_GRID_CELLS rows in all, exits 2 with one line and never reaches the
        sweep; a sweep of exactly MAX_GRID_CELLS rows runs."""
        monkeypatch.setattr(cli, "MAX_RANGE_VALUES", 4)
        monkeypatch.setattr(cli, "MAX_GRID_CELLS", 6)
        out = tmp_path / "o.csv"

        def sweep(values, pts):
            return cli.main([command, "--config", config_file, f"--{axis}", values, "--pt", pts, "--out", str(out)])

        assert sweep("10,20", "1:3:1") == 0
        assert len([line for line in out.read_text().splitlines() if not line.startswith("#")]) == 1 + 6
        out.unlink()
        run = f"run_sweep_{axis}"

        def must_not_run(*args, **kwargs):
            raise AssertionError(f"{run} called for an over-long sweep")

        monkeypatch.setitem(cli._parser().commands[command]._defaults, "run", must_not_run)  # what _cmd_sweep calls
        for values, pts, message in (
            ("10:30:10", "1,2,3", f"3 {axis} values by 3 pt values make more than 6 sweep rows"),
            ("10,20,30,40,50", "1", f"{axis} list '10,20,30,40,50' has more than 4 values"),
            ("10", "1,2,3,4,5", "pt list '1,2,3,4,5' has more than 4 values"),
        ):
            assert sweep(values, pts) == 2
            assert capsys.readouterr().err == f"dmirs: error: {message}\n"
        assert not out.exists()

    def test_grid_cell_bound_exits_2_before_the_heatmap_runs(self, config_file, tmp_path, monkeypatch, capsys):
        assert cli.MAX_GRID_CELLS == 1_000_000
        assert cli._parse_grid("1000x1000") == (1000, 1000)

        def must_not_run(*args, **kwargs):
            raise AssertionError("run_heatmap called for an over-long grid")

        monkeypatch.setattr(cli, "run_heatmap", must_not_run)
        for grid in ("1001x1000", "1000000000x1000000000"):
            code = cli.main(
                ["heatmap", "--config", config_file, "--grid", grid, "--out", str(tmp_path / "o.csv")]
            )
            assert code == 2
            assert "more than 1000000 cells" in capsys.readouterr().err

    def test_size_bounds_exit_2_before_anything_is_evaluated(self, config_file, tmp_path, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("evaluated a scenario over the size bounds")

        monkeypatch.setattr(cli, "secrecy_metrics", must_not_run)
        monkeypatch.setattr(cli, "run_heatmap", must_not_run)
        monkeypatch.setattr(sweeps, "secrecy_metrics", must_not_run)
        huge = tmp_path / "huge.json"
        huge.write_text('{"na": 10000000}')
        out = str(tmp_path / "o.csv")
        runs = [
            (["metrics", "--config", str(huge)], "na must be at most"),
            (["sweep-nr", "--config", config_file, "--nr", "1e12:1e12:1", "--pt", "10", "--out", out],
             "nr must be at most"),
            (["heatmap", "--config", config_file, "--grid", "3x3", "--mc-samples", "1000000000000",
              "--out", out], "mc_samples must lie in"),
        ]
        for argv, message in runs:
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert message in err and err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "command, flag, spec",
        [("sweep-dab", "dab", "nan,10"), ("sweep-dab", "pt", "10,-inf"),
         ("sweep-nr", "pt", "10,inf"), ("sweep-nr", "nr", "nan"), ("sweep-nr", "nr", "10,1e400"),
         ("metrics", "eve", "nan,0"), ("metrics", "eve", "inf,0")],
    )
    def test_non_finite_list_value_exits_2_naming_the_flag(self, config_file, tmp_path, capsys, command, flag, spec):
        out = tmp_path / "o.csv"
        if command == "metrics":
            argv = [command, "--config", config_file, f"--eve={spec}"]
            x = spec.split(",")[0]
            message = f"position coordinates must be finite, got Position(x={x}, y=0.0)"
        else:
            values = {"dab": "10", "pt": "10", "nr": "10", flag: spec}
            axis = "dab" if command == "sweep-dab" else "nr"
            argv = [command, "--config", config_file, f"--{axis}", values[axis], "--pt", values["pt"],
                    "--out", str(out)]
            message = f"{flag} values {spec!r} must all be finite"
        code = cli.main(argv)
        out_err = capsys.readouterr()
        assert code == 2
        assert out_err.err == f"dmirs: error: {message}\n" and out_err.out == ""
        assert not out.exists()

    def test_config_is_validated_as_written_then_overridden_in_one_step(
        self, config_file, tmp_path, monkeypatch, capsys
    ):
        """Each call reads the file; the first call for a content validates it
        as written and then with its overrides, and a repeat of the same bytes
        validates only the overrides, from the memoised Scenario."""
        cli._parse_config_bytes.cache_clear()  # the fixture's "{}" may be memoised by an earlier test
        validate, built = Scenario.__post_init__, []
        monkeypatch.setattr(Scenario, "__post_init__", lambda self: built.append(self) or validate(self))

        def run(argv, env_seed=None):
            if env_seed is None:
                monkeypatch.delenv("DMIRS_SEED", raising=False)
            else:
                monkeypatch.setenv("DMIRS_SEED", env_seed)
            built.clear()
            code = cli.main(argv)
            return code, len(built), capsys.readouterr().err

        out = tmp_path / "o.csv"
        metrics = ["metrics", "--config", config_file, "--eve=-5,3", "--an-mode", "expected"]
        heatmap = ["heatmap", "--config", config_file, "--grid", "3x3", "--seed", "9", "--mc-samples", "10",
                   "--out", str(out)]
        sweep_nr = ["sweep-nr", "--config", config_file, "--nr", "10,20,30", "--pt", "10,15", "--out", str(out)]
        # the file's Scenario, then one with DMIRS_SEED and every flag applied
        assert run(metrics) == (0, 2, "")
        # the same bytes again: only the overrides are applied and validated
        assert run(metrics) == (0, 1, "")
        assert run(metrics, "7") == (0, 1, "")
        assert run(heatmap, "7") == (0, 1, "")
        assert "# seed = 9" in out.read_text()
        # a sweep takes no flag: one Scenario per pt (validated before any row), then one per nr
        # value, whatever the number of pt values
        assert run(sweep_nr) == (0, 2 + 3, "")
        # DMIRS_SEED must parse even when --seed replaces it, but only the seed used is range-checked
        assert run(heatmap, "abc") == (2, 0, "dmirs: error: DMIRS_SEED must be an integer, got 'abc'\n")
        assert run(heatmap, "-1")[:2] == (0, 1)
        # a changed DMIRS_SEED takes effect on the next call over the memoised Scenario
        assert run(metrics[:3], "7")[:2] == (0, 1) and built[-1].seed == 7
        assert run(metrics[:3], "8")[:2] == (0, 1) and built[-1].seed == 8
        assert run(metrics[:3]) == (0, 0, "")
        # an edited file is read and validated as written again; its old bytes are still memoised
        Path(config_file).write_text('{"seed": 5}')
        assert run(metrics) == (0, 2, "") and built[0].seed == 5
        assert run(metrics) == (0, 1, "")
        Path(config_file).write_text("{}")
        assert run(metrics) == (0, 1, "")
        # the file is validated as written: its eve on alice exits 2 though --eve moves it,
        # and a failed parse is not memoised, so every call fails the same way
        on_alice = tmp_path / "on_alice.json"
        on_alice.write_text('{"eve": [0, 0]}')
        metrics[2] = str(on_alice)
        for _ in range(3):
            assert run(metrics) == (2, 1, "dmirs: error: eve and alice coincide at Position(x=0.0, y=0.0)\n")

    def test_config_read_errors_keep_their_exit_codes_and_messages(self, tmp_path, capsys):
        """How a config file that cannot be read or decoded fails, byte for
        byte: a missing file and undecodable bytes exit 2, a directory exits
        3 naming it, and \\r\\n and \\r are newlines in parse messages."""
        missing = str(tmp_path / "missing.json")
        cases = [
            (missing, None, 2, f"dmirs: error: config file not found: {missing}"),
            (str(tmp_path), None, 3, f"dmirs: i/o error: [Errno 21] Is a directory: {str(tmp_path)!r}"),
            ("a\0b.json", None, 2, "dmirs: error: embedded null byte"),
            (
                str(tmp_path / "latin1.json"), b'{"an_mode": "caf\xe9"}', 2,
                "dmirs: error: 'utf-8' codec can't decode byte 0xe9 in position 16: invalid continuation byte",
            ),
            (
                str(tmp_path / "newlines.json"), b'{\r\n"na": 16,\r"nr": x}', 2,
                "dmirs: error: config parse error at line 3, column 7: Expecting value",
            ),
            (str(tmp_path / "crlf.json"), b'{\r\n"na": 8,\r\n"nr": 7\r}\r\n', 0, ""),
        ]
        for path, data, code, message in cases:
            if data is not None:
                Path(path).write_bytes(data)
            for _ in range(2):  # a second call fails the same way
                assert cli.main(["metrics", "--config", path]) == code
                captured = capsys.readouterr()
                assert captured.err == (message and message + "\n")
                assert captured.out.startswith("gamma_b=") == (code == 0)

    @pytest.mark.parametrize("an_mode", ["expected", "instantaneous"])
    @pytest.mark.parametrize("route", ["config", "env", "flag"])
    def test_negative_seed_exits_2_naming_the_field(self, tmp_path, monkeypatch, capsys, route, an_mode):
        config = {"an_mode": an_mode, "seed": -1} if route == "config" else {"an_mode": an_mode}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        if route == "env":
            monkeypatch.setenv("DMIRS_SEED", "-1")
        else:
            monkeypatch.delenv("DMIRS_SEED", raising=False)
        out = tmp_path / "hm.csv"
        argv = ["heatmap", "--config", str(path), "--grid", "3x3", "--mc-samples", "10", "--out", str(out)]
        if route == "flag":
            argv += ["--seed", "-1"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "dmirs: error: seed must be non-negative, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["metrics", "--config", "c.json"],
            ["metrics", "--config=c.json", "--eve=-5,3", "--an-mode", "instantaneous"],
            ["heatmap", "--config", "c.json", "--out", "o.csv"],
            ["heatmap", "--out", "o.csv", "--grid", "3x3", "--config", "c.json", "--mc-samples", "5", "--seed", "2"],
            ["sweep-nr", "--config", "c.json", "--nr", "10:200:10", "--pt", "10,15", "--out", "o.csv"],
            ["sweep-dab", "--config", "c.json", "--dab", "10,20", "--pt", "10", "--out", "o.csv"],
        ],
    )
    def test_dispatch_gives_the_top_level_parsers_namespace(self, argv):
        args = vars(cli._parse(argv))
        assert args == vars(cli._parser().parse_args(argv)) and args["command"] == argv[0]

    @pytest.mark.parametrize(
        "argv",
        [
            [], ["-h"], ["metrics", "-h"], ["bogus"], ["--x", "metrics"], ["metrics"],
            ["metrics", "--config", "c.json", "--an-mode", "x"],
            ["metrics", "--config", "c.json", "--eve", "-5,3"],
            ["metrics", "--config", "c.json", "--unknown"],
            ["metrics", "--config", "c.json", "extra"],
            ["metrics", "--config", "c.json", "--", "extra"],
            ["metrics", "--config", "c.json", "--bogus", "-h"],
            ["heatmap", "--config", "c.json", "--grid", "-3x-3", "--out", "o.csv"],
        ],
    )
    def test_usage_help_and_errors_are_the_top_level_parsers(self, argv, capsys):
        def outcome(parse):
            with pytest.raises(SystemExit) as info:
                parse(argv)
            captured = capsys.readouterr()
            return info.value.code, captured.out, captured.err

        assert outcome(cli.main) == outcome(cli._parser().parse_args)

    @pytest.mark.parametrize("command", ["sweep-nr", "sweep-dab"])
    def test_pt_help_names_both_forms(self, command, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--pt PT transmit powers in dBm, start:stop:step or list" in help_text

    def test_negative_probe_coordinate_with_equals_form(self, config_file, tmp_path, capsys):
        assert cli.main(["metrics", "--config", config_file, "--eve=-5,3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [l.split("=")[0] for l in lines] == [
            "gamma_b", "gamma_e", "rate_b", "rate_e", "rate_s", "ber_b", "ber_probe"
        ]
        moved = tmp_path / "moved.json"
        moved.write_text('{"eve": [-5, 3]}')
        assert cli.main(["metrics", "--config", str(moved)]) == 0
        assert capsys.readouterr().out.splitlines() == lines

    @pytest.mark.parametrize("config", ['{"pt_dbm": 5000}', '{"noise_dbm": -5000}'])
    def test_power_level_out_of_float_range_exits_2_with_one_line(self, tmp_path, capsys, config):
        path = tmp_path / "power.json"
        path.write_text(config)
        assert cli.main(["metrics", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dmirs: error: ") and "dBm is not a finite, nonzero power" in err
        assert err.count("\n") == 1

    def test_sweep_power_out_of_float_range_exits_2(self, config_file, tmp_path, capsys):
        out = tmp_path / "o.csv"
        argv = ["sweep-nr", "--config", config_file, "--nr", "10", "--pt", "5000", "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "pt_dbm = 5000.0 dBm is not a finite, nonzero power" in err and err.count("\n") == 1
        assert not out.exists()

    # 3060 dBm gives a finite SNR near 1e308, whose BER argument sqrt(2*SNR) overflows
    @pytest.mark.parametrize("config", ['{"pt_dbm": 3080}', '{"noise_dbm": -3230}', '{"pt_dbm": 3060}'])
    @pytest.mark.parametrize("command", ["metrics", "heatmap", "sweep-nr", "sweep-dab"])
    def test_overflowing_snr_exits_2_naming_both_power_levels(self, tmp_path, capsys, config, command):
        path = tmp_path / "power.json"
        path.write_text(config)
        out = tmp_path / "o.csv"
        pt = str(json.loads(config).get("pt_dbm", 25.0))
        options = {
            "metrics": [],
            "heatmap": ["--grid", "3x3", "--out", str(out)],
            "sweep-nr": ["--nr", "50", "--pt", pt, "--out", str(out)],
            "sweep-dab": ["--dab", "10:20:10", "--pt", pt, "--out", str(out)],
        }[command]
        assert cli.main([command, "--config", str(path), *options]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dmirs: error: pt_dbm = ") and " and noise_dbm = " in err
        assert "SNR too large" in err and err.count("\n") == 1
        assert not out.exists()

    # (d/d0)**-2 overflows below d/d0 ~ 1e-154 and raises ZeroDivisionError once d/d0 underflows to 0
    @pytest.mark.parametrize(
        "config, command, options",
        [
            *[('{"d0_m": 1e300}', c, []) for c in ("metrics", "heatmap", "sweep-nr", "sweep-dab")],
            ('{"bob": [1e-300, 0]}', "metrics", []),
            ('{"bob": [1e-300, 0]}', "heatmap", []),
            ("{}", "metrics", ["--eve=1e-320,0"]),
            ('{"d0_m": 10}', "metrics", ["--eve=5e-324,0"]),
            ("{}", "sweep-dab", ["--dab", "1e-200"]),
            ('{"d0_m": 1e100, "path_loss_combine": "product"}', "metrics", []),
        ],
    )
    def test_overflowing_path_loss_exits_2_naming_the_distance(self, tmp_path, capsys, config, command, options):
        path = tmp_path / "scenario.json"
        path.write_text(config)
        out = tmp_path / "o.csv"
        defaults = {
            "metrics": [],
            "heatmap": ["--grid", "3x3", "--out", str(out)],
            "sweep-nr": ["--nr", "50", "--pt", "10", "--out", str(out)],
            "sweep-dab": ["--dab", "10:20:10", "--pt", "10", "--out", str(out)],
        }[command]
        assert cli.main([command, "--config", str(path), *defaults, *options]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dmirs: error: path-loss gain at distance") and err.count("\n") == 1
        assert "with d0_m = " in err and "exceeds the float range" in err
        assert not out.exists()

    # (d/d0)**-2 turns subnormal above d/d0 ~ 6.7e153 and underflows to 0 further out;
    # under the product rule two normal hop gains can multiply to 0
    @pytest.mark.parametrize(
        "config, command, options",
        [
            *[('{"bob": [0, 1e200]}', c, []) for c in ("metrics", "heatmap", "sweep-nr")],
            ("{}", "sweep-dab", ["--dab", "1e160"]),
            ("{}", "metrics", ["--eve=1e200,0"]),
            ('{"irs": [1e100, 0], "path_loss_combine": "product"}', "metrics", []),
            ('{"irs": [1e100, 0], "path_loss_combine": "product"}', "heatmap", []),
        ],
    )
    def test_underflowing_path_loss_exits_2_naming_the_distance(self, tmp_path, capsys, config, command, options):
        path = tmp_path / "scenario.json"
        path.write_text(config)
        out = tmp_path / "o.csv"
        defaults = {
            "metrics": [],
            "heatmap": ["--grid", "3x3", "--out", str(out)],
            "sweep-nr": ["--nr", "50", "--pt", "10", "--out", str(out)],
            "sweep-dab": ["--dab", "10:20:10", "--pt", "10", "--out", str(out)],
        }[command]
        assert cli.main([command, "--config", str(path), *defaults, *options]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("dmirs: error: path-loss gain at distance") and captured.err.count("\n") == 1
        assert "with d0_m = 1.0 falls below the normal float range" in captured.err and captured.out == ""
        assert not out.exists()

    # finite positions whose distance, or reflect-path hop sum, exceeds the float range
    @pytest.mark.parametrize(
        "config, message",
        [
            ('{"alice": [1e308, 0], "bob": [-1e308, 0]}',
             "points Position(x=1e+308, y=0.0) and Position(x=-1e+308, y=0.0) are too far apart"),
            ('{"irs": [9e307, 0], "bob": [0, 9e307]}', "reflect-path hops of 9e+307 m and "),
        ],
    )
    @pytest.mark.parametrize("command", ["metrics", "heatmap", "sweep-nr", "sweep-dab"])
    def test_points_too_far_apart_exit_2_naming_them(self, tmp_path, capsys, config, message, command):
        path = tmp_path / "scenario.json"
        path.write_text(config)
        out = tmp_path / "o.csv"
        options = {
            "metrics": [],
            "heatmap": ["--grid", "3x3", "--out", str(out)],
            "sweep-nr": ["--nr", "50", "--pt", "10", "--out", str(out)],
            "sweep-dab": ["--dab", "10", "--pt", "10", "--out", str(out)],
        }[command]
        assert cli.main([command, "--config", str(path), *options]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"dmirs: error: {message}") and captured.err.count("\n") == 1
        assert "float range" in captured.err and captured.out == ""
        assert not out.exists()

    # a spacing near the float maximum made the cosine offsets infinite: an OverflowError
    # traceback, numpy warnings and a nan SNR, or rates picked by a nan sign
    @pytest.mark.parametrize(
        "field, command, options",
        [
            ("alice_spacing_wavelengths", "metrics", ["--eve=-30,0"]),
            ("alice_spacing_wavelengths", "heatmap", ["--grid", "3x3"]),
            ("irs_spacing_wavelengths", "sweep-nr", ["--nr", "10:20:10", "--pt", "10"]),
        ],
    )
    def test_spacing_beyond_its_bound_exits_2_with_one_line(self, tmp_path, capsys, field, command, options):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({field: 1e308}))
        out = tmp_path / "o.csv"
        outputs = [] if command == "metrics" else ["--out", str(out)]
        assert cli.main([command, "--config", str(path), *options, *outputs]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"dmirs: error: {field} must be at most 1000000, got 1e+308\n"
        assert captured.out == ""
        assert not out.exists()

    def test_python_dash_m_runs_the_cli(self, config_file):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "dmirs", "metrics", "--config", config_file],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("gamma_b=") and proc.stderr == ""

    def test_python_dash_m_reads_sys_argv_for_usage_help_and_errors(self, monkeypatch, capsys):
        src = str(Path(cli.__file__).resolve().parents[1])
        monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps help to
        env = {**os.environ, "PYTHONPATH": src}
        for argv, code in (([], 2), (["-h"], 0), (["bogus"], 2)):
            proc = subprocess.run(
                [sys.executable, "-m", "dmirs", *argv], env=env, capture_output=True, text=True, timeout=120
            )
            with pytest.raises(SystemExit):
                cli._parser().parse_args(argv)
            captured = capsys.readouterr()
            assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)

    def test_only_noise_draws_load_numpy_random(self, tmp_path):
        """Importing the CLI and an expected-mode `metrics` run load no numpy;
        the closed-form commands run without numpy.random, and an
        instantaneous draw loads it.  Once an array command has run, each
        array module's np is numpy itself, so its calls pay no stand-in."""
        src = str(Path(cli.__file__).resolve().parents[1])
        config = tmp_path / "scenario.json"
        config.write_text("{}")
        script = f"""
import sys
import dmirs.cli
assert "numpy" not in sys.modules
cfg, out = {str(config)!r}, {str(tmp_path / "o.csv")!r}
assert dmirs.cli.main(["metrics", "--config", cfg]) == 0
assert "numpy" not in sys.modules
runs = [
    ["sweep-nr", "--config", cfg, "--nr", "10,20", "--pt", "10", "--out", out],
    ["sweep-dab", "--config", cfg, "--dab", "10,20", "--pt", "10", "--out", out],
    ["heatmap", "--config", cfg, "--grid", "3x3", "--out", out],
]
for argv in runs:
    assert dmirs.cli.main(argv) == 0, argv
    assert "numpy.random" not in sys.modules, argv
import numpy
from dmirs import arrays, secrecy, sweeps, transmitter
assert all(module.np is numpy for module in (arrays, transmitter, secrecy, sweeps))
assert dmirs.cli.main(["metrics", "--config", cfg, "--an-mode", "instantaneous"]) == 0
assert "numpy.random" in sys.modules
"""
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("DMIRS_SEED", None)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_repeated_calls_reuse_one_parser_and_carry_nothing_over(self, tmp_path, monkeypatch, capsys):
        good = tmp_path / "good.json"
        good.write_text('{"mc_samples": 50}')
        bad = tmp_path / "bad.json"
        bad.write_text('{"alpha": 2.0}')
        csv = tmp_path / "hm.csv"
        heatmap = ["heatmap", "--config", str(good), "--grid", "3x3", "--out", str(csv)]
        sequence = [
            ["metrics"],  # usage error: --config is required
            ["metrics", "--config", str(bad)],
            ["metrics", "--config", str(good), "--an-mode", "instantaneous"],
            ["metrics", "--config", str(good)],
            heatmap + ["--seed", "9"],
            heatmap,
        ]

        def run(argv):
            csv.unlink(missing_ok=True)
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err, csv.read_bytes() if csv.exists() else None

        build_parser, built = cli.build_parser, []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        together = [run(argv) for argv in sequence]
        assert len(built) == 1

        alone = []
        for argv in sequence:
            cli._parser.cache_clear()
            alone.append(run(argv))
        cli._parser.cache_clear()

        assert [r[0] for r in together] == [2, 2, 0, 0, 0, 0]
        assert together == alone
        assert together[2][1] != together[3][1]  # --an-mode instantaneous changes ber_probe
        assert b"# seed = 9" in together[4][3] and b"# seed = 0" in together[5][3]
