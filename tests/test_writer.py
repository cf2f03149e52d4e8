"""Columnar sweep results and the chunked CSV writer.

The writer's bytes are checked against `oracles.write_csv_per_row`, which
formats one value at a time, on drawn columns that include every float
the "%.9g" format treats specially; row counts straddle the chunk size.
The memory tests pin what a heatmap keeps per cell and a rate sweep per
axis value.
"""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmirs import sweeps
from dmirs.scenario import MAX_NA, Scenario
from dmirs.sweeps import CSV_CHUNK_ROWS, SweepResult, run_heatmap, run_sweep_nr, write_csv
from oracles import write_csv_per_row

SPECIAL_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e308, 1.8e308, -1.7976931348623157e308, 1e-5, 123456789.0, 1234567890.5, 0.1, -2.5,
]
ROW_COUNTS = [1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 1]
METADATA = {"artifact": "dmirs 0.1.0", "seed": 3, "note": "x = 1", "scenario": {"nr": 50, "na": 16}}


def _result(columns: dict) -> SweepResult:
    return SweepResult(columns=tuple(columns), values=columns, metadata=METADATA)


def _bytes(writer, result):
    sink = io.BytesIO()
    count = writer(result, sink)
    assert count == len(sink.getvalue())
    return sink.getvalue()


@st.composite
def columns(draw):
    n = draw(st.sampled_from(ROW_COUNTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = {}
    for k in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            pool = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=20))
            out[f"i{k}"] = rng.choice(np.array(pool, dtype=np.int64), n)
        else:
            pool = SPECIAL_FLOATS + draw(st.lists(st.floats(width=64), min_size=1, max_size=20))
            out[f"f{k}"] = rng.choice(np.array(pool), n)
    return out


@settings(max_examples=25, deadline=None)
@given(columns())
def test_chunked_writer_matches_per_value_writer(cols):
    result = _result(cols)
    assert _bytes(write_csv, result) == _bytes(write_csv_per_row, result)


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_every_special_float_survives_each_chunk_boundary(n):
    cols = {
        "k": np.arange(n, dtype=np.int64) - n // 2,
        "x": np.resize(np.array(SPECIAL_FLOATS), n),
    }
    payload = _bytes(write_csv, _result(cols))
    assert payload == _bytes(write_csv_per_row, _result(cols))
    assert payload.count(b"\n") == len(METADATA) + 1 + n  # preamble, header, rows


def test_zero_rows_write_preamble_and_header_only():
    result = SweepResult(columns=("a",), values={"a": np.empty(0)}, metadata=METADATA)
    assert _bytes(write_csv, result) == _bytes(write_csv_per_row, result)


def test_result_columns_are_read_only_and_sized_to_the_grid():
    result = run_heatmap(Scenario(), grid=(3, 4))
    for name in result.columns:
        assert result.values[name].shape == (12,)
        with pytest.raises(ValueError):
            result.values[name][0] = 1.0
    with pytest.raises(ValueError, match=r"one length; got shapes \[\(6,\), \(5,\)\]"):
        SweepResult(columns=("x", "y"), values={"x": np.zeros(6), "y": np.zeros(5)}, metadata={})
    with pytest.raises(ValueError, match=r"all 1-D of one length; got shapes \[\(2, 3\)\]"):
        SweepResult(columns=("x",), values={"x": np.zeros((2, 3))}, metadata={})
    with pytest.raises(ValueError, match=r"need at least one column.*got shapes \[\]"):
        SweepResult(columns=(), values={}, metadata={})
    with pytest.raises(ValueError, match="do not match"):
        SweepResult(columns=("x", "y"), values={"x": np.zeros(1)}, metadata={})


def test_heatmap_axis_columns_are_the_grid_in_row_major_order():
    result = run_heatmap(Scenario(), grid=(5, 3))
    phi, theta = np.linspace(0.0, 180.0, 5), np.linspace(0.0, 180.0, 3)
    cells = [(p, t) for p in phi for t in theta]
    assert list(zip(result.values["phi_deg"], result.values["theta_deg"])) == cells


class _CountingSink:
    def __init__(self):
        self.bytes = 0

    def write(self, payload):
        self.bytes += len(payload)
        return len(payload)


def _traced_peak(run) -> int:
    """Peak traced bytes above the start of ``run()`` and writing its result as CSV."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    write_csv(run(), _CountingSink())
    return tracemalloc.get_traced_memory()[1] - before


def _bytes_per_cell(scenario, small, large) -> float:
    """Marginal peak traced bytes per cell between a small and a large grid."""
    tracemalloc.start()
    try:
        _traced_peak(lambda: run_heatmap(scenario, grid=(8, 8)))  # warm caches and imports
        peaks = [_traced_peak(lambda: run_heatmap(scenario, grid=grid)) for grid in (small, large)]
    finally:
        tracemalloc.stop()
    return (peaks[1] - peaks[0]) / (math.prod(large) - math.prod(small))


def _bytes_per_axis_value(scenario, small, large) -> float:
    """Marginal peak traced bytes per nr value of a one-power sweep between
    ``small`` and ``large`` values."""
    tracemalloc.start()
    try:
        _traced_peak(lambda: run_sweep_nr(scenario, range(1, 9), [10.0]))  # warm caches and imports
        peaks = [_traced_peak(lambda: run_sweep_nr(scenario, range(1, n + 1), [10.0])) for n in (small, large)]
    finally:
        tracemalloc.stop()
    return (peaks[1] - peaks[0]) / (large - small)


def test_heatmap_and_csv_keep_under_64_bytes_per_cell(monkeypatch):
    # row dicts of boxed floats plus a CSV built whole took 413 bytes a cell
    per_cell = _bytes_per_cell(Scenario(), (61, 61), (121, 121))
    assert per_cell < 64, f"{per_cell:.1f} traced bytes per cell"
    # At production sizes a 61x61 map fits in one CSV chunk and peaks while a block
    # is evaluated, the larger map while its CSV is written, so the marginal above
    # mixes two peaks.  With small blocks and chunks both maps span many of each,
    # and the marginal must hold the four 8-byte result columns.
    monkeypatch.setattr(sweeps, "HEATMAP_BLOCK_VALUES", 1024)
    monkeypatch.setattr(sweeps, "CSV_CHUNK_ROWS", 64)
    per_cell = _bytes_per_cell(Scenario(), (31, 31), (61, 61))
    assert 30 <= per_cell < 64, f"{per_cell:.1f} traced bytes per cell past one block"


def test_long_theta_grids_keep_under_64_bytes_per_cell():
    # At na = 256 a block (75 cells) is shorter than one phi row, so a row
    # buffer that grew with the row or the map would cost 4096 bytes a cell here.
    per_cell = _bytes_per_cell(Scenario(na=256), (2, 1000), (2, 3000))
    assert per_cell < 64, f"{per_cell:.1f} traced bytes per cell"


def test_heatmap_at_the_largest_na_holds_no_projector():
    # an na x na noise projector at MAX_NA holds 16 MiB; a 4x4 map's one block
    # (three na-long rows for each of 16 cells) and its CSV hold about 1 MiB
    scenario = Scenario(na=MAX_NA)
    tracemalloc.start()
    try:
        _traced_peak(lambda: run_heatmap(scenario, grid=(2, 2)))  # warm caches and imports
        peak = _traced_peak(lambda: run_heatmap(scenario, grid=(4, 4)))
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"{peak / 2**20:.1f} MiB traced"


def test_rate_sweep_and_csv_keep_under_400_bytes_per_axis_value(monkeypatch):
    # A sweep's scenes reach the array pass a block at a time; a pass over all
    # of them would hold every axis value's two steering rows, 8 KiB at
    # na = 256.  There a block (128 scenes) is shorter than the smaller sweep.
    per_value = _bytes_per_axis_value(Scenario(na=256), 200, 600)
    assert per_value < 400, f"{per_value:.1f} traced bytes per axis value"
    # At na = 16 both sweeps fit in one production block; with 32-scene blocks
    # they span several, and the rows of one block are all the pass holds.
    monkeypatch.setattr(sweeps, "HEATMAP_BLOCK_VALUES", 1024)
    per_value = _bytes_per_axis_value(Scenario(), 200, 600)
    assert per_value < 400, f"{per_value:.1f} traced bytes per axis value past one block"
