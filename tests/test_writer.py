"""Columnar sweep results and the chunked CSV writer.

The writer's bytes are checked against `oracles.write_csv_per_row`, which
formats one value at a time, on drawn columns that include every float
the "%.9g" format treats specially; row counts straddle the chunk size.
The memory test pins what a heatmap keeps per cell.
"""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmirs.scenario import Scenario
from dmirs.sweeps import CSV_CHUNK_ROWS, SweepResult, run_heatmap, write_csv
from oracles import write_csv_per_row

SPECIAL_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e308, 1.8e308, -1.7976931348623157e308, 1e-5, 123456789.0, 1234567890.5, 0.1, -2.5,
]
ROW_COUNTS = [1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 1]
METADATA = {"artifact": "dmirs 0.1.0", "seed": 3, "note": "x = 1", "scenario": {"nr": 50, "na": 16}}


def _result(columns: dict) -> SweepResult:
    n = len(next(iter(columns.values())))
    return SweepResult(axes={"cell": range(n)}, columns=tuple(columns), values=columns, metadata=METADATA)


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
    result = SweepResult(
        axes={"cell": []}, columns=("a",), values={"a": np.empty(0)}, metadata=METADATA
    )
    assert _bytes(write_csv, result) == _bytes(write_csv_per_row, result)


def test_result_columns_are_read_only_and_sized_to_the_grid():
    result = run_heatmap(Scenario(), grid=(3, 4))
    for name in result.columns:
        assert result.values[name].shape == (12,)
        with pytest.raises(ValueError):
            result.values[name][0] = 1.0
    with pytest.raises(ValueError, match="grid size is 6"):
        SweepResult(axes={"a": [1, 2], "b": [1, 2, 3]}, columns=("x",), values={"x": np.zeros(5)},
                    metadata={})
    with pytest.raises(ValueError, match="do not match"):
        SweepResult(axes={"a": [1]}, columns=("x", "y"), values={"x": np.zeros(1)}, metadata={})


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


def _traced_peak(grid) -> int:
    """Peak traced bytes above the start of one heatmap run and CSV write."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    write_csv(run_heatmap(Scenario(), grid=grid), _CountingSink())
    return tracemalloc.get_traced_memory()[1] - before


def test_heatmap_and_csv_keep_under_64_bytes_per_cell():
    # row dicts of boxed floats plus a CSV built whole took 413 bytes a cell
    tracemalloc.start()
    try:
        _traced_peak((8, 8))  # warm caches and imports
        small = _traced_peak((61, 61))
        large = _traced_peak((121, 121))
    finally:
        tracemalloc.stop()
    per_cell = (large - small) / (121 * 121 - 61 * 61)
    assert per_cell < 64, f"{per_cell:.1f} traced bytes per cell"
