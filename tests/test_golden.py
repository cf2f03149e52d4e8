"""Golden outputs: the CLI still writes the files committed under tests/golden/.

The CSV files were written by the code before the per-cell heatmap changes
(array-valued Monte-Carlo BER, cached element offsets, one signal and leak
evaluation per cell), with the commands in CASES; the metrics_*.txt files
hold `dmirs metrics` stdout from the code before the test-only helpers left
the package, with the commands in METRICS_CASES.  The *_instantaneous_config*
and sweep_*_instantaneous files come from the code before the noise mode
was read only from the scenario.  They pin every later
change to the same numbers; a deliberate change of output replaces them
and says why.

Tolerance: preamble lines, axis columns and metrics keys must match exactly.  Value
columns match at relative 1e-8, which is about one unit in the ninth and
last printed digit, so a last-ulp difference in a host's libm cannot flip
the result.  sinr_db is compared in the linear domain, |g - g0| <= 1e-8*g0
+ 1e-12, because cells on an exact pattern null print round-off near -300
dB whose value in dB carries no information; the floor 1e-12 is -120 dB.
"""

import math
from pathlib import Path

import pytest

from dmirs import cli

GOLDEN = Path(__file__).parent / "golden"
INSTANTANEOUS = '{"an_mode": "instantaneous", "seed": 3}'

# file: (scenario JSON, argv after --config, axis columns)
CASES = {
    "heatmap_expected.csv": ("{}", ["heatmap", "--grid", "37x37"], ("phi_deg", "theta_deg")),
    "heatmap_instantaneous.csv": (
        '{"an_mode": "instantaneous"}',
        ["heatmap", "--grid", "13x13", "--mc-samples", "200", "--seed", "7"],
        ("phi_deg", "theta_deg"),
    ),
    "sweep_nr.csv": ("{}", ["sweep-nr", "--nr", "10:200:10", "--pt", "10,15"], ("nr", "pt_dbm")),
    "sweep_dab.csv": ("{}", ["sweep-dab", "--dab", "10:50:1", "--pt", "10,15"], ("dab_m", "pt_dbm")),
    # the sweeps evaluate rates in expected mode whatever the config says,
    # and their preamble echoes the config's instantaneous mode
    "sweep_nr_instantaneous.csv": (
        INSTANTANEOUS,
        ["sweep-nr", "--nr", "10:50:10", "--pt", "10,15"],
        ("nr", "pt_dbm"),
    ),
    "sweep_dab_instantaneous.csv": (
        INSTANTANEOUS,
        ["sweep-dab", "--dab", "10:20:5", "--pt", "10"],
        ("dab_m", "pt_dbm"),
    ),
}
# file: (scenario JSON, metrics options)
METRICS_CASES = {
    "metrics_default.txt": ("{}", []),
    "metrics_eve.txt": ("{}", ["--eve=-5,3"]),
    "metrics_instantaneous.txt": ('{"seed": 7}', ["--an-mode", "instantaneous"]),
    "metrics_instantaneous_config.txt": (INSTANTANEOUS, []),
    "metrics_instantaneous_config_expected.txt": (INSTANTANEOUS, ["--an-mode", "expected"]),
}
VALUE_RTOL = 1e-8
SINR_ATOL = 1e-12


def _split(text):
    lines = text.splitlines()
    preamble = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    return preamble, body[0], body[1:]


def _run(tmp_path, name):
    config, argv, _ = CASES[name]
    (tmp_path / "scenario.json").write_text(config)
    out = tmp_path / name
    command, *options = argv
    assert cli.main([command, "--config", str(tmp_path / "scenario.json"), *options, "--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_reproduces_golden_csv(tmp_path, name):
    got_preamble, got_header, got_rows = _split(_run(tmp_path, name))
    want_preamble, want_header, want_rows = _split((GOLDEN / name).read_text())
    assert got_preamble == want_preamble
    assert got_header == want_header
    assert len(got_rows) == len(want_rows)
    axes = CASES[name][2]
    mismatches = []
    for i, (got, want) in enumerate(zip(got_rows, want_rows)):
        for column, g, w in zip(got_header, got, want):
            if column in axes:
                ok = g == w
            elif column == "sinr_db":
                g_lin, w_lin = 10.0 ** (float(g) / 10.0), 10.0 ** (float(w) / 10.0)
                ok = abs(g_lin - w_lin) <= VALUE_RTOL * w_lin + SINR_ATOL
            else:
                ok = math.isclose(float(g), float(w), rel_tol=VALUE_RTOL, abs_tol=0.0)
            if not ok:
                mismatches.append(f"row {i} {column}: {g} != {w}")
    assert not mismatches, "\n".join(mismatches[:10])


def _key_values(text):
    return [(key, float(value)) for key, value in (line.split("=") for line in text.splitlines())]


@pytest.mark.parametrize("name", sorted(METRICS_CASES))
def test_cli_reproduces_golden_metrics(tmp_path, capsys, name):
    config, options = METRICS_CASES[name]
    (tmp_path / "scenario.json").write_text(config)
    assert cli.main(["metrics", "--config", str(tmp_path / "scenario.json"), *options]) == 0
    got = _key_values(capsys.readouterr().out)
    want = _key_values((GOLDEN / name).read_text())
    assert [k for k, _ in got] == [k for k, _ in want]
    for (key, g), (_, w) in zip(got, want):
        assert math.isclose(g, w, rel_tol=VALUE_RTOL, abs_tol=0.0), f"{key}: {g} != {w}"


def test_sinr_comparison_tolerates_null_round_off_only():
    """The linear-domain floor absorbs -300 dB round-off, not a real SINR change."""
    _, header, rows = _split((GOLDEN / "heatmap_expected.csv").read_text())
    sinr = [float(row[header.index("sinr_db")]) for row in rows]
    assert min(sinr) < -250.0  # the file does contain pattern-null cells
    null_lin = 10.0 ** (min(sinr) / 10.0)
    assert abs(10.0 ** (-280.0 / 10.0) - null_lin) <= SINR_ATOL
    assert abs(10.0 ** (-100.0 / 10.0) - null_lin) > SINR_ATOL
