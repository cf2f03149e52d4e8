"""Tests of the benchmark's own logic: percentile rule, span self time,
speed scaling, seeded inputs and the traced per-cell counts read from the
dmirs code."""

import math
import signal
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import reference  # noqa: E402
import run  # noqa: E402
from speed import SPEED_REF_S, SpeedSampler  # noqa: E402
from tracer import Tracer, dmirs_targets  # noqa: E402
from workloads import (  # noqa: E402
    BOB_BOX,
    EVE_BOX,
    IRS_BOX,
    MIN_SEPARATION_M,
    N_PROBES,
    PROBE_BOX,
    WORKLOADS,
    make_inputs,
)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail_latency(range(19)) is None
    assert run.tail_latency(range(1, 21)) == (50.0, 10)
    assert run.tail_latency(range(1, 100)) == (50.0, 50)  # p90 leaves only 9 above
    assert run.tail_latency(range(1, 101)) == (90.0, 90)
    assert run.tail_latency(range(1, 1001)) == (99.0, 990)
    assert run.tail_latency(range(1, 10001)) == (99.9, 9990)
    assert run.tail_latency(list(range(2000, 0, -1))) == (99.0, 1980)


def test_self_time_subtracts_nested_child_spans():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    mod = types.ModuleType("fake")

    def leaf():
        now[0] += 3.0

    def middle():
        now[0] += 1.0
        mod.leaf()
        mod.leaf()
        now[0] += 2.0

    def outer():
        mod.middle()
        now[0] += 4.0

    mod.leaf, mod.middle, mod.outer = leaf, middle, outer
    for fn in (leaf, middle, outer):
        fn.__module__ = "fake"
    with tracer:
        tracer.install({"layer": mod})
        mod.outer()
    agg = tracer.aggregates
    assert (agg["layer.leaf"].calls, agg["layer.leaf"].total_s, agg["layer.leaf"].self_s) == (2, 6.0, 6.0)
    assert (agg["layer.middle"].total_s, agg["layer.middle"].self_s) == (9.0, 3.0)
    assert (agg["layer.outer"].total_s, agg["layer.outer"].self_s) == (13.0, 4.0)
    assert tracer.self_s("layer.") == 13.0
    assert mod.outer is outer  # uninstalled on exit


def test_speed_scale_averages_the_ratio_over_the_span():
    sampler = SpeedSampler()
    sampler.at.extend([1.0, 2.0, 3.0, 4.0])
    sampler.kernel_s.extend([SPEED_REF_S, SPEED_REF_S / 2, SPEED_REF_S / 4, SPEED_REF_S])
    assert sampler.scale(1.5, 3.5) == pytest.approx(3.0)  # ratios 2 and 4
    assert sampler.scale(3.1, 3.3) == pytest.approx(4.0)  # no sample inside: the nearest, at 3.0
    assert sampler.scale(3.7, 3.9) == pytest.approx(1.0)  # the nearest, at 4.0
    assert sampler.scale(0.0, 9.0) == pytest.approx(2.0)


def test_sampler_times_its_kernel_while_armed():
    before = signal.getsignal(signal.SIGPROF)
    with SpeedSampler() as sampler:
        start = time.thread_time()
        while time.thread_time() - start < 0.2:
            sum(i * i for i in range(1000))
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(sampler.at) >= 3
    assert min(sampler.kernel_s) > 0.0  # the thread CPU clock advances inside the handler
    assert sampler.spent == pytest.approx(sum(sampler.kernel_s))


def test_every_seed_asks_for_the_same_work():
    def shape(argv):
        return [a.split("=")[0] if a.startswith("--eve=") else a for a in argv]

    baseline = make_inputs(0)
    for seed in range(40):
        inputs = make_inputs(seed)
        points = [(0.0, 0.0), inputs.bob, inputs.irs, inputs.eve, *inputs.probes]
        assert len(inputs.probes) == N_PROBES
        assert min(math.dist(p, q) for i, p in enumerate(points) for q in points[:i]) >= MIN_SEPARATION_M
        for point, box in ((inputs.bob, BOB_BOX), (inputs.irs, IRS_BOX), (inputs.eve, EVE_BOX)):
            assert box[0][0] <= point[0] <= box[0][1] and box[1][0] <= point[1] <= box[1][1]
        quadrants = {(p[0] > 0, p[1] > 0) for p in inputs.probes}
        assert len(quadrants) == 4
        assert all(PROBE_BOX[0][0] <= abs(x) <= PROBE_BOX[0][1] for x, _ in inputs.probes)
        for workload in WORKLOADS.values():
            for k in range(3):
                got = [shape(c.argv) for c in workload.commands(inputs, k, "c.json", "w")]
                want = [shape(c.argv) for c in workload.commands(baseline, k, "c.json", "w")]
                assert got == want
        cfg = {k: v for k, v in inputs.config("expected").items() if k not in ("bob", "irs", "eve", "seed")}
        assert cfg == {k: v for k, v in baseline.config("expected").items() if k in cfg}


def test_reference_matches_quadrature_of_mc_ber():
    scipy_integrate = pytest.importorskip("scipy.integrate")
    scene = reference.Scene(bob=(20.0, 0.0), irs=(20.0, -15.0))
    a = (1.0 - scene.alpha) * scene.pt_mw
    for signal, leak in ((1e-2, 0.05), (3.0, 0.02), (0.5, 1e-6), (50.0, 0.06)):
        (mean,), _ = reference.mc_ber_moments(scene, signal, leak)

        def integrand(e):
            return 0.5 * math.erfc(math.sqrt(signal / (a * leak * e + scene.noise_mw) / 2.0)) * math.exp(-e)

        exact = scipy_integrate.quad(integrand, 0.0, math.inf, limit=400, epsabs=1e-14)[0]
        assert float(mean) == pytest.approx(exact, abs=1e-12)


def _traced(tmp_path, config, argvs):
    """Aggregates of running ``argvs`` (CFG, OUT substituted) under a tracer."""
    import dmirs.cli

    (tmp_path / "scenario.json").write_text(config)
    tracer = Tracer()
    with tracer:
        tracer.install(*dmirs_targets())
        for argv in argvs:
            argv = [a.replace("CFG", str(tmp_path / "scenario.json")).replace("OUT", str(tmp_path)) for a in argv]
            assert dmirs.cli.main(argv) == 0
    return tracer.aggregates


def _per_row(tmp_path, config, make_argv, small, large, field="calls"):
    """Marginal count per output row between a small and a large op."""
    (lo_arg, lo_rows), (hi_arg, hi_rows) = small, large
    lo = _traced(tmp_path, config, [make_argv(lo_arg)])
    hi = _traced(tmp_path, config, [make_argv(hi_arg)])
    return {name: (getattr(hi[name], field) - getattr(lo[name], field)) / (hi_rows - lo_rows) for name in hi}


def test_traced_counts_per_row_match_the_code(tmp_path):
    def heatmap(grid):
        return ["heatmap", "--config", "CFG", "--grid", grid, "--out", "OUT/h.csv", "--mc-samples", "1000"]

    def sweep_nr(nr):
        return ["sweep-nr", "--config", "CFG", "--nr", nr, "--pt", "10", "--out", "OUT/n.csv"]

    expected = _per_row(tmp_path, '{"an_mode": "expected"}', heatmap, ("3x3", 9), ("4x5", 20))
    assert expected["arrays.steering_vector"] == 3
    assert expected["arrays.element_cycles"] == 5

    mc = '{"an_mode": "instantaneous", "seed": 5}'
    assert _per_row(tmp_path, mc, heatmap, ("2x2", 4), ("2x3", 6))["numerics.q_function"] == 1000
    normals = _per_row(tmp_path, mc, heatmap, ("2x2", 4), ("2x3", 6), field="amount")
    assert normals["transmitter.complex_normal"] == 32_000

    rows = _per_row(tmp_path, "{}", sweep_nr, ("10:20:10", 2), ("10:50:10", 5))
    assert rows["geometry.link_budget"] == 4
    assert rows["transmitter.an_projector"] == 2


def test_tracer_restores_every_rebound_name(tmp_path):
    import dmirs.scenario
    import dmirs.secrecy
    import dmirs.sweeps

    before = dmirs.scenario.Scenario.__post_init__
    _traced(tmp_path, "{}", [["metrics", "--config", "CFG"]])
    assert dmirs.sweeps.secrecy_metrics is dmirs.secrecy.secrecy_metrics
    assert not hasattr(dmirs.secrecy.steering_vector, "__wrapped__")
    assert dmirs.scenario.Scenario.__post_init__ is before
