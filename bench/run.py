"""dmirs benchmark: four CLI workloads, end-to-end metrics, per-layer traced run.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs one workload (or all four, each in its own child process) in-process
through `dmirs.cli.main(argv)`, on one thread, as a closed loop: the next op
starts only after the previous one returned and its outputs were checked.
The dmirs under test is the one in `src/` next to this directory; without it
the benchmark exits 2.

With `--trace 0` the last stdout line is a JSON object whose metrics are the
end-to-end ones (cells_per_s, op_p50_ms, setup_s, peak_rss_mib); with
`--trace 1` they are the per-layer ones from a run with every public dmirs
function wrapped in a span (see tracer.py).  Op and set-up times are CPU
times scaled to a reference host speed (see speed.py).  A fuller record
(machine info, op counts, scaled and wall-clock latencies with their median
and tail, failed_ratio, budget headroom) goes to
`bench/results/<workload>-seed<N>-trace<T>.json`.  See NOTES.md.
"""

import argparse
import gc
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from speed import SPEED_REF_S, SpeedSampler

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# Fresh-process set-up samples, spread over the timed phase; setup_s is their
# median, each scaled to the reference speed.
SETUP_REPEATS = 15
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10
# Runtime budgets the acceptance suite asserts (informational headroom only).
HEATMAP_BUDGET_S = 60.0
SWEEP_BUDGET_S = 5.0
HEATMAP_FULL_CELLS = 181 * 181
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NOTES = [
    "dmirs metrics reads `--eve -5,3` as an option and exits 2; probes with negative x "
    "are passed as `--eve=-5,3` (CLI limitation, open for a later change)",
]


def tail_latency(values):
    """(percentile, value) at the highest TAIL_PERCENTILES rank that leaves at
    least TAIL_MIN_BEYOND samples above it (nearest-rank), or None."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(round(pct * n / 100.0, 6))  # round: 99.9% of 10000 is 9990
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            best = (pct, ordered[rank - 1])
    return best


class OpRunner:
    """Runs a workload's ops through the CLI and checks every one."""

    def __init__(self, cli, workload, inputs, config_path, workdir):
        self.cli, self.workload, self.inputs = cli, workload, inputs
        self.config_path, self.workdir = config_path, workdir
        self.check = workload.checker(inputs)
        self.first_outputs = {}  # command lines -> outputs of their first run
        self.tracer = None  # set during a traced loop, to tag spans with the op id
        self.sampler = None  # set during the timed phase (speed.SpeedSampler)
        self.next_k = 0
        self.attempted = self.failed = self.repeats_compared = 0
        self.failures = []

    def run_op(self):
        k = self.next_k
        self.next_k += 1
        commands = self.workload.commands(self.inputs, k, self.config_path, self.workdir)
        if self.tracer is not None:
            self.tracer.op = k
        gc.collect()
        times, stdouts, error = [], [], None
        spent_start = self.sampler.spent if self.sampler else 0.0
        cpu_start = time.thread_time()
        for command in commands:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = self.cli.main(command.argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed op, not a failed run
                rc, err = 1, io.StringIO(repr(exc))
            times.append(time.perf_counter() - start)
            stdouts.append(out.getvalue())
            if rc != 0:
                error = f"exit {rc}: {err.getvalue().strip()}"
                break
        cpu_end = time.thread_time()
        sampled = (self.sampler.spent if self.sampler else 0.0) - spent_start
        csvs = []
        if error is None:
            try:
                csvs = [Path(c.csv_path).read_bytes() for c in commands if c.csv_path]
                errors = self.check(k, stdouts, csvs)
            except (OSError, ValueError, IndexError, KeyError) as exc:  # missing or malformed output
                errors = [f"unreadable output: {exc!r}"]
            key = tuple(tuple(c.argv) for c in commands)
            if key in self.first_outputs:
                self.repeats_compared += 1
                if self.first_outputs[key] != (stdouts, csvs):
                    errors.append("repeated op gave different output bytes")
            else:
                self.first_outputs[key] = (stdouts, csvs)
            error = "; ".join(errors[:3]) or None
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.failures.append(f"op {k}: {error}")
        return {"s": sum(times), "command_s": times, "ok": error is None,
                "cpu": (cpu_start, cpu_end), "cpu_s": cpu_end - cpu_start - sampled,
                "csv_bytes": sum(len(c) for c in csvs)}

    def loop(self, seconds, between, times):
        """Closed loop for ``seconds`` of wall time, at least one op.

        ``between()`` is called ``times`` times between ops, spread evenly
        over the phase; its time is left out of the phase's ``seconds``.
        Each op gets ``ref_s``, its CPU time scaled to the reference speed.
        Returns the ops and the sampler.
        """
        ops, done, aside, start = [], 0, 0.0, time.perf_counter()
        with SpeedSampler() as sampler:
            self.sampler = sampler
            while True:
                elapsed = time.perf_counter() - start - aside
                if ops and elapsed >= seconds:
                    break
                while done < times and elapsed >= done * seconds / times:
                    t0 = time.perf_counter()
                    between()
                    aside += time.perf_counter() - t0
                    done += 1
                ops.append(self.run_op())
            self.sampler = None
        for _ in range(done, times):  # still due when the last op ran past the end
            between()
        for op in ops:
            op["ref_s"] = op["cpu_s"] * sampler.scale(*op["cpu"])
        return ops, sampler

    def rows_per_s(self, ops, key="s"):
        return self.workload.rows_per_op * sum(op["ok"] for op in ops) / sum(op[key] for op in ops)


def setup_prober(workload, config_path, workdir, samples):
    """A callable that times set-up once in a fresh process (setup_probe.py)
    and appends (wall seconds, CPU seconds scaled to the reference speed) to
    ``samples``."""
    words = []
    for argv in workload.setup_argv(str(config_path), str(workdir)):
        words += (["--next"] if words else []) + argv

    def probe():
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *words],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        wall, scaled = (float(v) for v in proc.stdout.strip().splitlines()[-1].split())
        samples.append((wall, scaled))

    return probe


def machine_info():
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def run_workload(name, seed, seconds, trace):
    """One workload run; returns (metrics {name: (value, unit)}, record dict)."""
    import dmirs.cli
    from workloads import WORKLOADS, make_inputs

    if not Path(dmirs.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported dmirs from {dmirs.cli.__file__}, not from {SRC}")
    workload = WORKLOADS[name]
    inputs = make_inputs(seed)
    workdir = BENCH / "_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine_info(), "notes": NOTES}
    try:
        config_path = workdir / "scenario.json"
        config_path.write_text(json.dumps(inputs.config(workload.an_mode)))
        runner = OpRunner(dmirs.cli, workload, inputs, str(config_path), str(workdir))
        runner.run_op()  # warm-up: first-op costs stay out of the timed phase
        if trace:
            metrics = trace_phase(runner, seconds, record, f"{name}-seed{seed}")
        else:
            setup_samples = []
            probe = setup_prober(workload, config_path, workdir, setup_samples)
            ops, sampler = runner.loop(seconds, between=probe, times=SETUP_REPEATS)
            metrics = end_to_end(runner, ops, setup_samples, sampler, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    if runner.repeats_compared == 0:
        runner.failures.append("determinism: no op was repeated")
    record.update(attempted=runner.attempted, failed=runner.failed,
                  failed_ratio=runner.failed / runner.attempted,
                  repeats_compared=runner.repeats_compared, failures=runner.failures[:20])
    record["correct"] = not runner.failures
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return metrics, record


def end_to_end(runner, ops, setup_samples, sampler, record):
    scaled = [op["ref_s"] for op in ops]
    metrics = {
        "cells_per_s": (runner.rows_per_s(ops, "ref_s"), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(scaled), "ms"),
        "setup_s": (statistics.median(s for _, s in setup_samples), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    latencies = [op["s"] for op in ops]
    p50_s = statistics.median(latencies)
    tail = tail_latency(scaled)
    record["timed_ops"] = len(ops)
    record["op_ms"] = [1000.0 * s for s in scaled]
    record["wall"] = {"cells_per_s": runner.rows_per_s(ops), "op_p50_ms": 1000.0 * p50_s,
                      "op_best_ms": 1000.0 * min(latencies), "op_ms": [1000.0 * s for s in latencies],
                      "setup_s": statistics.median(w for w, _ in setup_samples)}
    record["setup_samples_s"] = [s for _, s in setup_samples]
    record["speed"] = {"samples": len(sampler.kernel_s), "ref_kernel_s": SPEED_REF_S,
                       "kernel_s_median": statistics.median(sampler.kernel_s),
                       "sampling_cpu_s": sampler.spent}
    record["op_tail_ms"] = (
        {"value": 1000.0 * tail[1], "unit": "ms", "percentile": tail[0], "ops": len(ops)}
        if tail else {"value": None, "ops": len(ops), "reason": f"needs {2 * TAIL_MIN_BEYOND}+ ops"}
    )
    name = runner.workload.name
    if name.startswith("heatmap"):
        full_s = p50_s * HEATMAP_FULL_CELLS / runner.workload.rows_per_op
        record["headroom"] = {"heatmap_181x181_s": full_s, "budget_s": HEATMAP_BUDGET_S,
                              "ratio": HEATMAP_BUDGET_S / full_s,
                              "extrapolated": runner.workload.rows_per_op != HEATMAP_FULL_CELLS}
    elif name == "rate-sweeps":
        per_command = [statistics.median(op["command_s"][i] for op in ops) for i in range(2)]
        record["headroom"] = {
            f"{cmd}_s": {"value": s, "budget_s": SWEEP_BUDGET_S, "ratio": SWEEP_BUDGET_S / s}
            for cmd, s in zip(("sweep_nr", "sweep_dab"), per_command)
        }
    return metrics


def trace_phase(runner, seconds, record, tag):
    """Untraced and traced ops in turn for ``seconds``, so that both meet the
    same machine state and their ratio is the tracing overhead."""
    import tracer as tracing

    tracer, targets = tracing.Tracer(), tracing.dmirs_targets()
    untraced, traced, start = [], [], time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(runner.run_op())
        with tracer:
            tracer.install(*targets)
            runner.tracer = tracer
            traced.append(runner.run_op())
        runner.tracer = None
    ops, wall = len(traced), sum(op["s"] for op in traced)
    metrics = tracing.per_layer_metrics(tracer, ops, runner.workload.rows_per_op * ops, wall)
    metrics["sweeps.write_csv.bytes"] = (sum(op["csv_bytes"] for op in traced) / ops, "B/op")
    untraced_rate, traced_rate = runner.rows_per_s(untraced), runner.rows_per_s(traced)
    metrics["trace.untraced_cells_per_s"] = (untraced_rate, "1/s")
    metrics["trace.cells_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{tag}.csv.gz"
    tracer.write_spans(spans_path)
    record.update(traced_ops=ops, untraced_ops=len(untraced), spans_seen=tracer.spans_seen,
                  spans_written=min(tracer.spans_seen, tracing.KEEP_SPANS), spans_file=spans_path.name,
                  aggregates={n: {"calls": a.calls, "total_s": a.total_s, "self_s": a.self_s}
                              for n, a in sorted(tracer.aggregates.items()) if a.calls})
    return metrics


def print_result(metrics, record):
    print(f"# {record['workload']} seed={record['seed']} attempted={record['attempted']} "
          f"failed={record['failed']}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value!r} {unit}")
    print(f"failed_ratio = {record['failed_ratio']!r} (failed/attempted)")
    if "op_tail_ms" in record:
        tail = record["op_tail_ms"]
        print("op_tail_ms = " + (f"{tail['value']!r} ms (p{tail['percentile']:g} of {tail['ops']} ops)"
                                 if tail["value"] is not None else f"n/a ({tail['reason']}; {tail['ops']} ops)"))
    if "wall" in record:
        wall = record["wall"]
        print(f"wall clock: cells_per_s = {wall['cells_per_s']!r} 1/s, op_p50_ms = {wall['op_p50_ms']!r} ms, "
              f"op_best_ms = {wall['op_best_ms']!r} ms, setup_s = {wall['setup_s']!r} s")
    for failure in record["failures"]:
        print(f"FAILED {failure}")


def run_all(args):
    """Every workload in its own child process; prints a combined summary."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:  # a run that failed its checks still prints its result
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"all-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"machine": machine_info(), "seed": args.seed, **combined}, indent=2) + "\n"
    )
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dmirs" / "cli.py").is_file():
        print(f"bench: no dmirs sources at {SRC}; run from a dmirs checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # one thread, also for the set-up child processes
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    metrics, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print_result(metrics, record)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
