"""Span tracing of dmirs from outside the package.

`Tracer.install` wraps every public function of each layer module and
rebinds the wrapper under every name, in every traced module, that held the
original: `secrecy` and `transmitter` keep their own `steering_vector`,
`sweeps` its own copies of the `secrecy` functions, and so on.  A wrapper
times its call, adds the duration to its parent's child time, and folds
count, total time and self time (duration minus child spans) into a
per-name aggregate.  The first KEEP_SPANS spans are also stored in memory as
(span, parent, op, name, start, end) for writing out at the end of a run.
"""

import gzip
import importlib
import inspect
import math
import time
from array import array

LAYERS = ("numerics", "geometry", "arrays", "transmitter", "secrecy", "scenario", "sweeps", "cli")
# Spans stored for the spans file (48 bytes each).  One 181x181 expected-mode
# op makes about 490,000 spans and an instantaneous-mode op millions, so
# keeping every span would cost hundreds of MiB; the aggregates see them all.
KEEP_SPANS = 200_000


class Aggregate:
    __slots__ = ("calls", "total_s", "self_s", "amount")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.amount = 0


class Tracer:
    """Spans and per-name aggregates of the functions it wraps (see module doc)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.op = 0
        self.aggregates = {}
        self._name_ids = {}
        self._stack = []  # [span id, child seconds] of the open spans
        self.spans_seen = 0
        self.columns = {k: array("q") for k in ("span", "parent", "op", "name")}
        self.columns.update((k, array("d")) for k in ("start", "end"))
        self._restore = []

    def wrap(self, name, fn, amount=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``amount(*args, **kwargs)``, if given, is added to the aggregate's
        ``amount`` on every call (e.g. random values drawn).
        """
        agg = self.aggregates.setdefault(name, Aggregate())
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        clock, stack, cols = self.clock, self._stack, self.columns
        spans, parents, ops, names = cols["span"], cols["parent"], cols["op"], cols["name"]
        starts, ends = cols["start"], cols["end"]

        def traced(*args, **kwargs):
            span = self.spans_seen
            self.spans_seen = span + 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                agg.calls += 1
                agg.total_s += duration
                agg.self_s += duration - frame[1]
                if amount is not None:
                    agg.amount += amount(*args, **kwargs)
                if span < KEEP_SPANS:
                    spans.append(span)
                    parents.append(parent)
                    ops.append(self.op)
                    names.append(name_id)
                    starts.append(start)
                    ends.append(end)

        traced.__wrapped__ = fn
        return traced

    def install(self, layers, methods=(), amounts=None):
        """Wrap the public functions of ``layers`` ({layer: module}).

        May be called again after `uninstall`; aggregates keep accumulating.
        ``methods`` lists extra (class, attribute, span name) targets;
        ``amounts`` maps span names to amount callbacks (see `wrap`).
        """
        amounts = amounts or {}
        modules = list(layers.values())
        for layer, module in layers.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, fn, amounts.get(name))
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._restore.append((holder, key, fn))
                            setattr(holder, key, wrapper)
        for cls, attr, name in methods:
            fn = cls.__dict__[attr]
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self.wrap(name, fn, amounts.get(name)))

    def uninstall(self):
        for holder, key, fn in reversed(self._restore):
            setattr(holder, key, fn)
        self._restore.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def self_s(self, prefix):
        """Summed self time of every span whose name starts with ``prefix``."""
        return sum(a.self_s for name, a in self.aggregates.items() if name.startswith(prefix))

    def write_spans(self, path):
        """Write the stored spans as gzip CSV, times in seconds from the first."""
        cols, names = self.columns, list(self._name_ids)
        t0 = min(cols["start"], default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,parent,op,name,start_s,end_s\n")
            for row in zip(cols["span"], cols["parent"], cols["op"], cols["name"], cols["start"], cols["end"]):
                span, parent, op, name_id, start, end = row
                fh.write(f"{span},{parent},{op},{names[name_id]},{start - t0!r},{end - t0!r}\n")


def dmirs_targets():
    """The layer modules, extra methods and amount counters traced in dmirs."""
    layers = {layer: importlib.import_module(f"dmirs.{layer}") for layer in LAYERS}
    methods = [(layers["scenario"].Scenario, "__post_init__", "scenario.validate")]

    def normals(rng, shape):
        return 2 * math.prod(shape if isinstance(shape, tuple) else (shape,))

    return layers, methods, {"transmitter.complex_normal": normals}


# Per-layer metrics as (name, unit, how).  `how` is ("per_cell", span, field),
# ("per_op", span, field) or ("self", span-name prefix): an aggregate field
# divided by the rows (cells) or the ops of the traced phase, or summed self
# time per op.
PER_LAYER = [
    ("arrays.steering_vector.per_cell", "count/cell", ("per_cell", "arrays.steering_vector", "calls")),
    ("arrays.element_cycles.per_cell", "count/cell", ("per_cell", "arrays.element_cycles", "calls")),
    ("arrays.irs_phase_diagonal.calls", "count/op", ("per_op", "arrays.irs_phase_diagonal", "calls")),
    ("arrays.self_s", "s/op", ("self", "arrays.")),
    ("secrecy.sinr_eve.calls", "count/op", ("per_op", "secrecy.sinr_eve", "calls")),
    ("secrecy.probe_amplitude.calls", "count/op", ("per_op", "secrecy.probe_amplitude", "calls")),
    ("secrecy.self_s", "s/op", ("self", "secrecy.")),
    ("sweeps.run.self_s", "s/op", ("self", "sweeps.run_")),
    ("sweeps.write_csv.s", "s/op", ("per_op", "sweeps.write_csv", "total_s")),
    ("numerics.q_function.per_cell", "count/cell", ("per_cell", "numerics.q_function", "calls")),
    ("secrecy.ber_from_snr.calls", "count/op", ("per_op", "secrecy.ber_from_snr", "calls")),
    ("secrecy.mc_mean_ber.self_s", "s/op", ("per_op", "secrecy.mc_mean_ber", "self_s")),
    ("transmitter.complex_normal.values_per_cell", "count/cell",
     ("per_cell", "transmitter.complex_normal", "amount")),
    ("numerics.self_s", "s/op", ("self", "numerics.")),
    ("transmitter.self_s", "s/op", ("self", "transmitter.")),
    ("geometry.link_budget.calls", "count/op", ("per_op", "geometry.link_budget", "calls")),
    ("transmitter.an_projector.calls", "count/op", ("per_op", "transmitter.an_projector", "calls")),
    ("scenario.validate.calls", "count/op", ("per_op", "scenario.validate", "calls")),
    ("secrecy.secrecy_metrics.calls", "count/op", ("per_op", "secrecy.secrecy_metrics", "calls")),
    ("secrecy.benchmark_no_irs.calls", "count/op", ("per_op", "secrecy.benchmark_no_irs", "calls")),
    ("geometry.self_s", "s/op", ("self", "geometry.")),
    ("scenario.parse_config.calls", "count/op", ("per_op", "scenario.parse_config", "calls")),
    ("scenario.self_s", "s/op", ("self", "scenario.")),
    ("cli.build_parser.s", "s/op", ("per_op", "cli.build_parser", "total_s")),
    ("cli.self_s", "s/op", ("self", "cli.")),
]


def per_layer_metrics(tracer, ops, rows, traced_wall_s):
    """Per-layer metrics of a traced phase of ``ops`` ops producing ``rows`` rows."""
    out = {}
    for name, unit, how in PER_LAYER:
        if how[0] == "self":
            value = tracer.self_s(how[1]) / ops
        else:
            agg = tracer.aggregates.get(how[1], Aggregate())
            value = getattr(agg, how[2]) / (rows if how[0] == "per_cell" else ops)
        out[name] = (value, unit)
    for layer in LAYERS:
        out[f"{layer}.share"] = (tracer.self_s(layer + ".") / traced_wall_s, "ratio")
    return out
