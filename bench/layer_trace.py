"""Span tracing of calls into polaron_deco's layers, from outside the package.

install() replaces public functions at the module attributes their callers
look them up by (for example ``rates.build_kernel_table``, which is the name
``rates.build_rate_table`` calls, and ``cli.write_csv``). Each call becomes
a span (id, name, start, end, parent id, thread id) kept in memory; hot
scalar functions only bump a counter. dump() writes everything as JSON when
the traced process ends, and summarize() turns that into the per-layer
metrics. A wrapped name that no longer exists is recorded as absent and its
metrics come out as None; the traced run itself does not fail.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time

# (module, attribute, layer): calls through that name become spans
SPAN_PATCHES = (
    ("polaron_deco.cli", "parse_config", "cli.parse_config"),
    ("polaron_deco.cli", "run_experiment", "cli.run_experiment"),
    ("polaron_deco.cli", "_trajectory_for", "cli.sweep"),
    ("polaron_deco.rates", "build_rate_table", "rates.build_rate_table"),
    ("polaron_deco.rates", "build_kernel_table", "bath.build_kernel_table"),
    ("polaron_deco.bath", "build_kernel_table", "bath.build_kernel_table"),
    ("polaron_deco.rates", "build_rate_table_from_kernels",
     "rates.build_rate_table_from_kernels"),
    ("polaron_deco.oracle", "build_rate_table_from_kernels",
     "rates.build_rate_table_from_kernels"),
    ("polaron_deco.dynamics", "evolve_closed_form", "dynamics.evolve_closed_form"),
    ("polaron_deco.oracle", "evolve_closed_form", "dynamics.evolve_closed_form"),
    ("polaron_deco.dynamics", "evolve_ode", "dynamics.evolve_ode"),
    ("polaron_deco.oracle", "build_hamiltonian", "oracle.build_hamiltonian"),
    ("polaron_deco.oracle", "compare_with_master_equation",
     "oracle.compare_with_master_equation"),
    ("polaron_deco.oracle", "exact_decoherence_reference",
     "oracle.exact_decoherence_reference"),
    ("polaron_deco.oracle", "run_bangbang", "oracle.run_bangbang"),
    ("polaron_deco.cli", "write_csv", "output.write_csv"),
    ("polaron_deco.output", "write_csv", "output.write_csv"),
    ("polaron_deco.cli", "write_svg", "output.write_svg"),
    ("polaron_deco.output", "write_svg", "output.write_svg"),
)

# (module, attribute, layer): calls through that name are only counted,
# because a span per call would cost more than the call itself
COUNT_PATCHES = (
    ("polaron_deco.bath", "dawson_sine", "numerics.dawson_sine"),
    ("polaron_deco.numerics", "dawson_sine", "numerics.dawson_sine"),
    ("polaron_deco.dynamics", "rate_at", "dynamics.rate_at"),
)

# numpy.linalg.eigh is traced only while an oracle span is open
EIGH_LAYER = "oracle.eigh"

PER_LAYER_UNITS = {
    "cli.parse_config.s": "s",
    "cli.run_experiment.self_s": "s",
    "cli.sweep.parallel_eff": "1",
    "numerics.dawson_sine.calls": "count",
    "bath.build_kernel_table.s": "s",
    "bath.build_kernel_table.calls": "count",
    "bath.quadrature_nodes": "count",
    "rates.build_rate_table_from_kernels.s": "s",
    "rates.build_rate_table_from_kernels.calls": "count",
    "dynamics.evolve_closed_form.s": "s",
    "dynamics.evolve_ode.s": "s",
    "dynamics.rate_at.calls": "count",
    "oracle.dim": "count",
    "oracle.build_hamiltonian.s": "s",
    "oracle.eigh.s": "s",
    "oracle.eigh.calls": "count",
    "oracle.exact_decoherence_reference.self_s": "s",
    "oracle.exact_decoherence_reference.gflop_per_s": "GFLOP/s",
    "oracle.amp_block_mb": "MB",
    "oracle.run_bangbang.self_s": "s",
    "output.write_csv.s": "s",
    "output.write_csv.bytes": "B",
    "output.write_svg.s": "s",
    "output.write_svg.bytes": "B",
    "trace.overhead_s": "s",
}

# metric -> layers it is computed from; any absent layer makes it None
_METRIC_LAYERS = {
    "bath.quadrature_nodes": ("bath.composite_gk15_nodes",),
    "oracle.dim": ("oracle.build_hamiltonian",),
    "oracle.exact_decoherence_reference.gflop_per_s": (
        "oracle.exact_decoherence_reference", "oracle.build_hamiltonian",
        "oracle.branches"),
    "oracle.amp_block_mb": ("oracle.exact_decoherence_reference",
                            "oracle.build_hamiltonian"),
}


class Tracer:
    """In-memory span and counter store shared by all threads."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.gauges = {}
        self.absent = []  # layers none of whose names exist any more
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, n=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def spanned(self, layer, fn, on_result=None, inside=None):
        """fn wrapped so each call records a span named layer.

        With inside set, calls made while no open span of this thread has
        that prefix pass through unrecorded.
        """
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if inside and not any(name.startswith(inside) for _, name in stack):
                return fn(*args, **kwargs)
            sid = next(self._ids)
            parent = stack[-1][0] if stack else None
            stack.append((sid, layer))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, layer, start, end, parent,
                                   threading.get_ident()))
            if on_result is not None:
                try:
                    on_result(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    pass  # the metric fed by this hook stays at zero
            return result
        return wrapper

    def watched(self, fn, hook):
        """fn wrapped so hook sees each result; no span is recorded."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(result)
            return result
        return wrapper

    def dump(self, path):
        doc = {"spans": self.spans, "counters": self.counters,
               "gauges": self.gauges, "absent": sorted(set(self.absent))}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _patch(found, module_name, attr, layer, make):
    try:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
    except (ImportError, AttributeError):
        found.setdefault(layer, False)
        return
    found[layer] = True
    setattr(module, attr, make(original))


def _written_bytes(tracer, layer):
    def hook(args, kwargs, result):
        path = kwargs.get("path", args[0] if args else None)
        tracer.add(layer + ".bytes", os.path.getsize(path))
    return hook


def install() -> Tracer:
    """Wrap the layer functions of an imported polaron_deco; returns the store."""
    import numpy as np

    tracer = Tracer()
    hooks = {
        "output.write_csv": _written_bytes(tracer, "output.write_csv"),
        "output.write_svg": _written_bytes(tracer, "output.write_svg"),
        "oracle.build_hamiltonian":
            lambda a, k, h: tracer.gauges.__setitem__("oracle.dim", h.shape[0]),
        "oracle.exact_decoherence_reference":
            lambda a, k, r: tracer.gauges.__setitem__(
                "oracle.time_points", len(r.trajectory.grid)),
    }
    found = {}  # layer -> whether at least one of its names was wrapped
    for module_name, attr, layer in SPAN_PATCHES:
        _patch(found, module_name, attr, layer,
               lambda fn, layer=layer: tracer.spanned(layer, fn, hooks.get(layer)))
    for module_name, attr, layer in COUNT_PATCHES:
        _patch(found, module_name, attr, layer,
               lambda fn, layer=layer: tracer.watched(
                   fn, lambda r, layer=layer: tracer.add(layer + ".calls")))
    _patch(found, "polaron_deco.bath", "composite_gk15_nodes",
           "bath.composite_gk15_nodes",
           lambda fn: tracer.watched(
               fn, lambda r: tracer.add("bath.quadrature_nodes", len(r[0]))))
    _patch(found, "polaron_deco.oracle", "_initial_site_branches",
           "oracle.branches",
           lambda fn: tracer.watched(
               fn, lambda r: tracer.gauges.__setitem__("oracle.branches", len(r))))
    tracer.absent = [layer for layer, ok in found.items() if not ok]
    np.linalg.eigh = tracer.spanned(EIGH_LAYER, np.linalg.eigh, inside="oracle.")
    return tracer


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals.

    Children are recorded on the parent's own thread, so this is per thread;
    time a thread spends waiting on a pool stays in its own self time.
    """
    children = {}
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
        out[sid] = (end - start) - _union_length([k for k in kids if k[1] > k[0]])
    return out


def summarize(doc) -> dict:
    """Per-layer metrics of one traced process (trace.overhead_s excluded)."""
    spans = [tuple(s) for s in doc["spans"]]
    counters, gauges = doc["counters"], doc["gauges"]
    selfs = self_times(spans)
    busy, self_s, calls = {}, {}, {}
    for sid, name, start, end, _, _ in spans:
        busy[name] = busy.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + selfs[sid]
        calls[name] = calls.get(name, 0) + 1

    sweep = [s for s in spans if s[1] == "cli.sweep"]
    if sweep:
        span = max(s[3] for s in sweep) - min(s[2] for s in sweep)
        workers = len({s[5] for s in sweep})
        parallel_eff = sum(s[3] - s[2] for s in sweep) / (workers * span)
    else:
        parallel_eff = 0.0

    dim = gauges.get("oracle.dim", 0)
    t_points = gauges.get("oracle.time_points", 0)
    ref_self = self_s.get("oracle.exact_decoherence_reference", 0.0)
    flops = 8.0 * t_points * dim**2 * gauges.get("oracle.branches", 0)

    m = {
        "cli.parse_config.s": busy.get("cli.parse_config", 0.0),
        "cli.run_experiment.self_s": self_s.get("cli.run_experiment", 0.0),
        "cli.sweep.parallel_eff": parallel_eff,
        "numerics.dawson_sine.calls": counters.get("numerics.dawson_sine.calls", 0),
        "bath.build_kernel_table.s": busy.get("bath.build_kernel_table", 0.0),
        "bath.build_kernel_table.calls": calls.get("bath.build_kernel_table", 0),
        "bath.quadrature_nodes": counters.get("bath.quadrature_nodes", 0),
        "rates.build_rate_table_from_kernels.s":
            busy.get("rates.build_rate_table_from_kernels", 0.0),
        "rates.build_rate_table_from_kernels.calls":
            calls.get("rates.build_rate_table_from_kernels", 0),
        "dynamics.evolve_closed_form.s": busy.get("dynamics.evolve_closed_form", 0.0),
        "dynamics.evolve_ode.s": busy.get("dynamics.evolve_ode", 0.0),
        "dynamics.rate_at.calls": counters.get("dynamics.rate_at.calls", 0),
        "oracle.dim": dim,
        "oracle.build_hamiltonian.s": busy.get("oracle.build_hamiltonian", 0.0),
        "oracle.eigh.s": busy.get(EIGH_LAYER, 0.0),
        "oracle.eigh.calls": calls.get(EIGH_LAYER, 0),
        "oracle.exact_decoherence_reference.self_s": ref_self,
        # computed from a nominal 8*T*dim^2 flops per branch, not counted
        "oracle.exact_decoherence_reference.gflop_per_s":
            flops / ref_self / 1e9 if ref_self > 0 else 0.0,
        # computed: the T x dim complex128 amplitude block of one branch
        "oracle.amp_block_mb": t_points * dim * 16 / 1e6,
        "oracle.run_bangbang.self_s": self_s.get("oracle.run_bangbang", 0.0),
        "output.write_csv.s": busy.get("output.write_csv", 0.0),
        "output.write_csv.bytes": counters.get("output.write_csv.bytes", 0),
        "output.write_svg.s": busy.get("output.write_svg", 0.0),
        "output.write_svg.bytes": counters.get("output.write_svg.bytes", 0),
    }
    absent = set(doc["absent"])
    for name in m:
        layers = _METRIC_LAYERS.get(name) or (name.rsplit(".", 1)[0],)
        if any(layer in absent for layer in layers):
            m[name] = None
    return m
