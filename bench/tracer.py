"""Per-layer tracing of wavekit from outside the library.

``Tracer.install`` wraps each layer's entry point at every ``wavekit.*``
module attribute bound to that function object (``_adaptive``, for
instance, is imported into several modules), and ``Tracer.remove`` puts the
originals back. The library source is not edited. A name that a later
refactor removed is recorded in ``absent``; its metrics read 0.

Each call of a span layer records a span ``(id, name, start, end, parent,
item, self_s)``. Self time is the span's duration minus the time its child
spans cover. Integrands handed to ``_adaptive`` are spans of their own, so
the adaptive rule's self time is its bookkeeping; integrands handed to
``integrate_periodic`` and ``_time_integral_grid`` are counted, not timed.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

# (layer, module, attribute, how many points a call covers, or None)
SPAN_LAYERS = (
    ("numerics.adaptive", "wavekit.numerics", "_adaptive", None),
    ("numerics.periodic", "wavekit.numerics", "integrate_periodic", None),
    ("numerics.bessel_k", "wavekit.numerics", "_bessel_k01_vec", None),
    ("numerics.bessel_i", "wavekit.numerics", "_bessel_i_vec", None),
    ("numerics.bessel_jy", "wavekit.numerics", "_bessel_jy_vec", None),
    ("packet.make_minimal", "wavekit.packet", "make_minimal", None),
    ("packet.expectation_many", "wavekit.packet", "expectation_many", None),
    ("packet.solve_parameters", "wavekit.packet", "solve_parameters", None),
    ("moments.closed_form", "wavekit.moments", "moments_closed_form", None),
    ("moments.quadrature", "wavekit.moments", "moments_quadrature", None),
    ("moments.uncertainty_bound", "wavekit.moments", "uncertainty_bound", None),
    ("moments.k0_integral", "wavekit.moments", "relativistic_k0_integral", None),
    ("propagation.evolve_closed", "wavekit.propagation", "evolve_closed", lambda a: np.size(a[1])),
    ("propagation.greens_closed", "wavekit.propagation", "greens_closed", lambda a: np.size(a[1])),
    ("propagation.evolve_quadrature", "wavekit.propagation", "evolve_quadrature", None),
    ("analysis.evolved_moments", "wavekit.analysis", "evolved_moments", None),
    ("boost.wave_moments", "wavekit.boost", "boosted_wave_moments", None),
    ("boost.expectations", "wavekit.boost", "boosted_expectations", None),
    ("cosmology.comoving_trace", "wavekit.cosmology", "comoving_trace", None),
    ("cosmology.time_integral", "wavekit.cosmology", "_time_integral_grid", None),
)

# Bessel regime branches: counted by the arguments they receive, not timed.
ARG_COUNTERS = (
    ("numerics.bessel_k.args_series", "wavekit.numerics", "_k01_series", lambda a: np.size(a[0])),
    ("numerics.bessel_k.args_quad", "wavekit.numerics", "_k01_quadrature", lambda a: np.size(a[0])),
    ("numerics.bessel_i.args_series", "wavekit.numerics", "_i_series", lambda a: np.broadcast(a[0], a[1]).size),
    ("numerics.bessel_i.args_quad", "wavekit.numerics", "_i_quadrature", lambda a: np.broadcast(a[0], a[1]).size),
    ("numerics.bessel_jy.args_series", "wavekit.numerics", "_jy_series", lambda a: np.size(a[0])),
    ("numerics.bessel_jy.args_quad", "wavekit.numerics", "_jy_quadrature", lambda a: np.size(a[0])),
)

# Layers whose first argument is an integrand: (counter suffix, points per call).
INTEGRAND_COUNTS = {
    "numerics.adaptive": ("points", np.size),
    "numerics.periodic": ("points", np.size),
    "cosmology.time_integral": ("nodes", lambda _t: 1),
}
ADAPTIVE_INTEGRAND = "numerics.adaptive.integrand"

# Every per-layer metric, name -> unit, as BENCHMARK.json lists them.
LAYER_METRICS = {
    m["name"]: m["unit"]
    for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]
}


class Tracer:
    def __init__(self):
        self.absent = []
        self.spans = []
        self.counts = Counter()
        self.item = None
        self._stack = []  # [span id, name, start, child seconds]
        self._depth = Counter()  # open spans per name
        self._next_id = 0
        self._patches = []

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        nested = self._depth[name] > 0
        self._depth[name] += 1
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, name, time.perf_counter(), 0.0, nested])

    def _close(self):
        end = time.perf_counter()
        sid, name, start, child, nested = self._stack.pop()
        self._depth[name] -= 1
        dur = end - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((sid, name, start, end, parent, self.item, dur - child, nested))

    def _wrap_integrand(self, layer, f):
        suffix, points = INTEGRAND_COUNTS[layer]
        key = "%s.%s" % (layer, suffix)
        timed = layer == "numerics.adaptive"

        def integrand(x):
            self.counts[key] += points(x)
            if not timed:
                return f(x)
            self._open(ADAPTIVE_INTEGRAND)
            try:
                return f(x)
            finally:
                self._close()

        return integrand

    def _span_wrapper(self, layer, fn, points):
        def wrapper(*args, **kwargs):
            self.counts[layer + ".calls"] += 1
            if layer == "numerics.adaptive" and self._depth[layer] > 0:
                self.counts[layer + ".nested_calls"] += 1
            if points is not None:
                self.counts[layer + ".points"] += points(args)
            if layer in INTEGRAND_COUNTS and args and callable(args[0]):
                args = (self._wrap_integrand(layer, args[0]),) + args[1:]
            self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return wrapper

    def _count_wrapper(self, counter, fn, size):
        def wrapper(*args, **kwargs):
            self.counts[counter] += size(args)
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ----------------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        for name, module in list(sys.modules.items()):
            if name != "wavekit" and not name.startswith("wavekit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def _lookup(self, label, module_name, attr):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.append("%s (%s.%s)" % (label, module_name, attr))
            return None
        return fn

    def install(self):
        for layer, module_name, attr, points in SPAN_LAYERS:
            fn = self._lookup(layer, module_name, attr)
            if fn is not None:
                self._patch_everywhere(fn, self._span_wrapper(layer, fn, points))
        for counter, module_name, attr, size in ARG_COUNTERS:
            fn = self._lookup(counter, module_name, attr)
            if fn is not None:
                self._patch_everywhere(fn, self._count_wrapper(counter, fn, size))

    def remove(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Per-layer metric values (without gates and trace.overhead), 0 where a
        layer did not run or is absent."""
        incl = Counter()
        self_s = Counter()
        for _, name, start, end, _, _, self_time, nested in self.spans:
            self_s[name] += self_time
            if not nested:
                incl[name] += end - start
        out = {}
        for name, unit in LAYER_METRICS.items():
            layer, _, stat = name.rpartition(".")
            if stat == "s":
                out[name] = incl[layer]
            elif stat == "self_s":
                out[name] = self_s[layer]
            elif stat == "integrand_s":
                out[name] = incl[ADAPTIVE_INTEGRAND]
            elif unit == "count" and not name.startswith("gate."):
                out[name] = self.counts[name]
        return out

    def count_metrics(self):
        return {k: v for k, v in self.metrics().items() if LAYER_METRICS[k] == "count"}
