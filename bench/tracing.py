"""Spans around the public functions of every ``swanson`` module.

The tracer wraps module attributes from outside the library: each public
function listed in ``PUBLIC`` is replaced, in every ``swanson`` namespace that
holds it, by a wrapper that records a span (name, start, end, parent span,
job id, points).  Calls the library makes internally through those names are
therefore traced too.  The native leaves ``numpy.polynomial.*gauss`` and
``mpmath.pcfd`` are counted and timed but are not spans: their time stays in
the self time of the enclosing module's span, and their counters are
attributed to that module.

Spans are kept in memory; ``aggregate`` turns them into the per-module metrics
and ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

PUBLIC = {
    "core": ("classify", "derive", "surface_grid"),
    "specfun": ("hermite", "hermite_coefficients", "log_gamma", "recip_gamma", "gauss_hermite",
                "parabolic_cylinder_d"),
    "eigensystems": ("conjugate_function", "evaluate", "polynomial_pieces", "taylor_coefficients",
                     "apply_hamiltonian", "apply_oscillator", "discrete_states", "ep_states",
                     "free_particle_states"),
    "pairing": ("pair", "metric_pair", "gram", "reconstruct"),
    "continuum": ("continuum_state", "continuum_norm_constant", "pole_scan",
                  "resonant_expansion", "delta_normalization_probe",
                  "stripped_discrete_function"),
    "dynamics": ("make_state", "matrix_element", "apply_observable", "evolve_expectation",
                 "metric_norm", "evolve_sector"),
    "ep_analysis": ("sweep_to_boundary_i_iii", "sweep_to_ep", "ep_spectrum_flow"),
    "cli": ("main",),
}

# argument position of the evaluation points, for the functions that count them
POINTS_ARG = {"specfun.parabolic_cylinder_d": 1, "eigensystems.evaluate": 1}

# (library attribute, counter name) of the native leaves
LEAVES = (("numpy.polynomial.hermite", "hermgauss", "hermgauss"),
          ("numpy.polynomial.legendre", "leggauss", "leggauss"),
          ("mpmath", "pcfd", "mpmath_pcfd"))

# per-layer metrics: (name, unit, better)
METRICS = [
    ("core.classify.calls", "count", "lower"),
    ("core.classify.self_ms", "ms", "lower"),
    ("core.derive.calls", "count", "lower"),
    ("core.derive.self_ms", "ms", "lower"),
    ("core.surface_grid.self_ms", "ms", "lower"),
    ("specfun.hermite.calls", "count", "lower"),
    ("specfun.hermite.self_ms", "ms", "lower"),
    ("specfun.gauss_hermite.calls", "count", "lower"),
    ("specfun.gauss_hermite.hit_ratio", "ratio", "higher"),
    ("specfun.hermgauss.calls", "count", "lower"),
    ("specfun.hermgauss.ms", "ms", "lower"),
    ("specfun.log_gamma.calls", "count", "lower"),
    ("specfun.log_gamma.self_ms", "ms", "lower"),
    ("specfun.parabolic_cylinder_d.calls", "count", "lower"),
    ("specfun.parabolic_cylinder_d.points", "count", "lower"),
    ("specfun.parabolic_cylinder_d.self_ms", "ms", "lower"),
    ("specfun.mpmath_pcfd.points", "count", "lower"),
    ("specfun.mpmath_pcfd.ms", "ms", "lower"),
    ("specfun.mpmath_share", "ratio", "lower"),
    ("eigensystems.discrete_states.calls", "count", "lower"),
    ("eigensystems.discrete_states.self_ms", "ms", "lower"),
    ("eigensystems.evaluate.calls", "count", "lower"),
    ("eigensystems.evaluate.points", "count", "lower"),
    ("eigensystems.evaluate.self_ms", "ms", "lower"),
    ("pairing.pair.calls", "count", "lower"),
    ("pairing.pair.self_ms", "ms", "lower"),
    ("pairing.gram.calls", "count", "lower"),
    ("pairing.gram.self_ms", "ms", "lower"),
    ("pairing.metric_pair.calls", "count", "lower"),
    ("pairing.reconstruct.self_ms", "ms", "lower"),
    ("continuum.continuum_state.calls", "count", "lower"),
    ("continuum.delta_normalization_probe.calls", "count", "lower"),
    ("continuum.delta_normalization_probe.self_ms", "ms", "lower"),
    ("continuum.leggauss.calls", "count", "lower"),
    ("continuum.leggauss.ms", "ms", "lower"),
    ("continuum.pole_scan.self_ms", "ms", "lower"),
    ("continuum.resonant_expansion.self_ms", "ms", "lower"),
    ("dynamics.make_state.self_ms", "ms", "lower"),
    ("dynamics.evolve_expectation.calls", "count", "lower"),
    ("dynamics.evolve_expectation.self_ms", "ms", "lower"),
    ("dynamics.metric_norm.self_ms", "ms", "lower"),
    ("dynamics.evolve_sector.self_ms", "ms", "lower"),
    ("ep_analysis.sweep_to_ep.self_ms", "ms", "lower"),
    ("ep_analysis.sweep_to_boundary_i_iii.self_ms", "ms", "lower"),
    ("ep_analysis.ep_spectrum_flow.self_ms", "ms", "lower"),
    ("ep_analysis.leggauss.calls", "count", "lower"),
    ("ep_analysis.leggauss.ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("cli.bytes_out", "count", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
]


class Tracer:
    """Records spans while installed; ``job`` tags the spans of the current job."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []       # (name index, start, end, parent, job, points)
        self.leaf = defaultdict(lambda: [0, 0.0])   # (module, leaf) -> [calls, seconds]
        self.job = -1
        self._stack: list[tuple[int, int]] = []    # open spans: (slot, name index)

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        points_at = POINTS_ARG.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((slot, index))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                points = np.size(args[points_at]) if points_at is not None else 0
                spans[slot] = (index, start, end, parent, self.job, points)

        return traced

    def _wrap_leaf(self, counter: str, fn):
        stack, names, leaf = self._stack, self.names, self.leaf

        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                module = names[stack[-1][1]].split(".")[0] if stack else "none"
                entry = leaf[(module, counter)]
                entry[0] += 1
                entry[1] += perf_counter() - start

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Replace every public function (and the native leaves) while the block runs."""
        patched = []
        modules = [m for name, m in sys.modules.items()
                   if name == "swanson" or name.startswith("swanson.")]
        for short, funcs in PUBLIC.items():
            mod = sys.modules.get(f"swanson.{short}")
            if mod is None:
                continue
            for fname in funcs:
                original = getattr(mod, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            patched.append((m, attr, original))
                            setattr(m, attr, wrapper)
        for modname, attr, counter in LEAVES:
            mod = importlib.import_module(modname)
            original = getattr(mod, attr)
            patched.append((mod, attr, original))
            setattr(mod, attr, self._wrap_leaf(counter, original))
        try:
            yield self
        finally:
            for m, attr, original in reversed(patched):
                setattr(m, attr, original)

    def aggregate(self) -> dict:
        """Calls, self milliseconds and points per traced function, plus leaf counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg = defaultdict(lambda: {"calls": 0, "self_ms": 0.0, "points": 0})
        for i, (index, start, end, _, _, points) in enumerate(self.spans):
            a = agg[self.names[index]]
            a["calls"] += 1
            a["self_ms"] += 1e3 * (end - start - child[i])
            a["points"] += int(points)
        for (module, counter), (calls, seconds) in self.leaf.items():
            a = agg[f"{module}.{counter}"]
            a["calls"] += calls
            a["self_ms"] += 1e3 * seconds
        return dict(agg)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "job", "points"],
                       "names": self.names, "spans": self.spans}, fh)


def merge(total: dict, part: dict) -> None:
    for name, a in part.items():
        t = total.setdefault(name, {"calls": 0, "self_ms": 0.0, "points": 0})
        for key in t:
            t[key] += a[key]


def metrics(agg: dict, gh_hits: int, gh_misses: int, overhead: float,
            cli_import_ms: float = 0.0, cli_bytes: int = 0) -> dict:
    """The per-layer metric values from merged aggregates."""
    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    values = {"cli.import_ms": cli_import_ms, "cli.bytes_out": cli_bytes,
              "cli.self_ms": get("cli.main", "self_ms"), "trace_overhead_frac": overhead}
    lookups = gh_hits + gh_misses
    values["specfun.gauss_hermite.hit_ratio"] = gh_hits / lookups if lookups else 0.0
    weber_points = get("specfun.parabolic_cylinder_d", "points")
    mp_points = get("specfun.mpmath_pcfd", "calls")
    values["specfun.mpmath_share"] = mp_points / weber_points if weber_points else 0.0
    values["specfun.mpmath_pcfd.points"] = mp_points
    for name, _, _ in METRICS:
        if name in values:
            continue
        base, key = name.rsplit(".", 1)
        key = {"ms": "self_ms"}.get(key, key)
        values[name] = get(base, key)
    return values
