"""Traced run: which slowflow calls are wrapped, what they count, and the
per-layer metrics.  The layers are slowflow's modules.

Every per-layer value is per traced op, except ``setup.fieldgen.self_s``
(input generation during set-up).  Counts repeat exactly for a given
workload; ``trace.coverage`` and ``trace.overhead`` are measured times.
"""

import importlib
import os
import statistics
from collections import Counter

import numpy as np

import slowflow
from slowflow import convolve, stokes

MODULES = ("analysis", "cli", "convolve", "energy", "fieldgen", "fields",
           "lerf", "mollifier", "report", "stokes")
METHODS = [(convolve.SpectralAccumulator, m) for m in ("field_fft", "kernel_fft", "add", "extract")]
METHODS.append((stokes.ForcingField, "at"))
# per-function self times reported on their own (all appear in the trace file)
FUNCTIONS = ("convolve.newton_kernel", "convolve.dipole_kernels", "convolve.convolve_offsets",
             "convolve.SpectralAccumulator.add", "stokes.heat_propagate",
             "stokes.heat_kernel_on_grid", "stokes.forced_response", "stokes.pressure_field",
             "fields.sample_diagnostics", "analysis.representation_reconstruct")
COUNTS = {"stokes.duhamel_nodes": "count", "stokes.forcing_samples": "count",
          "lerf.bytes_written": "B", "lerf.bytes_read": "B"}


class CountingFFT:
    """Stands in for ``scipy.fft`` inside the convolve module and counts every
    3D transform: its padded size P^3 (from the ``s`` argument), whether it
    transforms a kernel (odd-shaped input; fields live on even grids), and the
    workload's n^3 as its useful part."""

    def __init__(self, tracer, sfft, n):
        self._tracer, self._sfft, self._n = tracer, sfft, n

    def __getattr__(self, name):
        return getattr(self._sfft, name)

    def _count(self, x, s, kernel):
        t = self._tracer
        if not t.enabled:
            return
        shape = tuple(s) if s is not None else np.shape(x)
        t.count("convolve.fft_count")
        t.count("convolve.kernel_fft_count", int(kernel))
        t.count("convolve.padded_cells", int(np.prod(shape)))
        t.count("convolve.useful_cells", self._n ** 3)
        t.count(f"P={shape[0]}")

    def rfftn(self, x, s=None, *args, **kwargs):
        self._count(x, s, kernel=any(d % 2 for d in np.shape(x)))
        return self._sfft.rfftn(x, s, *args, **kwargs)

    def irfftn(self, x, s=None, *args, **kwargs):
        self._count(x, s, kernel=False)
        return self._sfft.irfftn(x, s, *args, **kwargs)


def _duhamel_node(tracer, grid, nu_t, normalized=True):
    if tracer.inside("stokes.forced_response"):
        tracer.count("stokes.duhamel_nodes")


def _forcing_sample(tracer, forcing, t):
    # a sampler that combines other ForcingFields samples them too; count once
    if not tracer.inside("stokes.ForcingField.at"):
        tracer.count("stokes.forcing_samples")


def _lerf_write(tracer, path, field):
    return lambda: tracer.count("lerf.bytes_written", os.path.getsize(path))


def _lerf_read(tracer, path):
    tracer.count("lerf.bytes_read", os.path.getsize(path))


HOOKS = {
    "stokes.heat_kernel_on_grid": _duhamel_node,
    "stokes.ForcingField.at": _forcing_sample,
    "lerf.write_field": _lerf_write,
    "lerf.read_field": _lerf_read,
}


def instrument(tracer, n):
    """Wrap every public slowflow function at every binding, the traced
    methods, and the FFT entry points of the convolve module."""
    modules = [slowflow] + [importlib.import_module(f"slowflow.{m}") for m in MODULES]
    tracer.instrument(modules, METHODS, HOOKS)
    tracer.patch(convolve, "sfft", CountingFFT(tracer, convolve.sfft, n))


def layer_metrics(tracer, states, passed):
    """Per-layer metrics ``{name: (value, unit)}``, the per-op function table
    and the padded sizes P seen.  ``states`` is the output states per op and
    ``passed`` the ``(op id, wall time, traced)`` of the ops that passed."""
    ops = [op for op, _, traced in passed if traced]
    funcs, coverage = tracer.summary(ops)
    k = len(ops) or 1
    totals = Counter()
    for op in ops:
        totals.update(tracer.counts[op])
    counts = {key: v / k for key, v in totals.items()}

    def per_op(name, field):
        return funcs.get(name, {}).get(field, 0) / k

    m = {f"{mod}.self_s": (sum(v["self_s"] for name, v in funcs.items()
                               if name.split(".")[0] == mod) / k, "s") for mod in MODULES}
    m.update({f"{name}.self_s": (per_op(name, "self_s"), "s") for name in FUNCTIONS})
    m["fields.sample_diagnostics.calls"] = (per_op("fields.sample_diagnostics", "calls"), "count")
    m["mollifier.mollify.calls"] = (per_op("mollifier.mollify", "calls"), "count")
    padded = counts.get("convolve.padded_cells", 0)
    m["convolve.fft_count"] = (counts.get("convolve.fft_count", 0), "count")
    m["convolve.kernel_fft_count"] = (counts.get("convolve.kernel_fft_count", 0), "count")
    m["convolve.padded_mcells"] = (padded / 1e6, "Mcell")
    m["convolve.useful_cell_ratio"] = (
        counts.get("convolve.useful_cells", 0) / padded if padded else 0.0, "1")
    m.update({key: (counts.get(key, 0), unit) for key, unit in COUNTS.items()})
    m["energy.diagnostics_per_state"] = (
        per_op("fields.sample_diagnostics", "calls") / states, "1/state")
    setup_funcs, _ = tracer.summary(["setup"])
    m["setup.fieldgen.self_s"] = (sum(v["self_s"] for name, v in setup_funcs.items()
                                      if name.startswith("fieldgen.")), "s")
    m["trace.coverage"] = (coverage, "1")
    times = {flag: [dt for _, dt, traced in passed if traced is flag] for flag in (True, False)}
    m["trace.overhead"] = (statistics.median(times[True]) / statistics.median(times[False])
                           if times[True] and times[False] else 0.0, "1")
    table = {name: {key: v / k for key, v in row.items()} for name, row in sorted(funcs.items())}
    padded_sizes = sorted(int(key[2:]) for key in counts if key.startswith("P="))
    return m, table, padded_sizes
