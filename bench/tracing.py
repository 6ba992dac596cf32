"""Span tracing for one nsmild process, installed from outside the package.

`install` replaces public functions of the nsmild modules, and numpy's FFT
entry points, with wrappers that record a span per call: name, start, end
and the index of the enclosing span. Module globals are rebound wherever a
module imported the function, so calls between modules are seen too. The
package itself is not modified on disk, and methods of the field classes are
not wrapped: their time counts as self time of the calling function.

Counters are recorded at the same boundaries:

- fft.transforms / fft.points: transforms per call (batch size) and points
  transformed, from the array shapes;
- fft.flops_computed: 5 n log2 n per complex transform of n points, half of
  that for a real one; fft.bytes_computed: input plus output array bytes.
  Both are computed from shapes, not measured;
- picard iterations, split into converged and discarded solves;
- snapshot bytes written and the largest trajectory held in memory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time

LAYERS = ("cli", "grid", "operators", "solver", "verification", "io")  # nsmild modules
FFT_FUNCS = ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft")
# set-up: config parsing and everything built before the solve starts
SETUP_FUNCS = ("cli.load_config", "cli.build_grid", "cli.build_solver_config", "cli.build_initial")


class Tracer:
    """Spans and counters of one process, kept in memory until it exits."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = {}
        self._stack = []

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name, value):
        self.counters[name] = max(self.counters.get(name, 0), value)

    def span(self, name, start, end):
        """Record a span measured by the caller (used for the import)."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1])

    def wrap(self, name, fn, on_return=None, on_error=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[2] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(self, exc)
                raise
            record[2] = clock()
            stack.pop()
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced


def _trajectory_bytes(traj) -> int:
    return sum(f.coeffs.nbytes for f in traj.fields)


def _on_march(tracer, args, kwargs, traj):
    tracer.peak("solver.trajectory_bytes", _trajectory_bytes(traj))


def _on_picard(tracer, args, kwargs, result):
    traj, iterations, _ = result
    tracer.add("picard.iterations", iterations)
    tracer.add("picard.converged_iterations", iterations)
    tracer.peak("solver.trajectory_bytes", _trajectory_bytes(traj))


def _on_picard_error(tracer, exc):
    history = getattr(exc, "residual_history", None)
    if history is not None:
        tracer.add("picard.iterations", len(history))


def _on_write_snapshot(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.add("io.write_snapshot.bytes", os.path.getsize(path))


HOOKS = {
    "solver.march": (_on_march, None),
    "solver.picard_solve": (_on_picard, _on_picard_error),
    "io.write_snapshot": (_on_write_snapshot, None),
}


def _fft_axes(name, ndim, args, kwargs):
    if name in ("fft", "ifft"):
        axis = args[2] if len(args) > 2 else kwargs.get("axis", -1)
        return (axis % ndim,)
    s = args[1] if len(args) > 1 else kwargs.get("s")
    axes = args[2] if len(args) > 2 else kwargs.get("axes")
    if axes is None:
        count = ndim if s is None else len(s)
        return tuple(range(ndim - count, ndim))
    return tuple(a % ndim for a in axes)


def _fft_counter(name):
    real = name in ("rfftn", "irfftn")
    flops_per_point_log = 2.5 if real else 5.0

    def count(tracer, args, kwargs, result):
        data = args[0] if args else kwargs["a"]
        nbytes = getattr(data, "nbytes", 0) + result.nbytes
        # the full-length (real or complex) side of the transform
        full = result if name == "irfftn" else data
        shape = getattr(full, "shape", ())
        axes = _fft_axes(name, len(shape), args, kwargs)
        n = math.prod(shape[a] for a in axes)
        batch = math.prod(shape) // n
        tracer.add("fft.transforms", batch)
        tracer.add("fft.points", batch * n)
        tracer.add("fft.flops_computed", batch * flops_per_point_log * n * math.log2(n))
        tracer.add("fft.bytes_computed", nbytes)

    return count


def install(tracer: Tracer, full: bool) -> None:
    """Wrap the set-up calls only (`full` false) or every public function."""
    import nsmild

    modules = {layer: importlib.import_module(f"nsmild.{layer}") for layer in LAYERS}
    replaced = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if not full and name not in SETUP_FUNCS:
                continue
            on_return, on_error = HOOKS.get(name, (None, None))
            replaced[obj] = tracer.wrap(name, obj, on_return, on_error)
    for module in (nsmild, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(module, attr, replaced[obj])
    if full:
        import numpy.fft

        for fname in FFT_FUNCS:
            original = getattr(numpy.fft, fname)
            setattr(numpy.fft, fname, tracer.wrap(f"fft.{fname}", original, _fft_counter(fname)))
