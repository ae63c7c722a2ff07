"""Per-layer spans and counts for the traced run.

The tracer replaces the public entry points of specbar's modules with
wrappers, by patching module attributes in the traced process only; the
untraced run never imports this module.  Each wrapper records a span: its
duration is added to the layer's totals and to its parent span's child
time, so a layer's self time is its duration minus the time of the spans it
caused.  Spans are kept per thread, because the width sweep runs on a
thread pool.  Nothing is recorded while ``enabled`` is false, so set-up and
the output checks stay out of the figures.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import defaultdict

# The classification window of fd_truncation: the band range [-1, 1] that
# the band structure covers.  Eigenvalues outside it are computed but unused.
FD_WINDOW = (-1.0, 1.0)

# (name, unit, better) of every per-layer metric, in report order.
METRICS = [
    ("ode.calls", "count", "lower"),
    ("ode.points", "count", "lower"),
    ("ode.point_length", "pt.len", "lower"),
    ("ode.busy_s", "s", "lower"),
    ("rootfinder.calls", "count", "lower"),
    ("rootfinder.evals", "count", "lower"),
    ("rootfinder.points", "count", "lower"),
    ("rootfinder.scalar_evals", "count", "lower"),
    ("rootfinder.points_per_root", "ratio", "lower"),
    ("rootfinder.self_s", "s", "lower"),
    ("sturm.eigenvalues_s", "s", "lower"),
    ("sturm.resonances_s", "s", "lower"),
    ("sturm.limit_eigenvalues_s", "s", "lower"),
    ("sturm.eval_self_s", "s", "lower"),
    ("floquet.bands_calls", "count", "lower"),
    ("floquet.bands_s", "s", "lower"),
    ("floquet.floquet_data_s", "s", "lower"),
    ("fdtrunc.n", "count", "lower"),
    ("fdtrunc.build_matrix_s", "s", "lower"),
    ("fdtrunc.eigensolve_s", "s", "lower"),
    ("fdtrunc.eigs_computed", "count", "lower"),
    ("fdtrunc.eigs_in_window", "count", "higher"),
    ("fdtrunc.classify_s", "s", "lower"),
    ("harness.widths", "count", "lower"),
    ("harness.run_sweep_s", "s", "lower"),
    ("harness.busy_s", "s", "lower"),
    ("harness.parallel_eff", "ratio", "higher"),
    ("cli.run_s", "s", "lower"),
    ("cli.io_s", "s", "lower"),
]


class _JsonProxy:
    """Stands in for the ``json`` module inside specbar.cli, timing ``dump``."""

    def __init__(self, real, dump):
        self._real = real
        self.dump = dump

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.totals: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, **counts):
        with self._lock:
            for key, value in counts.items():
                self.totals[key] += value

    def span(self, key, fn, count=None):
        """Wrap fn so each call adds key.calls, key.time and key.self.

        ``count(args, kwargs, result)``, when given, returns extra totals to
        add for the call.
        """
        def wrapped(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self.add(**{f"{key}.calls": 1, f"{key}.time": dt,
                            f"{key}.self": dt - child})
            if count is not None:
                self.add(**count(args, kwargs, result))
            return result

        return wrapped

    def install(self, sb):
        """Patch every binding of the traced entry points in specbar's modules."""
        from specbar import (_ode, cli, core, fdtrunc, floquet, harness,
                             rootfinder, sturm)

        modules = [sb, core, _ode, rootfinder, sturm, floquet, fdtrunc, harness, cli]

        def patch(fn, wrapper):
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapper)

        def ode_count(args, kwargs, result):
            lam, x_from, x_to = args[1], args[2], args[3]
            size = getattr(lam, "size", 1)
            return {"ode.points": size, "ode.point_length": size * abs(x_to - x_from)}

        patch(_ode.propagate, self.span("ode", _ode.propagate, ode_count))

        def handle_count(args, kwargs, result):
            size = args[0].size
            return {"rootfinder.points": size, "rootfinder.scalar_evals": size == 1}

        def roots_count(args, kwargs, result):
            return {"rootfinder.roots": result.total_count}

        find_zeros = rootfinder.find_zeros

        def traced_find_zeros(f, rect, *args, **kwargs):
            if self.enabled:
                f = dataclasses.replace(
                    f, eval=self.span("handle", f.eval, handle_count))
            return find_zeros(f, rect, *args, **kwargs)

        patch(find_zeros, self.span("rootfinder", traced_find_zeros, roots_count))

        for name in ("eigenvalues", "resonances", "limit_eigenvalues"):
            fn = getattr(sturm, name)
            patch(fn, self.span(f"sturm.{name}", fn))
        # Sweep widths: harness calls eigenvalues once per width, on its pool.
        harness.eigenvalues = self.span("harness.width", harness.eigenvalues)

        for name in ("bands", "floquet_data", "_solution_arrays"):
            fn = getattr(floquet, name)
            patch(fn, self.span(f"floquet.{name}", fn))

        def matrix_count(args, kwargs, result):
            return {"fdtrunc.n": result.n}

        def eigs_count(args, kwargs, result):
            lo, hi = FD_WINDOW
            return {"fdtrunc.eigs_computed": len(result),
                    "fdtrunc.eigs_in_window": sum(lo <= z.real <= hi for z in result)}

        patch(fdtrunc.build_matrix, self.span("fdtrunc.build_matrix",
                                              fdtrunc.build_matrix, matrix_count))
        patch(fdtrunc.eigenvalues_dense, self.span("fdtrunc.eigenvalues_dense",
                                                   fdtrunc.eigenvalues_dense, eigs_count))
        patch(fdtrunc.classify_spectrum, self.span("fdtrunc.classify_spectrum",
                                                   fdtrunc.classify_spectrum))

        def sweep_count(args, kwargs, result):
            widths = len(args[2])
            return {"harness.widths": widths,
                    "harness.workers": min(harness.thread_count(), widths)}

        patch(harness.run_sweep, self.span("harness.run_sweep", harness.run_sweep,
                                           sweep_count))

        patch(cli.run, self.span("cli.run", cli.run))
        cli.load_model = self.span("cli.io", cli.load_model)
        cli._write_csv = self.span("cli.io", cli._write_csv)
        cli.json = _JsonProxy(cli.json, self.span("cli.io", cli.json.dump))

    def metrics(self, rounds: int):
        """Per-round per-layer figures from the totals of ``rounds`` rounds."""
        t = self.totals

        def per(key):
            return t.get(key, 0.0) / rounds

        sweep_wall = per("harness.run_sweep.time")
        workers = t.get("harness.workers", 0.0) / max(t.get("harness.run_sweep.calls", 0.0), 1.0)
        values = {
            "ode.calls": per("ode.calls"),
            "ode.points": per("ode.points"),
            "ode.point_length": per("ode.point_length"),
            "ode.busy_s": per("ode.time"),
            "rootfinder.calls": per("rootfinder.calls"),
            "rootfinder.evals": per("handle.calls"),
            "rootfinder.points": per("rootfinder.points"),
            "rootfinder.scalar_evals": per("rootfinder.scalar_evals"),
            "rootfinder.points_per_root": (t.get("rootfinder.points", 0.0)
                                           / max(t.get("rootfinder.roots", 0.0), 1.0)),
            "rootfinder.self_s": per("rootfinder.self"),
            "sturm.eigenvalues_s": per("sturm.eigenvalues.time"),
            "sturm.resonances_s": per("sturm.resonances.time"),
            "sturm.limit_eigenvalues_s": per("sturm.limit_eigenvalues.time"),
            "sturm.eval_self_s": per("handle.self"),
            "floquet.bands_calls": per("floquet.bands.calls"),
            "floquet.bands_s": per("floquet.bands.time"),
            "floquet.floquet_data_s": per("floquet.floquet_data.time"),
            "fdtrunc.n": per("fdtrunc.n"),
            "fdtrunc.build_matrix_s": per("fdtrunc.build_matrix.time"),
            "fdtrunc.eigensolve_s": per("fdtrunc.eigenvalues_dense.time"),
            "fdtrunc.eigs_computed": per("fdtrunc.eigs_computed"),
            "fdtrunc.eigs_in_window": per("fdtrunc.eigs_in_window"),
            "fdtrunc.classify_s": per("fdtrunc.classify_spectrum.time"),
            "harness.widths": per("harness.widths"),
            "harness.run_sweep_s": sweep_wall,
            "harness.busy_s": per("harness.width.time"),
            "harness.parallel_eff": (per("harness.width.time") / (sweep_wall * workers)
                                     if sweep_wall > 0 else 0.0),
            "cli.run_s": per("cli.run.time"),
            "cli.io_s": per("cli.io.time"),
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _ in METRICS}
