"""Spans around the calls into each fracstefan module, made from this directory.

The library is not edited: for a traced pass, `Tracer.installed()` replaces the
module-level bindings through which one layer calls the next (for example
`fracstefan.fronttrack.advance_phase`, the name the front search uses to reach
the stepper) with timing wrappers, and restores them afterwards.  Only
per-name aggregates and counters are kept, in memory.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

from fracstefan import analytic, cli, fracquad, fronttrack, scheme, specfun
from fracstefan.errors import DomainError, NonConvergenceError

_MODULES = {"analytic": analytic, "cli": cli, "fronttrack": fronttrack,
            "scheme": scheme, "specfun": specfun}

#: (span name, function, modules whose binding of that function is wrapped).
#: Each module listed calls the function through that binding.
LAYER_CALLS = (
    ("specfun.wright", "wright_series", ("specfun",)),
    ("analytic.root", "solve_p_exact", ("analytic", "cli")),
    ("analytic.field", "u1_exact", ("analytic", "cli")),
    ("analytic.field", "u2_exact", ("analytic", "cli")),
    ("fronttrack.bisection", "bisection_solve", ("fronttrack", "cli")),
    ("fronttrack.candidate", "front_residual", ("fronttrack",)),
    ("fronttrack.balance", "stefan_front_value", ("fronttrack",)),
    ("fronttrack.series", "front_series", ("fronttrack", "cli")),
    ("scheme.advance", "advance_phase", ("scheme", "fronttrack", "cli")),
    ("scheme.recover", "recover_physical", ("scheme", "fronttrack", "cli")),
)

#: Spans too numerous to keep one by one; they are only aggregated.
_AGGREGATE_ONLY = {"specfun.wright", "analytic.field"}


class _Agg:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = []


class Tracer:
    """In-memory per-name span aggregates and layer counters."""

    def __init__(self):
        self.agg = {}
        self.counts = {"wright_terms": 0, "nonconverged": 0, "field_gaps": 0,
                       "node_steps": 0, "advances": 0}
        self.advance_keys = set()
        self._stack = []  # [name, start, child seconds]

    @contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _close(self):
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        agg = self.agg.get(name)
        if agg is None:
            agg = self.agg[name] = _Agg()
        agg.calls += 1
        agg.total += duration
        agg.self_time += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if name not in _AGGREGATE_ONLY:
            agg.durations.append(duration)

    def _wrap(self, name, fn):
        after = getattr(self, "_after_" + fn.__name__, None)

        def traced(*args, **kwargs):
            span_name = name
            if fn.__name__ == "advance_phase":
                span_name = f"{name}.phase{args[0].phase}"
            self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            except (DomainError, NonConvergenceError):
                if name == "analytic.field":
                    self.counts["field_gaps"] += 1
                elif name == "specfun.wright":
                    self.counts["nonconverged"] += 1
                raise
            finally:
                self._close()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _after_wright_series(self, args, kwargs, result):
        self.counts["wright_terms"] += result.terms

    def _after_advance_phase(self, args, kwargs, grid):
        through = kwargs.get("through", args[1] if len(args) > 1 else None)
        steps = grid.mesh.n if through is None else through
        self.counts["advances"] += 1
        self.counts["node_steps"] += steps * (grid.m - 1)
        self.advance_keys.add((grid.phase, grid.p, grid.mesh, grid.params))

    @contextmanager
    def installed(self):
        """Wrap every binding in LAYER_CALLS for the duration of the block."""
        saved = []
        try:
            for name, attr, modules in LAYER_CALLS:
                original = getattr(_MODULES[modules[0]], attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    saved.append((_MODULES[module], attr, getattr(_MODULES[module], attr)))
                    setattr(_MODULES[module], attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def seconds(self, name, kind="total"):
        agg = self.agg.get(name)
        if agg is None:
            return 0.0
        return agg.total if kind == "total" else agg.self_time

    def calls(self, name):
        agg = self.agg.get(name)
        return 0 if agg is None else agg.calls

    def percentile(self, name, q):
        agg = self.agg.get(name)
        if agg is None or not agg.durations:
            return 0.0
        if len(agg.durations) == 1:
            return agg.durations[0]
        return statistics.quantiles(agg.durations, n=100, method="inclusive")[q - 1]

    def summary(self):
        return {name: {"calls": a.calls, "total_s": a.total, "self_s": a.self_time}
                for name, a in sorted(self.agg.items())}


def probe_layers(params, p, mesh, repeats=15):
    """Per-call times of three public entry points at one mesh.

    Returns the median over `repeats` of: the n `trap_weights` calls one grid
    needs (seconds), one `assemble_phase2_step` at k = n-1 (microseconds),
    and one `thomas_solve` of that size-(m2-1) system (microseconds).  The
    assembly only reads the grid, so the probe grid keeps its initial rows
    and is marked as filled through level n-1.
    """
    n = mesh.n
    grid = scheme.make_phase_grid(2, p, mesh, params)
    grid.filled_through = n - 1
    weights, assemble, thomas = [], [], []
    for _ in range(repeats):
        start = time.perf_counter()
        for k in range(n):
            fracquad.trap_weights(k, params.alpha, grid.dtau)
        weights.append(time.perf_counter() - start)
        start = time.perf_counter()
        system = scheme.assemble_phase2_step(grid, n - 1)
        assemble.append(time.perf_counter() - start)
        start = time.perf_counter()
        scheme.thomas_solve(system)
        thomas.append(time.perf_counter() - start)
    return {
        "fracquad.weights_s": statistics.median(weights),
        "scheme.assemble_us": 1e6 * statistics.median(assemble),
        "scheme.thomas_us": 1e6 * statistics.median(thomas),
    }
