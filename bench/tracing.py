"""Spans around the library's public functions, installed from outside it.

A traced run replaces every binding of each target function in the loaded
``fracspec`` modules with a wrapper, so ``fracspec.fracplap.mode_product``
is traced as well as ``fracspec.tensor_ops.mode_product`` and the package
attribute ``fracspec.mode_product``.  Each wrapper records a span: layer
name, start, end, parent span and an optional amount (computed flops, bytes).
Spans stay in memory until the runner takes them after each iteration.

When the per-point route runs its points on worker threads, their own
stacks are empty; a span opened there takes as parent the innermost open
span of the thread that installed the tracer, the call that started the pool.

A target whose function no longer exists marks its layer absent; the run
reports the layer's metrics as 0 and lists the layer, it does not fail.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import statistics
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    layer: str
    start: float
    end: float
    amount: float


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _mode_product_gflop(args, kwargs, result) -> float:
    # computed, not counted: 2 * N_k * size multiply-adds per contraction
    A, U = _arg(args, kwargs, 0, "A"), _arg(args, kwargs, 1, "U")
    return 2.0 * len(A) * U.size / 1e9


def _table_mb(args, kwargs, result) -> float:
    # computed size of the batched route's square difference table
    U = _arg(args, kwargs, 1, "U")
    return 8.0 * U.size**2 / 1e6


def _csv_mb(args, kwargs, result) -> float:
    return os.path.getsize(_arg(args, kwargs, 0, "path")) / 1e6


@dataclass(frozen=True)
class Target:
    layer: str
    module: str
    function: str
    amount: Callable | None = None


TARGETS = (
    Target("grid.diff_matrices", "fracspec.grid", "build_diff_matrices"),
    Target("eigen.factorize", "fracspec.eigen", "factorize"),
    Target("fraclap.build", "fracspec.fraclap", "build_fraclap"),
    Target("fracplap.build", "fracspec.fracplap", "build_fracplap"),
    Target("tensor_ops.mode_product", "fracspec.tensor_ops", "mode_product", _mode_product_gflop),
    Target("fracplap.signed_power", "fracspec.fracplap", "signed_power"),
    Target("fracplap.rhs", "fracspec.fracplap", "apply_plap_batched", _table_mb),
    Target("fracplap.rhs", "fracspec.fracplap", "apply_plap_pointwise"),
    Target("fraclap.apply", "fracspec.fraclap", "apply_fraclap"),
    Target("oracles.exact", "fracspec.oracles", "exact_fraclap_gaussian"),
    Target("evolution.rk4", "fracspec.evolution", "rk4_step"),
    Target("evolution.quad_mass", "fracspec.evolution", "quad_mass"),
    Target("tensor_ops.csv_write", "fracspec.tensor_ops", "write_field_csv", _csv_mb),
    Target("tensor_ops.csv_read", "fracspec.tensor_ops", "read_field_csv"),
)

# metric name -> unit; trace.overhead_s is added by the runner
PER_LAYER = {
    "grid.diff_matrices_s": "s",
    "eigen.factorize_s": "s",
    "eigen.factorize_calls": "count",
    "fraclap.build_s": "s",
    "fracplap.build_s": "s",
    "tensor_ops.mode_product_s": "s",
    "tensor_ops.mode_product_calls": "count",
    "tensor_ops.mode_product_gflop": "GFLOP",
    "fracplap.signed_power_s": "s",
    "fracplap.table_mb": "MB",
    "fracplap.rhs_calls": "count",
    "fracplap.rhs_ms_p50": "ms",
    "fracplap.rhs_ms_p90": "ms",
    "fracplap.rhs_self_s": "s",
    "fraclap.apply_s": "s",
    "fraclap.apply_calls": "count",
    "oracles.exact_s": "s",
    "evolution.rk4_self_s": "s",
    "evolution.rk4_steps": "count",
    "evolution.quad_mass_s": "s",
    "tensor_ops.csv_write_s": "s",
    "tensor_ops.csv_read_s": "s",
    "tensor_ops.csv_mb": "MB",
}


class Tracer:
    """Installs span-recording wrappers; records only while ``active``."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.active = False
        self.absent: list[str] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._root_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn: Callable, amount: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            outer = stack or tracer._root_stack
            parent = outer[-1] if outer else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            extra = amount(args, kwargs, result) if amount else 0.0
            tracer.spans.append(Span(sid, parent, layer, start, end, extra))
            return result

        return traced

    def install(self) -> None:
        self._root_stack = self._stack()
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "fracspec" or name.startswith("fracspec."))
        ]
        found = set()
        for t in self.targets:
            original = getattr(sys.modules.get(t.module), t.function, None)
            if not callable(original):
                continue
            found.add(t.layer)
            wrapper = self._wrap(t.layer, original, t.amount)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, value))
                        setattr(m, attr, wrapper)
        self.absent = sorted({t.layer for t in self.targets} - found)

    def uninstall(self) -> None:
        for m, attr, value in reversed(self._patches):
            setattr(m, attr, value)
        self._patches.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its children cover."""
    covered, reach = 0.0, span.start
    for lo, hi in sorted((max(c.start, span.start), min(c.end, span.end)) for c in children):
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (span.end - span.start) - covered


def iteration_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one traced iteration (percentiles excluded)."""
    by_layer: dict[str, list[Span]] = defaultdict(list)
    children: dict[int | None, list[Span]] = defaultdict(list)
    for sp in spans:
        by_layer[sp.layer].append(sp)
        children[sp.parent].append(sp)

    def busy(layer):
        return sum(sp.end - sp.start for sp in by_layer[layer])

    def calls(layer):
        return len(by_layer[layer])

    def amount(layer):
        return sum(sp.amount for sp in by_layer[layer])

    def self_time(layer):
        return sum(_self_time(sp, children[sp.id]) for sp in by_layer[layer])

    return {
        "grid.diff_matrices_s": busy("grid.diff_matrices"),
        "eigen.factorize_s": busy("eigen.factorize"),
        "eigen.factorize_calls": calls("eigen.factorize"),
        "fraclap.build_s": busy("fraclap.build"),
        "fracplap.build_s": busy("fracplap.build"),
        "tensor_ops.mode_product_s": busy("tensor_ops.mode_product"),
        "tensor_ops.mode_product_calls": calls("tensor_ops.mode_product"),
        "tensor_ops.mode_product_gflop": amount("tensor_ops.mode_product"),
        "fracplap.signed_power_s": busy("fracplap.signed_power"),
        "fracplap.table_mb": max((sp.amount for sp in by_layer["fracplap.rhs"]), default=0.0),
        "fracplap.rhs_calls": calls("fracplap.rhs"),
        "fracplap.rhs_self_s": self_time("fracplap.rhs"),
        "fraclap.apply_s": busy("fraclap.apply"),
        "fraclap.apply_calls": calls("fraclap.apply"),
        "oracles.exact_s": busy("oracles.exact"),
        "evolution.rk4_self_s": self_time("evolution.rk4"),
        "evolution.rk4_steps": calls("evolution.rk4"),
        "evolution.quad_mass_s": busy("evolution.quad_mass"),
        "tensor_ops.csv_write_s": busy("tensor_ops.csv_write"),
        "tensor_ops.csv_read_s": busy("tensor_ops.csv_read"),
        "tensor_ops.csv_mb": amount("tensor_ops.csv_write"),
    }


def layer_metrics(iterations: list[list[Span]]) -> dict[str, float]:
    """Median over traced iterations of each per-layer metric.

    RHS latency percentiles pool every RHS span of every iteration.  A layer
    with no spans, absent or not exercised, reads 0.
    """
    per_iteration = [iteration_metrics(spans) for spans in iterations]
    out = {name: statistics.median(m[name] for m in per_iteration) for name in per_iteration[0]}
    rhs_ms = sorted(
        1e3 * (sp.end - sp.start) for spans in iterations for sp in spans if sp.layer == "fracplap.rhs"
    )
    out["fracplap.rhs_ms_p50"] = _percentile(rhs_ms, 0.5)
    out["fracplap.rhs_ms_p90"] = _percentile(rhs_ms, 0.9)
    return {name: float(out[name]) for name in PER_LAYER}


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]
