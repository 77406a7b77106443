"""Spans around fps's public functions, recorded from outside the package.

`Tracer.install` replaces each traced function by a timing wrapper in every
loaded fps module that holds it (the defining module, the package namespace
and, for instance, `fps.cli`, which imported `integrate_transfer_grid` by
name), so calls are caught however the caller reached the function.  Spans
(name, start, end, parent, thread) are kept in memory and written
once, from `Tracer.record`.  Names that a version of fps no longer has are
skipped, so the tracer runs against any commit.

`layer_metrics` turns the spans of one pass into the per-layer metrics.  A
layer's time is the self time of its spans: span time minus the part of it
that child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

#: Wrapped as spans: (module, function) -> per-layer metric of its self time.
SPANS = {
    ("fps.cli", "load_scenario"): "cli.load_scenario_s",
    ("fps.cli", "run_spectrum"): "cli.format_s",
    ("fps.cli", "run_compare"): "cli.format_s",
    ("fps.cli", "run_classify"): "cli.format_s",
    ("fps.cli", "run_mi"): "cli.format_s",
    ("fps.cli", "run_presets"): "cli.format_s",
    ("fps.dynamics", "integrate_transfer_grid"): "dynamics.propagate_s",
    ("fps.dynamics", "flux_from_matrices"): "dynamics.flux_extract_s",
    ("fps.dynamics", "exact_scalar_flux"): "dynamics.closed_form_s",
    ("fps.dynamics", "exact_lb_orthogonal_flux"): "dynamics.closed_form_s",
    ("fps.dynamics", "mi_gain_curve"): "dynamics.mi_s",
    ("fps.hb", "flux_hb"): "hb.flux_s",
    ("fps.hb", "total_scatter_probability"): "hb.total_prob_s",
    ("fps.lb", "flux_lb"): "lb.flux_s",
    ("fps.entangle", "filtered_state"): "entangle.state_s",
    ("fps.entangle", "classify"): "entangle.classify_s",
}

#: Wrapped as counters only: too frequent and too short for a span.
COUNTED = {("fps.hb", "xi_hb"): "hb.xi_calls"}

#: Per-layer metric names with their unit and better direction, in report order.
LAYER_METRICS = {
    "import.total_s": ("s", "lower"),
    "import.scipy_s": ("s", "lower"),
    "import.numpy_s": ("s", "lower"),
    "import.fps_self_s": ("s", "lower"),
    "cli.load_scenario_s": ("s", "lower"),
    "cli.format_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "cli.pool_efficiency": ("1", "higher"),
    "dynamics.propagate_s": ("s", "lower"),
    "dynamics.rk4_steps": ("count", "lower"),
    "dynamics.step_points": ("count", "lower"),
    "dynamics.ns_per_step_point": ("ns", "lower"),
    "dynamics.max_defect": ("1", "lower"),
    "dynamics.errors": ("count", "lower"),
    "dynamics.flux_extract_s": ("s", "lower"),
    "dynamics.closed_form_s": ("s", "lower"),
    "dynamics.mi_s": ("s", "lower"),
    "hb.flux_s": ("s", "lower"),
    "hb.flux_points": ("count", "higher"),
    "hb.xi_calls": ("count", "lower"),
    "hb.total_prob_s": ("s", "lower"),
    "lb.flux_s": ("s", "lower"),
    "lb.flux_points": ("count", "higher"),
    "entangle.state_s": ("s", "lower"),
    "entangle.classify_s": ("s", "lower"),
    "entangle.calls": ("count", "higher"),
    "trace.overhead_frac": ("1", "lower"),
}

#: Metrics that are counts of work; they repeat exactly for a given seed.
COUNT_METRICS = (
    "cli.output_bytes",
    "dynamics.rk4_steps",
    "dynamics.step_points",
    "dynamics.errors",
    "hb.flux_points",
    "hb.xi_calls",
    "lb.flux_points",
    "entangle.calls",
)


def _size(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is None:
        return 1
    size = 1
    for extent in shape:
        size *= extent
    return size


class Tracer:
    """In-memory span recorder that patches fps functions while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._matrices: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._ids = itertools.count()
        self._observers = {
            "fps.dynamics.integrate_transfer_grid": self._observe_propagation,
            "fps.hb.flux_hb": self._observe_flux,
            "fps.lb.flux_lb": self._observe_flux,
            "fps.entangle.filtered_state": self._observe_entangle,
            "fps.entangle.classify": self._observe_entangle,
        }

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def _count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def _span_wrapper(self, name: str, func):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        main_stack, observe = self._main_stack, self._observers.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = stack_of()
            # A pool thread's spans belong to the main thread's open span.
            parent_stack = stack or main_stack
            parent = parent_stack[-1] if parent_stack else None
            span_id = next(ids)
            stack.append(span_id)
            error = True
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                error = False
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, name, parent, start, end, error))
            if observe is not None:
                observe(name, args, kwargs, result)
            return result

        return traced

    # Counts taken at the layer boundary, outside the span's timing.
    def _observe_propagation(self, name, args, kwargs, result) -> None:
        omegas = args[3] if len(args) > 3 else kwargs.get("omegas")
        matrices, steps = result
        steps = int(steps or 0)  # a propagator without RK4 steps counts none
        self._count("dynamics.rk4_steps", steps)
        self._count("dynamics.step_points", steps * _size(omegas))
        self._matrices.append(matrices)

    def _observe_flux(self, name, args, kwargs, result) -> None:
        omega = args[2] if len(args) > 2 else kwargs.get("omega")
        key = "hb.flux_points" if name == "fps.hb.flux_hb" else "lb.flux_points"
        self._count(key, _size(omega))

    def _observe_entangle(self, name, args, kwargs, result) -> None:
        self._count("entangle.calls")

    def _count_wrapper(self, key: str, func):
        count = self._count

        @functools.wraps(func)
        def counted(*args, **kwargs):
            count(key)
            return func(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Patch every loaded fps module; import fps first."""
        modules = [
            module
            for name, module in sys.modules.items()
            if module is not None and (name == "fps" or name.startswith("fps."))
        ]
        targets = [(key, self._span_wrapper, f"{key[0]}.{key[1]}") for key in SPANS]
        targets += [(key, self._count_wrapper, metric) for key, metric in COUNTED.items()]
        for (module_name, attr), make, label in targets:
            home = sys.modules.get(module_name)
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = make(label, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def max_defect(self) -> float:
        """Largest symplectic defect of the matrices integrate_transfer_grid returned."""
        if not self._matrices:
            return 0.0
        from fps.dynamics import symplectic_defect

        return max(float(symplectic_defect(matrices)) for matrices in self._matrices)

    def record(self) -> dict:
        """Spans, counts and defect as plain JSON-ready data."""
        keys = ("id", "name", "parent", "start", "end", "error")
        spans = [dict(zip(keys, span)) for span in self.spans]
        return {"spans": spans, "counts": self.counts, "max_defect": self.max_defect()}


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals; pool threads' children overlap."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of each span: its duration minus the union of its children."""
    by_id = {span["id"]: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None:
            children.setdefault(parent["id"], []).append(
                (max(span["start"], parent["start"]), min(span["end"], parent["end"]))
            )
    return {
        span["id"]: span["end"] - span["start"] - _covered(children.get(span["id"], []))
        for span in spans
    }


def pool_efficiency(record: dict, workers: int) -> float | None:
    """Time of the library calls run_spectrum dispatched, over workers x its wall time.

    Measures how busy the workers were, not speed-up: calls that contend for
    the interpreter lock take longer and still count as busy.
    """
    spans = record["spans"]
    runs = [span for span in spans if span["name"] == "fps.cli.run_spectrum"]
    if workers < 2 or not runs:
        return None
    busy = wall = 0.0
    for run in runs:
        wall += run["end"] - run["start"]
        busy += sum(
            span["end"] - span["start"] for span in spans if span["parent"] == run["id"]
        )
    return busy / (workers * wall) if wall > 0 else None


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass from the tracer records of its processes."""
    metrics = {name: 0.0 for name in LAYER_METRICS if not name.startswith(("import.", "trace."))}
    metric_by_name = {f"{m}.{f}": metric for (m, f), metric in SPANS.items()}
    for record in records:
        selfs = self_times(record["spans"])
        for span in record["spans"]:
            metrics[metric_by_name[span["name"]]] += selfs[span["id"]]
            if span["error"] and span["name"].startswith("fps.dynamics."):
                metrics["dynamics.errors"] += 1
        for key, value in record["counts"].items():
            metrics[key] += value
        metrics["dynamics.max_defect"] = max(metrics["dynamics.max_defect"], record["max_defect"])
    if metrics["dynamics.step_points"]:
        metrics["dynamics.ns_per_step_point"] = (
            1e9 * metrics["dynamics.propagate_s"] / metrics["dynamics.step_points"]
        )
    return metrics
