"""Layer-boundary spans recorded from outside the program.

``Tracer.install`` wraps every public function of each ``confocalfit``
module and rebinds the wrapper in every ``confocalfit`` namespace that holds
the function by name.  The defining module itself is patched only when
another module imports it whole (``cli`` calls ``rp.dumps``), so calls
inside one module, such as the ball projections in the regularized solver's
inner loop, stay unwrapped and cost nothing; a wrapped call made from within
its own layer records no span either.  A span is therefore recorded exactly
where a call crosses a module boundary (``regression`` calling
``pencil.build_pencil``, the benchmark calling anything).
``WeightedPointSet`` construction and its cached ``is_full_rank`` are
wrapped on the class, which every namespace shares.

Spans are kept in memory as tuples ``(id, name, start, end, parent, op,
size)`` and written out by the caller at the end.  This module imports only
the standard library, so a bootstrap can load it before the program.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

MODULES = (
    "geometry", "pencil", "regression", "regularize", "billiards",
    "dataset", "svg", "report", "cli",
)

# Work size recorded with a span, where a layer metric is a rate per unit.
_SIZE = {
    "dataset.parse_dataset": lambda out: out.values.shape[0],
    "billiards.trajectory": lambda out: len(out) - 1,
    "report.dumps": lambda out: len(out.encode("utf-8")),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[tuple[int, str]] = []
        self._next = 0
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording -------------------------------------------------------
    def _wrap(self, name, fn):
        size = _SIZE.get(name)
        layer = name.split(".")[0]
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a call from inside the same layer (report.round_floats recursing
            # under report.dumps) is not a boundary
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            sid = self._next
            self._next += 1
            parent = stack[-1][0] if stack else -1
            stack.append((sid, layer))
            start = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                n = size(out) if size and out is not None else 0
                self.spans.append((sid, name, start, end, parent, self.op, n))

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap the public functions of every confocalfit module (idempotent)."""
        if self._patches:
            return
        import confocalfit  # noqa: F401 - the package must be loaded first
        from confocalfit import geometry

        for short in MODULES:
            __import__(f"confocalfit.{short}")
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if m is not None and (key == "confocalfit" or key.startswith("confocalfit."))]
        for short in MODULES:
            module = sys.modules[f"confocalfit.{short}"]
            # A module that another module imports whole (cli's ``rp.dumps``)
            # is called through its own namespace, so it is patched there too.
            held = any(value is module for ns in namespaces if ns.__name__ != "confocalfit"
                       for value in vars(ns).values())
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    if ns is module and not held:
                        continue
                    for bound_name, value in list(vars(ns).items()):
                        if value is fn:
                            self._set(ns, bound_name, wrapper)
        cls = geometry.WeightedPointSet
        self._set(cls, "__init__", self._wrap("geometry.WeightedPointSet", cls.__init__))
        prop = cls.__dict__["is_full_rank"]
        self._set(prop, "func", self._wrap("geometry.is_full_rank", prop.func))

    def _set(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name), value))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - child.get(sid, 0.0) for sid, _, start, end, *_ in spans}


def layer_metrics(op_spans, n_ops, all_spans):
    """Per-layer figures of the workload's own spans.

    ``op_spans`` are the spans recorded inside timed operations (``n_ops``
    of them); ``all_spans`` adds those of input loading, for the ingest
    layers.  A figure whose layer the workload never calls is None.
    """
    def durations(spans, name):
        return [end - start for _, n, start, end, *_ in spans if n == name]

    def count(name):
        return sum(1 for s in op_spans if s[1] == name) / n_ops

    out: dict[str, float | None] = {}
    parse = [(end - start, size) for _, n, start, end, _, _, size in all_spans
             if n == "dataset.parse_dataset"]
    out["dataset.parse_ms"] = _mean([d for d, _ in parse], 1e3)
    out["dataset.parse_rows_per_s"] = (
        sum(s for _, s in parse) / sum(d for d, _ in parse) if parse else None)
    built = durations(all_spans, "geometry.WeightedPointSet")
    ranked = durations(all_spans, "geometry.is_full_rank")
    out["geometry.point_set_ms"] = (
        (sum(built) + sum(ranked)) / len(built) * 1e3 if built else None)

    out["geometry.inertia_calls_per_op"] = count("geometry.inertia_operator")
    out["geometry.eigen_calls_per_op"] = (
        count("geometry.symmetric_eigen") + count("geometry.is_full_rank"))
    out["pencil.build_calls_per_op"] = count("pencil.build_pencil")
    out["pencil.jacobi_calls_per_op"] = count("pencil.jacobi_coordinates")

    own = self_times(op_spans)
    for layer in ("geometry", "regression", "pencil"):
        used = [own[s[0]] for s in op_spans if s[1].startswith(layer + ".")]
        out[f"{layer}.self_ms_per_op"] = sum(used) / n_ops * 1e3 if used else None
    out["pencil.jacobi_us"] = _mean(durations(op_spans, "pencil.jacobi_coordinates"), 1e6)

    fits = durations(op_spans, "regularize.constrained_fit")
    out["regularize.fit_ms_p50"] = statistics.median(fits) * 1e3 if fits else None
    out["regularize.fit_ms_max"] = max(fits) * 1e3 if fits else None
    walks = [(end - start, size) for _, n, start, end, _, _, size in op_spans
             if n == "billiards.trajectory" and size > 0]
    out["billiards.bounce_us"] = (
        sum(d for d, _ in walks) / sum(s for _, s in walks) * 1e6 if walks else None)
    out["svg.emit_ms"] = _mean(durations(op_spans, "svg.emit_svg"), 1e3)
    dumps = [(end - start, size) for _, n, start, end, _, _, size in op_spans
             if n == "report.dumps"]
    out["report.dumps_ms"] = _mean([d for d, _ in dumps], 1e3)
    out["report.bytes"] = _mean([s for _, s in dumps], 1.0)
    return out


def _mean(values, scale):
    return statistics.fmean(values) * scale if values else None
