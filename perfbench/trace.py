"""Span tracing around the package's public functions, from outside it.

:class:`Tracer` wraps every public module-level function of every loaded
``coopetition`` module at every name that binds it (modules that did
``from .x import y`` hold their own binding), plus ``render.Scene.add`` and
``render.Scene.add_solution`` on the class.  Each call records a span
``[op, span, parent, name, start, end, outer_name, outer_layer]`` in memory;
:func:`summarize` derives calls, busy time (outermost spans of a name or
layer, so recursion is not counted twice) and self time (duration minus
child spans).  Counters read sizes off arguments and results; the time they
take is recorded as a ``perfbench`` span so it does not inflate the layer
that called them.  Standard library only, so importing it in a child
process does not change what that process's import timing measures.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "coopetition"

def layer_of(name: str) -> str:
    """Layers are the package's modules; the kernel package belongs to
    geometry, its only caller."""
    head = name.split(".", 1)[0]
    if head == "_kernels":
        return "geometry"
    return head


def _payoff_unique(cloud) -> int:
    import numpy as np

    p = np.ascontiguousarray(cloud.payoffs, dtype=float)
    return len(np.unique(p.view(np.complex128).ravel()))


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


#: Counters per wrapped function: (args, kwargs, result) -> {key: amount}.
COUNTERS = {
    "geometry.sample_image": lambda a, k, r: {"points": len(r)},
    "geometry.pareto_filter": lambda a, k, r: {
        "points_in": len(_arg(a, k, 0, "cloud")),
        "points_out": len(r),
        "bytes_in": _arg(a, k, 0, "cloud").payoffs.nbytes + _arg(a, k, 0, "cloud").preimages.nbytes,
        "unique_in": _payoff_unique(_arg(a, k, 0, "cloud")),
    },
    "geometry.tu_boundary": lambda a, k, r: {"witnesses": len(r.witness_payoffs)},
    "coopetitive.nash_zone": lambda a, k, r: {"points": len(r)},
    "bargaining.ks_solution": lambda a, k, r: {"boundary_points": len(_arg(a, k, 0, "problem").boundary)},
    "bargaining.nash_bargaining": lambda a, k, r: {"boundary_points": len(_arg(a, k, 0, "boundary"))},
    "bargaining.compromise_solution": lambda a, k, r: {"boundary_points": len(_arg(a, k, 1, "boundary"))},
    "render.Scene.add": lambda a, k, r: {"rows": len(_arg(a, k, 2, "payoffs"))},
    "render.Scene.add_solution": lambda a, k, r: {"rows": 1},
}


class Tracer:
    """Install wrappers, record spans for the current op, undo on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._active_names: dict[str, int] = defaultdict(int)
        self._active_layers: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._next = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        layer = layer_of(name)
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            outer_name = tracer._active_names[name] == 0
            outer_layer = tracer._active_layers[layer] == 0
            tracer._active_names[name] += 1
            tracer._active_layers[layer] += 1
            tracer._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._active_names[name] -= 1
                tracer._active_layers[layer] -= 1
                tracer.spans.append([tracer.op, span, parent, name, start, end, outer_name, outer_layer])
            if counter is not None:
                tracer._count(name, counter, args, kwargs, result, parent)
            return result

        return wrapper

    def _count(self, name, counter, args, kwargs, result, parent) -> None:
        start = time.perf_counter()
        for key, amount in counter(args, kwargs, result).items():
            self.counts[f"{name}.{key}"] += amount
        span = self._next
        self._next += 1
        self.spans.append([self.op, span, parent, "perfbench.counters", start, time.perf_counter(), True, True])

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        prefix = PACKAGE + "."
        modules = [m for k, m in list(sys.modules.items()) if k == PACKAGE or k.startswith(prefix)]
        wrappers = {}
        for mod in modules:
            short = mod.__name__[len(prefix):]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}".replace("._py.", "."))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        render = sys.modules.get(prefix + "render")
        if render is not None:
            for method in ("add", "add_solution"):
                original = vars(render.Scene)[method]
                self._patches.append((render.Scene, method, original))
                setattr(render.Scene, method, self._wrap(original, f"render.Scene.{method}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def summarize(spans: list[list]) -> dict:
    """Per-name and per-layer totals: calls, busy seconds, self seconds."""
    child_time: dict[tuple[int, int], float] = defaultdict(float)
    for op, _span, parent, _name, start, end, _on, _ol in spans:
        if parent >= 0:
            child_time[(op, parent)] += end - start
    names: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    layers: dict[str, dict[str, float]] = defaultdict(lambda: {"busy_s": 0.0, "self_s": 0.0})
    top_level = 0.0
    for op, span, parent, name, start, end, outer_name, outer_layer in spans:
        dur = end - start
        own = dur - child_time.get((op, span), 0.0)
        entry = names[name]
        entry["calls"] += 1
        entry["self_s"] += own
        if outer_name:
            entry["busy_s"] += dur
        layer = "perfbench" if name == "perfbench.counters" else layer_of(name)
        layers[layer]["self_s"] += own
        if outer_layer:
            layers[layer]["busy_s"] += dur
        if parent < 0:
            top_level += dur
    return {"names": dict(names), "layers": dict(layers), "top_level_s": top_level}
