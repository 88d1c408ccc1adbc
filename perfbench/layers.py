"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public functions each compiler layer
exposes, at the module attribute the pass manager calls them through,
and records per-layer *self* time (a layer's time minus the time of
traced layers it called) and work counters.  Nothing under ``src/`` is
edited; :meth:`LayerTracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Tuple

#: layer name -> (module, attribute) pairs that layer's time is taken
#: from.  The compiler stages import these names into
#: ``repro.compiler.stages``, so that is where they are wrapped.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "loops.parse": (("repro.compiler.stages", "parse_loop"),),
    "loops.translate": (("repro.compiler.stages", "translate"),),
    "loops.unroll": (("repro.compiler.stages", "unroll_graph"),),
    "core.sdsp_pn": (
        ("repro.compiler.stages", "build_sdsp_pn"),
        ("repro.compiler.stages", "build_sdsp_scp_pn"),
    ),
    "core.rate": (
        ("repro.compiler.stages", "optimal_rate"),
        ("repro.compiler.stages", "dependence_bound_rate"),
    ),
    "core.bounds": (("repro.compiler.stages", "theoretical_bounds"),),
    "petrinet.behavior": (("repro.compiler.stages", "detect_frustum"),),
    "core.schedule": (("repro.compiler.stages", "derive_schedule"),),
    "core.verify": (("repro.compiler.stages", "verify_schedule"),),
    "compiler.fingerprint": (
        ("repro.compiler.manager", "content_fingerprint"),
        ("repro.compiler.manager", "request_key"),
        ("repro.compiler.stages", "graph_dump"),
        ("repro.compiler.stages", "loop_dump"),
        ("repro.compiler.stages", "net_dump"),
    ),
}

#: Work counters, all deterministic for a given input.
COUNTS = (
    "core.bounds.cycles",
    "core.rate.howard_iterations",
    "petrinet.behavior.steps",
    "core.sdsp_pn.places",
)


class LayerTracer:
    """Self time and counters per layer, accumulated until
    :meth:`reset`.  Use as a context manager around traced work."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counts: Counter = Counter({name: 0 for name in COUNTS})
        self._stack: List[List[float]] = []  # [child seconds] per open call
        self._saved: List[Tuple[Any, str, Any]] = []

    def reset(self) -> None:
        for layer in self.self_s:
            self.self_s[layer] = 0.0
        for name in self.counts:
            self.counts[name] = 0

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        return dict(self.self_s), dict(self.counts)

    # ------------------------------------------------------------------
    def _timed(self, layer: str, func: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack.append([0.0])
            started = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()[0]
                self_s[layer] += elapsed - children
                if stack:
                    stack[-1][0] += elapsed
            self._count(layer, result)
            return result

        return wrapper

    def _count(self, layer: str, result: Any) -> None:
        if layer == "petrinet.behavior":
            self.counts["petrinet.behavior.steps"] += len(result[1].steps)
        elif layer == "core.sdsp_pn":
            self.counts["core.sdsp_pn.places"] += len(result.net.place_names)

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> "LayerTracer":
        for layer, targets in LAYERS.items():
            for module_name, attribute in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attribute)
                self._patch(module, attribute, self._timed(layer, original))
        counts = self.counts

        howard = importlib.import_module("repro.petrinet.howard")
        original_howard = howard.howard_analysis

        def howard_analysis(*args, **kwargs):
            result = original_howard(*args, **kwargs)
            counts["core.rate.howard_iterations"] += result.iterations
            return result

        self._patch(howard, "howard_analysis", howard_analysis)

        graphs = importlib.import_module("repro.petrinet.marked_graph")
        view = graphs.MarkedGraphView
        original_cycles = view.simple_cycles

        def simple_cycles(self_view):
            fresh = self_view._cycles is None
            cycles = original_cycles(self_view)
            if fresh:
                counts["core.bounds.cycles"] += len(cycles)
            return cycles

        self._patch(view, "simple_cycles", simple_cycles)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
