"""In-process, single-threaded closed-loop compiles: the
``paper_corpus`` and ``size_families`` workloads.

A pass compiles every input once, in a seeded order; passes repeat
until the run's seconds are spent.  Every input's first result is
checked by :mod:`perfbench.check`; every later result must equal it.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from . import check, corpus
from .layers import COUNTS, LAYERS, LayerTracer
from .procs import (
    REFERENCE_S, geomean, loglog_slope, peak_rss_mb, reference_timer,
)

#: Passes every run makes, whatever its length.
MIN_PASSES = 3
#: Layers whose growth the size families report, and the families.
SLOPE_LAYERS = (
    "core.bounds", "core.rate", "core.verify", "petrinet.behavior",
    "compiler.fingerprint",
)
FAMILIES = ("chain", "recurrence", "dense", "unroll")

#: One traced compile: its wall seconds, self seconds per layer, counts.
Snapshot = Tuple[float, Dict[str, float], Dict[str, int]]


def signature(compiled) -> Tuple:
    """What two compiles of one input must agree on."""
    schedule = compiled.schedule
    return (
        compiled.rate, compiled.achieved_rate, compiled.unroll,
        schedule.start_time, schedule.initiation_interval,
        tuple(schedule.kernel), tuple(schedule.prologue),
        compiled.scp_schedule is not None
        and tuple(compiled.scp_schedule.kernel),
    )


class CompileRun:
    """One run's compiles, their times, and the first results."""

    def __init__(self, inputs: List[corpus.Input], seed: int) -> None:
        from repro.pipeline import compile_loop

        self.compile_loop = compile_loop
        self.inputs = inputs
        self.rng = random.Random(f"compile/{seed}")
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.first: Dict[str, object] = {}
        self.signatures: Dict[str, Tuple] = {}
        self.mismatches: List[str] = []
        self.attempted = 0

    def one_pass(self, tracer: LayerTracer = None,
                 reference: Callable[[], float] = None
                 ) -> Tuple[float, Dict[str, Snapshot]]:
        """Compile every input once; returns the summed compile time
        and, when traced, the per-input layer snapshots.  With a
        host-speed ``reference``, timed before the first compile and
        after each one, every compile's times are scaled to
        :data:`REFERENCE_S` by the reference's time around it."""
        order = list(self.inputs)
        self.rng.shuffle(order)
        gc.collect()
        total = 0.0
        layers: Dict[str, Snapshot] = {}
        before = reference() if reference is not None else None
        for item in order:
            if tracer is not None:
                tracer.reset()
            started = time.perf_counter()
            compiled = self.compile_loop(**item.kwargs)
            seconds = time.perf_counter() - started
            scale = 1.0
            if reference is not None:
                after = reference()
                scale = 2 * REFERENCE_S / (before + after)
                before = after
            seconds *= scale
            total += seconds
            self.attempted += 1
            if tracer is not None:
                self_s, counts = tracer.snapshot()
                layers[item.label] = (
                    seconds,
                    {layer: t * scale for layer, t in self_s.items()},
                    counts,
                )
            else:
                self.samples[item.label].append(seconds)
            if item.label not in self.first:
                self.first[item.label] = compiled
                self.signatures[item.label] = signature(compiled)
            elif signature(compiled) != self.signatures[item.label]:
                self.mismatches.append(item.label)
        return total, layers

    def check(self) -> bool:
        """Run the independent checker over every input's first result."""
        ok = not self.mismatches
        for item in self.inputs:
            ok = check.passes(self.first[item.label], item.kwargs,
                              item.label) and ok
        return ok


def end_to_end(inputs: List[corpus.Input], seed: int, seconds: float,
               setup_s: float) -> Tuple[Dict, CompileRun]:
    run = CompileRun(inputs, seed)
    run.compile_loop(corpus.example("l2"), include_io=False)  # untimed
    # Other tenants of the host slow it by up to a half for a minute
    # at a time, in CPU time as well as wall time; the reference timed
    # around each compile takes that out.
    reference = reference_timer()
    passes: List[float] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run.one_pass(reference=reference)[0])
    rss = peak_rss_mb([os.getpid()])
    correct = run.check()
    per_input = [statistics.median(s) for s in run.samples.values()]
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(passes), "s"),
        "compile_ms.geomean": (1000 * geomean(per_input), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    result = {"correct": correct, "attempted": run.attempted, "failed": 0,
              "metrics": metrics}
    return result, run


def traced(inputs: List[corpus.Input], seed: int, seconds: float
           ) -> Tuple[Dict, CompileRun]:
    """Alternate untraced and traced passes, both scaled to reference
    host speed.  Each input's layer times are those of its median
    traced compile; its untraced time is its median untraced one."""
    run = CompileRun(inputs, seed)
    run.compile_loop(corpus.example("l2"), include_io=False)  # untimed
    tracer = LayerTracer()
    reference = reference_timer()
    snapshots: Dict[str, List[Snapshot]] = defaultdict(list)
    counts: List[Dict[str, int]] = []
    deadline = time.perf_counter() + seconds
    while len(counts) < MIN_PASSES or time.perf_counter() < deadline:
        run.one_pass(reference=reference)
        with tracer:
            layers = run.one_pass(tracer, reference)[1]
        for label, snapshot in layers.items():
            snapshots[label].append(snapshot)
        counts.append(pass_counts(layers))
    correct = run.check() and all(c == counts[0] for c in counts)
    typical = {
        label: sorted(found, key=lambda snap: snap[0])[len(found) // 2]
        for label, found in snapshots.items()
    }
    plain = {label: statistics.median(samples)
             for label, samples in run.samples.items()}
    metrics = layer_metrics(typical, plain)
    for name, value in counts[0].items():
        metrics[name] = (value, "count")
    slopes = family_slopes(inputs, typical)
    for name in slope_names():
        metrics[name] = (slopes.get(name, 0.0), "1")
    result = {"correct": correct, "attempted": run.attempted, "failed": 0,
              "metrics": metrics}
    return result, run


def pass_counts(layers: Dict[str, Snapshot]) -> Dict[str, int]:
    totals = {name: 0 for name in COUNTS}
    for _, _, counts in layers.values():
        for name, value in counts.items():
            totals[name] += value
    return totals


def layer_metrics(traced: Dict[str, Snapshot], plain: Dict[str, float]
                  ) -> Dict:
    """``<layer>_ms`` summed over inputs, the unattributed remainder,
    the share attributed, and the tracing overhead, from one traced
    compile and one untraced compile time per input."""
    wall = sum(seconds for seconds, _, _ in traced.values())
    metrics = {}
    named = 0.0
    for layer in LAYERS:
        value = sum(times[layer] for _, times, _ in traced.values())
        metrics[f"{layer}_ms"] = (1000 * value, "ms")
        named += value
    metrics["compiler.unattributed_ms"] = (1000 * (wall - named), "ms")
    metrics["trace.attributed_share"] = (named / wall, "1")
    metrics["trace.overhead_ms"] = (
        1000 * (wall - sum(plain.values())), "ms"
    )
    return metrics


def slope_names() -> List[str]:
    """``<layer>.slope.<family>``; 0 on a workload without the family."""
    return [f"{layer}.slope.{family}"
            for layer in SLOPE_LAYERS for family in FAMILIES]


def family_slopes(inputs: List[corpus.Input], traced: Dict[str, Snapshot]
                  ) -> Dict[str, float]:
    """Log-log slope of each layer's time against the family's size
    parameter."""
    slopes = {}
    for family in FAMILIES:
        members = [item for item in inputs if item.family == family]
        if len(members) < 2:
            continue
        for layer in SLOPE_LAYERS:
            points = [(item.size, traced[item.label][1][layer])
                      for item in members]
            slopes[f"{layer}.slope.{family}"] = loglog_slope(points)
    return slopes
