"""The benchmark's output checker, written apart from the program's own
verifier (:mod:`repro.core.verify`).

* :func:`replay` replays a compiled schedule over several kernel
  periods, through :meth:`PipelinedSchedule.start_of`, against every
  place of its net: a place from ``u`` to ``v`` holding ``m0`` tokens
  needs ``start(v, k) >= start(u, k - m0) + tau(u)``.  Ideal schedules
  also respect each transition's implicit one-token self-loop; SCP
  schedules use the pipeline depth as every latency and may issue at
  most one instruction per cycle.
* :func:`confirm_rate` decides, in exact integer arithmetic, whether a
  rate ``r`` is the optimal rate of a net: with edge weights
  ``tau - m0 / r`` no cycle is positive (Bellman-Ford) and some cycle
  is tight (a cycle among the edges the longest-path potentials make
  tight).
* :func:`payload_bytes` renders an in-process compile the way the
  service sends it, so a served body can be compared with a fresh
  compile of the same request byte for byte.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

#: Kernel periods replayed after the longest prologue.
PERIODS = 4

Edge = Tuple[str, str, int, int]  # producer, consumer, tau(producer), m0


class CheckError(AssertionError):
    """An output the checker rejects."""


def net_edges(pn, latency: Optional[Callable[[str], int]] = None,
              self_loops: bool = True) -> List[Edge]:
    """One edge per place of ``pn`` (producer -> consumer, producer
    latency, initial tokens), plus the implicit one-token self-loop of
    every transition when ``self_loops``."""
    delay = latency if latency is not None else pn.durations.__getitem__
    edges: List[Edge] = []
    for place in pn.net.place_names:
        (producer,) = pn.net.input_transitions(place)
        (consumer,) = pn.net.output_transitions(place)
        edges.append((producer, consumer, delay(producer), pn.initial[place]))
    if self_loops:
        edges.extend(
            (t, t, delay(t), 1) for t in pn.net.transition_names
        )
    return edges


def replay(schedule, edges: Iterable[Edge], periods: int = PERIODS,
           capacity: Optional[int] = None) -> int:
    """Check every edge constraint over the first ``periods`` kernel
    periods after the longest prologue; returns the number of
    constraints checked."""
    instructions = set(schedule.instructions)
    prologue = Counter(op.instruction for op in schedule.prologue)
    horizon = (max(prologue.values(), default=0)
               + periods * schedule.iterations_per_kernel)
    starts: Dict[str, List[int]] = {}

    def start(t: str, k: int) -> int:
        if t not in starts:
            if t not in instructions:
                raise CheckError(f"transition {t!r} is not scheduled")
            starts[t] = [schedule.start_of(t, i) for i in range(horizon)]
        return starts[t][k]

    checked = 0
    for u, v, tau, m0 in edges:
        for k in range(m0, horizon):
            checked += 1
            if start(v, k) < start(u, k - m0) + tau:
                raise CheckError(
                    f"{v} iteration {k} starts at {start(v, k)}, before "
                    f"{u} iteration {k - m0} (at {start(u, k - m0)}) "
                    f"plus latency {tau}"
                )
    if capacity is not None:
        for t in instructions:
            start(t, 0)
        issued = Counter(s for times in starts.values() for s in times)
        cycle, count = max(issued.items(), key=lambda item: item[1])
        checked += len(issued)
        if count > capacity:
            raise CheckError(
                f"{count} instructions issue in cycle {cycle}; the "
                f"capacity is {capacity}"
            )
    return checked


def confirm_rate(edges: List[Edge], rate: Fraction) -> None:
    """Raise :class:`CheckError` unless ``rate`` is exactly the maximum
    computation rate the edges allow, ``min over cycles M(C) / tau(C)``.

    With the cycle time ``alpha = 1 / rate = a / b`` each edge weighs
    ``b * tau - a * m0`` (the weight ``tau - m0 * alpha`` scaled by
    ``b``): ``rate`` is achievable iff no cycle is positive, and no
    faster rate is iff some cycle weighs exactly zero.
    """
    if rate <= 0:
        raise CheckError(f"rate {rate} is not positive")
    alpha = 1 / Fraction(rate)
    a, b = alpha.numerator, alpha.denominator
    weighted = [(u, v, b * tau - a * m0) for u, v, tau, m0 in edges]
    nodes = {u for u, _, _ in weighted} | {v for _, v, _ in weighted}
    potential = {node: 0 for node in nodes}
    for _ in range(len(nodes) + 1):
        changed = False
        for u, v, w in weighted:
            if potential[u] + w > potential[v]:
                potential[v] = potential[u] + w
                changed = True
        if not changed:
            break
    else:
        raise CheckError(
            f"a cycle is faster than the reported rate {rate} allows"
        )
    # A zero-weight cycle is exactly a cycle of tight edges.
    tight = [(u, v) for u, v, w in weighted if potential[u] + w == potential[v]]
    indegree = Counter(v for _, v in tight)
    successors: Dict[str, List[str]] = {}
    for u, v in tight:
        successors.setdefault(u, []).append(v)
    ready = [node for node in nodes if indegree[node] == 0]
    removed = 0
    while ready:
        node = ready.pop()
        removed += 1
        for v in successors.get(node, ()):
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)
    if removed == len(nodes):
        raise CheckError(
            f"no cycle is tight at rate {rate}: the net runs faster"
        )


def check_compiled(compiled, kwargs: Mapping[str, object]) -> int:
    """Check one ``compile_loop`` result made from ``kwargs``; returns
    the number of schedule constraints replayed."""
    pn = compiled.pn
    edges = net_edges(pn)
    checked = replay(compiled.schedule, edges)
    confirm_rate(edges, compiled.rate)
    if compiled.schedule.rate != compiled.rate:
        raise CheckError(
            f"schedule rate {compiled.schedule.rate} is not the optimal "
            f"rate {compiled.rate}"
        )
    if compiled.achieved_rate != compiled.unroll * compiled.rate:
        raise CheckError(
            f"achieved rate {compiled.achieved_rate} is not "
            f"{compiled.unroll} x {compiled.rate}"
        )
    if kwargs.get("unroll") == "auto":
        from repro.core.sdsp_pn import build_sdsp_pn

        ack_free = build_sdsp_pn(
            compiled.translation.graph,
            include_acks=False,
            include_io=bool(kwargs.get("include_io", True)),
        )
        confirm_rate(net_edges(ack_free), compiled.achieved_rate)
    stages = kwargs.get("pipeline_stages")
    if stages is not None:
        scp_schedule = compiled.scp_schedule
        checked += replay(
            scp_schedule,
            net_edges(pn, latency=lambda t: stages, self_loops=False),
            capacity=1,
        )
        ceiling = min(compiled.rate, Fraction(1, len(pn.net.transition_names)))
        if scp_schedule.rate > ceiling:
            raise CheckError(
                f"SCP schedule rate {scp_schedule.rate} exceeds {ceiling}"
            )
    return checked


def passes(compiled, kwargs: Mapping[str, object], label: str) -> bool:
    """:func:`check_compiled` as a verdict; a rejection is reported on
    standard error."""
    try:
        check_compiled(compiled, kwargs)
    except CheckError as error:
        print(f"perfbench: {label}: {error}", file=sys.stderr)
        return False
    return True


def compile_kwargs(request: Mapping[str, object]) -> Dict[str, object]:
    """The ``compile_loop`` arguments of one ``POST /v1/compile`` body."""
    return {key: value for key, value in request.items() if key != "name"}


def payload_bytes(compiled) -> bytes:
    """The bytes the service and ``repro compile`` send for a result."""
    from repro.obs import stable_json

    text = stable_json(compiled.summary().payload(), indent=2) + "\n"
    return text.encode("utf-8")
