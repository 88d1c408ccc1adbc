"""Howard's policy iteration for the maximum cycle ratio (cycle time).

The cycle time of a live timed marked graph,

    alpha = max over simple cycles C of  Ω(C) / M(C),

is the max-plus spectral radius of the transition digraph in which each
place becomes an edge ``producer → consumer`` with *weight* the
producer's execution time and *height* the place's initial token count
(plus, per Assumption A.6.1, one implicit self-loop of weight ``τ(t)``
and height 1 per transition).  Enumeration
(:func:`repro.petrinet.analysis.cycle_time_by_enumeration`) is
exponential in general and Lawler's parametric search re-runs
Bellman–Ford per probe; Howard's policy iteration computes the same
value in near-linear practical time (Cochet-Terrasson et al.; the same
lever used by the max-plus scheduling literature, e.g. Zorzenon et al.
2022 and Millo & de Simone 2012), which is why
:func:`repro.core.rate.optimal_rate` routes through it.

The iteration maintains a *policy* — one outgoing edge per node — whose
one-cycle-per-component functional graph is evaluated exactly
(:class:`fractions.Fraction` arithmetic, no floats), then improved
first by gain (reach a larger cycle ratio) and then by bias.  At
convergence the optimality inequalities hold for **every** edge, which
telescopes into a machine-checked proof that no cycle beats the answer,
and the final policy graph contains a witness cycle attaining it.  The
places those inequalities hold with equality form the *critical graph*
(:attr:`HowardResult.critical_places`): its cycles are exactly the
critical cycles, so Theorems 4.1/4.2's single-vs-multiple question is
answered by enumerating that small graph, never the whole net.

>>> from repro.loops import parse_loop, translate
>>> from repro.core import build_sdsp_pn
>>> pn = build_sdsp_pn(translate(parse_loop(
...     "do tiny:\\n  A[i] = A[i-1] + IN[i]")).graph, include_io=False)
>>> result = howard_analysis(pn.view(), pn.durations)
>>> result.cycle_time
Fraction(1, 1)
>>> cycle_time_howard(pn.view(), pn.durations) == result.cycle_time
True
>>> [c.transitions for c in result.critical_cycles(pn.view())]
[('A',)]
>>> result.critical_self_loops
('A',)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

import networkx as nx

from ..errors import AnalysisError
from .marked_graph import MarkedGraphView, SimpleCycle

__all__ = ["HowardResult", "howard_analysis", "cycle_time_howard"]


@dataclass(frozen=True)
class _Edge:
    """One out-edge of the transition digraph: follow ``place`` (or the
    implicit self-loop when ``place`` is None) to ``target``, paying
    ``weight`` execution time over ``height`` tokens."""

    target: str
    weight: int
    height: int
    place: Optional[str]


@dataclass(frozen=True)
class HowardResult:
    """The converged answer with its witness.

    ``critical_cycle`` is a structural simple cycle attaining the cycle
    time, canonically rotated like
    :meth:`~repro.petrinet.marked_graph.MarkedGraphView.simple_cycles`;
    it is ``None`` when the maximum is attained only by an implicit
    self-loop, in which case ``critical_self_loop`` names the slow
    transition.  ``iterations`` counts policy-improvement rounds.

    ``critical_places`` is the *critical graph* the converged policy
    proves, sorted.  Call a place ``u → v`` *tight* when
    ``λ(u) = λ(v) = α`` and ``v(u) = τ(u) − α·M(p) + v(v)``.  At
    convergence every place within the ``α`` class satisfies
    ``v(u) ≥ τ(u) − α·M(p) + v(v)``, so summing around a cycle shows it
    is critical exactly when all its places are tight; the critical
    graph keeps the tight places that lie on a cycle of tight places.
    Every cycle of the critical graph is critical and every critical
    cycle lies in it.  ``critical_self_loops`` lists the
    transitions (in net order) whose implicit self-loop is critical,
    ``τ(t) = α``.
    """

    cycle_time: Fraction
    critical_cycle: Optional[SimpleCycle]
    critical_self_loop: Optional[str]
    iterations: int
    critical_places: Tuple[str, ...]
    critical_self_loops: Tuple[str, ...]

    @property
    def computation_rate(self) -> Fraction:
        return 1 / self.cycle_time

    def critical_cycles(self, view: MarkedGraphView) -> List[SimpleCycle]:
        """Every critical simple cycle of ``view`` (the view this result
        was computed on), sorted and canonically rotated exactly like
        :meth:`~repro.petrinet.marked_graph.MarkedGraphView.simple_cycles`.

        Only the critical graph is enumerated, never the whole net."""
        return view.restrict(self.critical_places).simple_cycles()


def _build_edges(
    view: MarkedGraphView, durations: Mapping[str, int]
) -> Dict[str, List[_Edge]]:
    net = view.net
    initial = view.initial
    out: Dict[str, List[_Edge]] = {t: [] for t in net.transition_names}
    for place in net.place_names:
        (producer,) = net.input_transitions(place)
        (consumer,) = net.output_transitions(place)
        out[producer].append(
            _Edge(consumer, durations[producer], initial[place], place)
        )
    for transition in net.transition_names:
        out[transition].append(
            _Edge(transition, durations[transition], 1, None)
        )
    # Deterministic edge order (place name; self-loop last) so the
    # converged policy — and hence the reported witness — is stable
    # across processes and hash seeds.
    for transition in out:
        out[transition].sort(key=lambda e: (e.place is None, e.place or ""))
    return out


def _evaluate(
    nodes: Tuple[str, ...], policy: Dict[str, _Edge]
) -> Tuple[Dict[str, Fraction], Dict[str, Fraction]]:
    """Exact multichain policy evaluation.

    The policy graph is functional (one successor per node), so every
    node leads to exactly one cycle.  Each cycle gets gain
    ``λ = Σ weight / Σ height``; values satisfy
    ``v(u) = w(u) − λ·h(u) + v(next(u))`` with the cycle's first
    discovered node anchored at 0.
    """
    lam: Dict[str, Fraction] = {}
    val: Dict[str, Fraction] = {}
    state: Dict[str, int] = {node: 0 for node in nodes}  # 0 new, 1 open, 2 done
    for start in nodes:
        if state[start] == 2:
            continue
        path: List[str] = []
        node = start
        while state[node] == 0:
            state[node] = 1
            path.append(node)
            node = policy[node].target
        if state[node] == 1:
            # Discovered a new policy cycle: path[index:] closes at node.
            index = path.index(node)
            cycle = path[index:]
            weight = sum(policy[u].weight for u in cycle)
            height = sum(policy[u].height for u in cycle)
            if height == 0:  # pragma: no cover - liveness checked up front
                raise AnalysisError(
                    "policy cycle through "
                    + " -> ".join(cycle)
                    + " carries no token: the net is not live"
                )
            gain = Fraction(weight, height)
            anchor = cycle[0]
            lam[anchor] = gain
            val[anchor] = Fraction(0)
            state[anchor] = 2
            for u in reversed(cycle[1:]):
                edge = policy[u]
                lam[u] = gain
                val[u] = edge.weight - gain * edge.height + val[edge.target]
                state[u] = 2
        # Unwind the tail (and any prefix before the cycle): each node's
        # gain/value follow from its successor's.
        for u in reversed(path):
            if state[u] == 2:
                continue
            edge = policy[u]
            lam[u] = lam[edge.target]
            val[u] = edge.weight - lam[u] * edge.height + val[edge.target]
            state[u] = 2
    return lam, val


def howard_analysis(
    view: MarkedGraphView, durations: Mapping[str, int]
) -> HowardResult:
    """Maximum cycle ratio of a live timed marked graph by policy
    iteration, with a witness critical cycle (or self-loop)."""
    nodes = tuple(view.net.transition_names)
    if not nodes:
        raise AnalysisError("net has no transitions; cycle time undefined")
    # A token-free cycle has no finite cycle time; reject it up front.
    dead = view.token_free_cycle()
    if dead is not None:
        raise AnalysisError(
            "cycle through "
            + " -> ".join(dead)
            + " carries no token: the net is not live and has no cycle time"
        )
    out_edges = _build_edges(view, durations)
    # Start from the always-present self-loops: a valid policy whose
    # evaluation (λ(t) = τ(t)) is the paper's self-loop floor.
    policy: Dict[str, _Edge] = {u: out_edges[u][-1] for u in nodes}

    iterations = 0
    limit = 16 + 4 * len(nodes) * sum(len(e) for e in out_edges.values())
    while True:
        iterations += 1
        if iterations > limit:  # pragma: no cover - defensive
            raise AnalysisError(
                "Howard policy iteration failed to converge within "
                f"{limit} rounds"
            )
        lam, val = _evaluate(nodes, policy)
        # Gain improvement: move to a strictly larger reachable ratio.
        changed = False
        for u in nodes:
            best = policy[u]
            best_gain = lam[u]
            for edge in out_edges[u]:
                if lam[edge.target] > best_gain:
                    best, best_gain = edge, lam[edge.target]
            if best_gain > lam[u]:
                policy[u] = best
                changed = True
        if changed:
            continue
        # Bias improvement among equal-gain edges.
        for u in nodes:
            gain = lam[u]
            best_val = val[u]
            best = None
            for edge in out_edges[u]:
                if lam[edge.target] != gain:
                    continue
                candidate = edge.weight - gain * edge.height + val[edge.target]
                if candidate > best_val:
                    best, best_val = edge, candidate
            if best is not None:
                policy[u] = best
                changed = True
        if not changed:
            break

    alpha = max(lam.values())
    witness_cycle, witness_loop = _extract_witness(nodes, policy, lam, alpha)
    critical_places = _critical_places(nodes, out_edges, lam, val, alpha)
    critical_self_loops = tuple(u for u in nodes if durations[u] == alpha)
    return HowardResult(
        alpha,
        witness_cycle,
        witness_loop,
        iterations,
        critical_places,
        critical_self_loops,
    )


def _critical_places(
    nodes: Tuple[str, ...],
    out_edges: Dict[str, List[_Edge]],
    lam: Dict[str, Fraction],
    val: Dict[str, Fraction],
    alpha: Fraction,
) -> Tuple[str, ...]:
    """The places of the critical graph, sorted.

    A place is *tight* when both ends have gain ``alpha`` and it meets
    its optimality inequality with equality.  Every cycle of tight
    places is critical, but tight places also lead into critical cycles
    (the policy's own tree edges are tight), so only those inside a
    strongly connected component of the tight graph are kept — exactly
    the places on some critical cycle."""
    tight = nx.MultiDiGraph()
    for u in nodes:
        if lam[u] != alpha:
            continue
        for edge in out_edges[u]:
            if (
                edge.place is not None
                and lam[edge.target] == alpha
                and val[u]
                == edge.weight - alpha * edge.height + val[edge.target]
            ):
                tight.add_edge(u, edge.target, key=edge.place)
    component = {}
    for index, members in enumerate(nx.strongly_connected_components(tight)):
        for node in members:
            component[node] = index
    return tuple(sorted(
        place
        for u, v, place in tight.edges(keys=True)
        if component[u] == component[v]
    ))


def _extract_witness(
    nodes: Tuple[str, ...],
    policy: Dict[str, _Edge],
    lam: Dict[str, Fraction],
    alpha: Fraction,
) -> Tuple[Optional[SimpleCycle], Optional[str]]:
    """Walk the converged policy from the smallest-named optimal node to
    its cycle; that cycle's ratio equals its nodes' gain, i.e. alpha."""
    start = min(u for u in nodes if lam[u] == alpha)
    seen: Dict[str, int] = {}
    path: List[str] = []
    node = start
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = policy[node].target
    cycle = path[seen[node]:]
    if len(cycle) == 1 and policy[cycle[0]].place is None:
        return None, cycle[0]
    places = [policy[u].place for u in cycle]
    rotate = min(range(len(cycle)), key=cycle.__getitem__)
    transitions = tuple(cycle[rotate:]) + tuple(cycle[:rotate])
    rotated_places = tuple(places[rotate:]) + tuple(places[:rotate])
    return SimpleCycle(transitions, rotated_places), None


def cycle_time_howard(
    view: MarkedGraphView, durations: Mapping[str, int]
) -> Fraction:
    """Cycle time ``alpha`` by Howard's policy iteration (exact)."""
    return howard_analysis(view, durations).cycle_time
