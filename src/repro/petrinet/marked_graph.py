"""Marked graphs (event graphs) — the net class the paper's theory uses.

A Petri net is a *marked graph* iff every place has exactly one input
and one output transition (Definition A.5.1).  Marked graphs are
persistent by construction and admit sharp structural characterisations
of liveness and safety (Theorems A.5.1/A.5.2), which this module
implements directly on cycles — no state-space exploration required.

A marked graph is conveniently viewed as a digraph over transitions in
which each place becomes an edge from its producer to its consumer,
labelled with its initial token count; simple cycles of that digraph
are in bijection with the simple cycles of the net (paper footnote 8/9:
directed paths where all nodes are distinct except the endpoints).

>>> from repro.petrinet import PetriNet, Marking
>>> net = PetriNet(name="ring")
>>> for t in ("a", "b"):
...     _ = net.add_transition(t)
>>> for place, (src, dst) in [("p", ("a", "b")), ("q", ("b", "a"))]:
...     _ = net.add_place(place)
...     _ = net.add_arc(src, place)
...     _ = net.add_arc(place, dst)
>>> view = MarkedGraphView(net, Marking({"p": 1}))
>>> [cycle.transitions for cycle in view.simple_cycles()]
[('a', 'b')]
>>> view.simple_cycles()[0].token_sum(Marking({"p": 1}))
1
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import networkx as nx

from ..errors import NotAMarkedGraphError
from .marking import Marking
from .net import PetriNet

__all__ = [
    "SimpleCycle",
    "MarkedGraphView",
    "require_marked_graph",
]


def require_marked_graph(net: PetriNet) -> None:
    """Raise :class:`NotAMarkedGraphError` unless ``net`` is a marked
    graph, naming an offending place for diagnosis."""
    for place in net.place_names:
        producers = net.input_transitions(place)
        consumers = net.output_transitions(place)
        if len(producers) != 1 or len(consumers) != 1:
            raise NotAMarkedGraphError(
                f"place {place!r} has {len(producers)} producers and "
                f"{len(consumers)} consumers; a marked graph requires "
                "exactly one of each"
            )


@dataclass(frozen=True)
class SimpleCycle:
    """A simple cycle of a marked graph.

    ``transitions`` lists the transitions in cycle order;
    ``places[i]`` is the place on the edge from ``transitions[i]`` to
    ``transitions[(i+1) % len]``.
    """

    transitions: Tuple[str, ...]
    places: Tuple[str, ...]

    def token_sum(self, marking: Marking) -> int:
        """``M(C)``: initial tokens summed over the cycle's places."""
        return sum(marking[p] for p in self.places)

    def value_sum(self, durations: Mapping[str, int]) -> int:
        """``Ω(C)``: execution times summed over the cycle's
        transitions."""
        return sum(durations[t] for t in self.transitions)

    def cycle_time(self, marking: Marking, durations: Mapping[str, int]) -> Fraction:
        """``Ω(C) / M(C)`` — infinite token-free cycles are rejected by
        the caller (they mean deadlock)."""
        tokens = self.token_sum(marking)
        if tokens == 0:
            raise ZeroDivisionError("token-free cycle has no finite cycle time")
        return Fraction(self.value_sum(durations), tokens)

    def balancing_ratio(self, marking: Marking) -> Fraction:
        """``M(C) / |C|`` — Section 6's balancing ratio, with ``|C|`` the
        number of transitions on the cycle (unit execution times)."""
        return Fraction(self.token_sum(marking), len(self.transitions))

    def __len__(self) -> int:
        return len(self.transitions)


class MarkedGraphView:
    """Cycle-level analysis of a marked graph with an initial marking.

    The view caches the transition-level digraph and the simple-cycle
    enumeration.  All of Theorems A.5.1–A.5.3 are available as methods.
    """

    def __init__(self, net: PetriNet, initial: Marking) -> None:
        require_marked_graph(net)
        self.net = net
        self.initial = initial
        self._digraph: Optional[nx.MultiDiGraph] = None
        self._cycles: Optional[List[SimpleCycle]] = None

    # ------------------------------------------------------------------
    # Underlying digraph
    # ------------------------------------------------------------------
    def digraph(self) -> nx.MultiDiGraph:
        """Transitions as nodes; one edge per place (producer →
        consumer), keyed by the place name and labelled with its initial
        token count."""
        if self._digraph is None:
            graph = nx.MultiDiGraph()
            graph.add_nodes_from(self.net.transition_names)
            for place in self.net.place_names:
                (producer,) = self.net.input_transitions(place)
                (consumer,) = self.net.output_transitions(place)
                graph.add_edge(
                    producer,
                    consumer,
                    key=place,
                    tokens=self.initial[place],
                )
            self._digraph = graph
        return self._digraph

    # ------------------------------------------------------------------
    # Cycle enumeration
    # ------------------------------------------------------------------
    def simple_cycles(self) -> List[SimpleCycle]:
        """All simple cycles (node-simple, per the paper's footnote), as
        :class:`SimpleCycle` records.

        Parallel places between the same pair of transitions yield one
        cycle per place choice, as they should: each corresponds to a
        distinct simple cycle of the net.
        """
        if self._cycles is not None:
            return self._cycles
        graph = self.digraph()
        cycles: List[SimpleCycle] = []
        for node_cycle in nx.simple_cycles(nx.DiGraph(graph)):
            cycles.extend(self._expand_parallel_places(node_cycle))
        # networkx yields cycles in hash order; sort canonicalized
        # cycles so reports, ledgers and goldens are reproducible
        # across processes and PYTHONHASHSEED values.
        cycles.sort(key=lambda c: (c.transitions, c.places))
        self._cycles = cycles
        return cycles

    def _expand_parallel_places(self, node_cycle: Sequence[str]) -> List[SimpleCycle]:
        """Turn a node cycle into all place-labelled cycles it induces
        (cartesian product over parallel places on each hop), rotated to
        the canonical start (the lexicographically smallest transition)
        so the same cycle always prints the same way."""
        graph = self.digraph()
        hops: List[List[str]] = []
        size = len(node_cycle)
        for i in range(size):
            u = node_cycle[i]
            v = node_cycle[(i + 1) % size]
            hops.append(sorted(graph[u][v].keys()))
        combos: List[List[str]] = [[]]
        for options in hops:
            combos = [prefix + [choice] for prefix in combos for choice in options]
        start = min(range(size), key=node_cycle.__getitem__)
        rotated = tuple(node_cycle[start:]) + tuple(node_cycle[:start])
        return [
            SimpleCycle(rotated, tuple(combo[start:] + combo[:start]))
            for combo in combos
        ]

    # ------------------------------------------------------------------
    # Subnets
    # ------------------------------------------------------------------
    def restrict(self, places: Iterable[str]) -> "MarkedGraphView":
        """The view of the subnet keeping only ``places`` (and the
        transitions they join), with their initial tokens.

        Its simple cycles are exactly this view's simple cycles that use
        only the kept places, so enumerating a small subnet (the
        zero-token places, or the critical graph of
        :func:`~repro.petrinet.howard.howard_analysis`) never touches
        the rest of the net.
        """
        net = self.net
        sub = PetriNet(name=f"{net.name}-sub")
        tokens: Dict[str, int] = {}
        for place in places:
            (producer,) = net.input_transitions(place)
            (consumer,) = net.output_transitions(place)
            for transition in (producer, consumer):
                if not sub.has_transition(transition):
                    sub.add_transition(
                        transition, net.transition(transition).annotation
                    )
            sub.add_place(place, net.place(place).annotation)
            sub.add_arc(producer, place)
            sub.add_arc(place, consumer)
            if self.initial[place]:
                tokens[place] = self.initial[place]
        return MarkedGraphView(sub, Marking(tokens))

    def _token_free_places(self) -> List[str]:
        return [p for p in self.net.place_names if self.initial[p] == 0]

    def token_free_cycle(self) -> Optional[List[str]]:
        """One cycle carrying no token, as its transitions in order, or
        None when the net is live.  A cycle all of whose places are
        empty is a cycle of the zero-token edge subgraph, so this is an
        O(P + T) search with no cycle enumeration."""
        zero = nx.DiGraph()
        zero.add_nodes_from(self.net.transition_names)
        for place in self._token_free_places():
            (producer,) = self.net.input_transitions(place)
            (consumer,) = self.net.output_transitions(place)
            zero.add_edge(producer, consumer)
        try:
            cycle_edges = nx.find_cycle(zero)
        except nx.NetworkXNoCycle:
            return None
        return [edge[0] for edge in cycle_edges]

    # ------------------------------------------------------------------
    # Theorems A.5.1 – A.5.3
    # ------------------------------------------------------------------
    def is_live(self) -> bool:
        """Theorem A.5.1: live iff every simple cycle carries a token."""
        return self.token_free_cycle() is None

    def token_free_cycles(self) -> List[SimpleCycle]:
        """Witnesses against liveness (empty when live): the simple
        cycles of the zero-token subnet."""
        return self.restrict(self._token_free_places()).simple_cycles()

    def is_safe(self) -> bool:
        """Theorem A.5.2 (for a live marking): safe iff every place lies
        on some simple cycle with token count exactly 1."""
        covered = set()
        for cycle in self.simple_cycles():
            if cycle.token_sum(self.initial) == 1:
                covered.update(cycle.places)
        return covered >= set(self.net.place_names)

    def unsafe_places(self) -> List[str]:
        """Places not covered by any token-1 simple cycle."""
        covered = set()
        for cycle in self.simple_cycles():
            if cycle.token_sum(self.initial) == 1:
                covered.update(cycle.places)
        return [p for p in self.net.place_names if p not in covered]

    def token_count_invariant(self, marking: Marking) -> bool:
        """The token count of every simple cycle is a firing invariant
        (Appendix A.7); this checks ``marking`` agrees with the initial
        marking on every cycle — useful as a simulator sanity oracle."""
        return all(
            c.token_sum(marking) == c.token_sum(self.initial)
            for c in self.simple_cycles()
        )

    def is_strongly_connected(self) -> bool:
        """Strong connectivity of the transition digraph; steady-state
        equivalent nets are strongly connected by construction."""
        graph = nx.DiGraph(self.digraph())
        if graph.number_of_nodes() == 0:
            return True
        return nx.is_strongly_connected(graph)
