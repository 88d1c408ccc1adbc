"""Howard's critical graph against the enumeration oracle: the same
cycle time, the same sorted critical cycles and the same critical
self-loops as :func:`critical_cycle_report`, on hand-built corner cases
and on random live marked graphs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.petrinet import (
    Marking,
    MarkedGraphView,
    PetriNet,
    critical_cycle_report,
    howard_analysis,
)


def assert_matches_enumeration(view, durations):
    """Howard's critical graph yields exactly the oracle's answer;
    returns both."""
    result = howard_analysis(view, durations)
    oracle = critical_cycle_report(view, durations)
    assert result.cycle_time == oracle.cycle_time
    assert result.critical_cycles(view) == oracle.critical_cycles
    assert list(result.critical_self_loops) == oracle.critical_self_loops
    on_critical_cycles = {
        place for cycle in oracle.critical_cycles for place in cycle.places
    }
    assert set(result.critical_places) == on_critical_cycles
    return result, oracle


def build(places, durations):
    """A marked graph from ``{place: (producer, consumer, tokens)}``."""
    net = PetriNet("critical")
    for transition in durations:
        net.add_transition(transition)
    tokens = {}
    for place, (producer, consumer, count) in places.items():
        net.add_place(place)
        net.add_arc(producer, place)
        net.add_arc(place, consumer)
        tokens[place] = count
    return MarkedGraphView(net, Marking(tokens))


class TestCornerCases:
    def test_parallel_places_and_structural_self_loop_place(self):
        # a -> b over three parallel places, two of them token-free;
        # b -> b is a place of its own.  Ring ratio (2+2)/2 = 2 through
        # x1 or x2, 4/3 through x3; the place s gives 2/1; both implicit
        # self-loops give 2.
        durations = {"a": 2, "b": 2}
        view = build(
            {
                "x1": ("a", "b", 0),
                "x2": ("a", "b", 0),
                "x3": ("a", "b", 1),
                "y": ("b", "a", 2),
                "s": ("b", "b", 1),
            },
            durations,
        )
        result, _ = assert_matches_enumeration(view, durations)
        assert result.cycle_time == 2
        assert [c.places for c in result.critical_cycles(view)] == [
            ("x1", "y"),
            ("x2", "y"),
            ("s",),
        ]
        assert result.critical_self_loops == ("a", "b")
        assert "x3" not in result.critical_places

    def test_self_loop_ties_the_cycle_time(self):
        # ring a -> b -> a: (1+1)/1 = 2 = τ(c); the ring through c
        # gives (1+2)/2.
        durations = {"a": 1, "b": 1, "c": 2}
        view = build(
            {"p": ("a", "b", 0), "q": ("b", "a", 1), "r": ("a", "c", 1),
             "s": ("c", "a", 1)},
            durations,
        )
        result, _ = assert_matches_enumeration(view, durations)
        assert [c.transitions for c in result.critical_cycles(view)] == [
            ("a", "b")
        ]
        assert result.critical_self_loops == ("c",)

    def test_only_a_self_loop_is_critical(self):
        durations = {"a": 5, "b": 1}
        view = build(
            {"p": ("a", "b", 1), "q": ("b", "a", 1)}, durations
        )
        result, _ = assert_matches_enumeration(view, durations)
        assert result.critical_places == ()
        assert result.critical_cycles(view) == []
        assert result.critical_self_loops == ("a",)


@st.composite
def live_marked_graphs(draw):
    """A random live timed marked graph.

    Transitions get a random topological rank; a place running forward
    in rank may be empty, one running backwards (or a self-loop place)
    carries at least one token, so every cycle holds a token.  Parallel
    places and self-loop places are allowed."""
    size = draw(st.integers(1, 6))
    names = draw(st.permutations([f"t{i}" for i in range(size)]))
    edges = [(i, (i + 1) % size) for i in range(size)]
    edges += draw(
        st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
            max_size=2 * size,
        )
    )
    places = {}
    for index, (i, j) in enumerate(edges):
        low = 0 if i < j else 1
        places[f"p{index}"] = (names[i], names[j], draw(st.integers(low, 2)))
    durations = {name: draw(st.integers(1, 4)) for name in names}
    return build(places, durations), durations


class TestRandomLiveMarkedGraphs:
    @given(live_marked_graphs())
    @settings(max_examples=150, deadline=None)
    def test_critical_graph_equals_enumeration(self, case):
        view, durations = case
        assert_matches_enumeration(view, durations)
