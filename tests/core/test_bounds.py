"""Theoretical and observed detection bounds (Sections 4 and 5)."""

import pytest

from repro.core import (
    SdspPetriNet,
    build_sdsp_pn,
    build_sdsp_scp_pn,
    critical_cycles,
    measure_detection,
    observed_bound_scp,
    observed_bound_sdsp,
    theoretical_bounds,
)
from repro.loops import KERNELS, parse_loop, translate
from repro.machine import FifoRunPlacePolicy
from repro.petrinet import MarkedGraphView, Marking
from repro.pipeline import compile_loop
from tests.petrinet.test_critical_graph import assert_matches_enumeration


def chain_source(n, recurrence):
    """``T_k = T_{k-1} + IN``; with ``recurrence`` the chain is closed
    by ``T_0`` reading ``T_{n-1}[i-1]``."""
    first = f"IN[i] + T{n - 1}[i-1]" if recurrence else "IN[i] + 1"
    lines = ["do chain:", f"  T0[i] = {first}"]
    lines += [f"  T{k}[i] = T{k - 1}[i] + IN[i]" for k in range(1, n)]
    return "\n".join(lines)


def dense_source(n):
    """``T_k = T_0 + ... + T_{k-1}``, ``T_0`` reading ``T_{n-1}[i-1]``:
    the number of simple cycles grows exponentially in ``n``."""
    lines = ["do dense:", f"  T0[i] = IN[i] + T{n - 1}[i-1]"]
    for k in range(1, n):
        lines.append(f"  T{k}[i] = " + " + ".join(f"T{j}[i]" for j in range(k)))
    return "\n".join(lines)


def scp_marked_graph(pn, stages=8):
    """The series-expanded SDSP-SCP-PN without its run place: a marked
    graph with unit issue times and ``stages - 1`` dummy delays."""
    scp = build_sdsp_scp_pn(pn, stages)
    net = scp.net.copy()
    net.remove_place(scp.run_place)
    marking = Marking(
        {p: c for p, c in scp.initial.items() if p != scp.run_place}
    )
    return MarkedGraphView(net, marking), scp.durations


def assert_pn_matches_enumeration(pn):
    _, oracle = assert_matches_enumeration(pn.view(), pn.durations)
    count = len(oracle.critical_cycles) + len(oracle.critical_self_loops)
    assert theoretical_bounds(pn).critical_cycle_count == count
    report = critical_cycles(pn)
    assert report.cycle_time == oracle.cycle_time
    assert report.critical_cycles == oracle.critical_cycles
    assert report.critical_self_loops == oracle.critical_self_loops


class TestTheoreticalBounds:
    def test_single_critical_cycle_case(self, l2_pn_abstract):
        bounds = theoretical_bounds(l2_pn_abstract)
        # L2 has the unique critical cycle CDEC
        assert bounds.case == "single"
        assert bounds.iteration_bound == bounds.n**3
        assert bounds.step_bound == bounds.n**4
        assert bounds.covers_all_transitions

    def test_multiple_critical_cycles_case(self, l1_pn_abstract):
        bounds = theoretical_bounds(l1_pn_abstract)
        # every data/ack pair of L1 is a critical 2-cycle
        assert bounds.case == "multiple"
        assert bounds.iteration_bound == bounds.n**2
        assert bounds.step_bound == bounds.n**3
        assert not bounds.covers_all_transitions

    def test_observed_bound_formulas(self):
        assert observed_bound_sdsp(10) == 20
        assert observed_bound_scp(10, 8, 5) == 2 * 8 * 5 + 40


class TestMeasurement:
    @pytest.mark.parametrize("key", sorted(KERNELS))
    def test_detection_within_2n_paper_claim(self, key):
        """Section 5: 'in each example the repeated instantaneous state
        is found within 2n time steps' — the headline O(n) result."""
        pn = build_sdsp_pn(KERNELS[key].translation().graph)
        measurement, frustum = measure_detection(pn)
        assert measurement.within_observed_bound, (
            f"{key}: repeat {measurement.repeat_time} > "
            f"BD {measurement.observed_bound}"
        )
        assert measurement.repeat_time <= measurement.step_bound_theory

    @pytest.mark.parametrize("key", ["loop1", "loop5", "loop7", "loop12"])
    def test_scp_detection_within_calibrated_bound(self, key):
        pn = build_sdsp_pn(KERNELS[key].translation().graph)
        scp = build_sdsp_scp_pn(pn, stages=8)
        policy = FifoRunPlacePolicy(
            scp.net, scp.run_place, scp.priority_order()
        )
        measurement, _ = measure_detection(pn, policy=policy, scp=scp)
        assert measurement.within_observed_bound

    def test_measurement_fields(self, l1_pn_abstract):
        measurement, frustum = measure_detection(l1_pn_abstract)
        assert measurement.n == 5
        assert measurement.frustum_length == frustum.length
        assert measurement.repeat_time == frustum.repeat_time
        from fractions import Fraction

        assert measurement.steps_per_n == Fraction(measurement.repeat_time, 5)


class TestCriticalGraphAgainstEnumeration:
    """The critical-cycle count Theorems 4.1/4.2 need, read off Howard's
    critical graph, equals exhaustive enumeration's."""

    @pytest.mark.parametrize("key", sorted(KERNELS))
    @pytest.mark.parametrize("include_io", [True, False], ids=["acode", "abstract"])
    def test_livermore(self, key, include_io):
        pn = build_sdsp_pn(
            KERNELS[key].translation().graph, include_io=include_io
        )
        assert_pn_matches_enumeration(pn)

    @pytest.mark.parametrize("key", sorted(KERNELS))
    def test_livermore_scp(self, key):
        pn = build_sdsp_pn(KERNELS[key].translation().graph)
        assert_matches_enumeration(*scp_marked_graph(pn))

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_dense_family(self, n):
        pn = build_sdsp_pn(translate(parse_loop(dense_source(n))).graph)
        assert_pn_matches_enumeration(pn)

    def test_howard_runs_once_per_net(self, monkeypatch):
        """``optimal_rate`` and ``theoretical_bounds`` share one run."""
        import repro.petrinet.howard as howard

        nets = []
        original = howard.howard_analysis

        def recording(view, durations):
            nets.append(view.net)
            return original(view, durations)

        monkeypatch.setattr(howard, "howard_analysis", recording)
        result = compile_loop(chain_source(8, recurrence=True))
        assert sum(net is result.pn.net for net in nets) == 1


@pytest.fixture
def no_full_enumeration(monkeypatch):
    """Fail on any enumeration of every simple cycle of an SDSP-PN's
    full view; enumerating a subnet (the critical graph) is allowed."""
    full_nets = []
    view = SdspPetriNet.view
    simple_cycles = MarkedGraphView.simple_cycles

    def tracked_view(self):
        full_nets.append(self.net)
        return view(self)

    def guarded_simple_cycles(self):
        if any(self.net is net for net in full_nets):
            raise AssertionError(
                f"enumerated every simple cycle of net {self.net.name!r}"
            )
        return simple_cycles(self)

    monkeypatch.setattr(SdspPetriNet, "view", tracked_view)
    monkeypatch.setattr(MarkedGraphView, "simple_cycles", guarded_simple_cycles)


@pytest.mark.usefixtures("no_full_enumeration")
class TestCompileNeverEnumeratesTheFullNet:
    """Compiles whose full nets are out of reach for enumeration (the
    dense body at n = 10 has tens of thousands of simple cycles and
    took minutes to classify) finish in well under a second."""

    def test_dense_ten(self):
        result = compile_loop(dense_source(10))
        assert result.bounds.critical_cycle_count == 128
        assert result.bounds.n == 49
        assert result.bounds.case == "multiple"

    def test_recurrence_chain_256(self):
        result = compile_loop(chain_source(256, recurrence=True))
        assert result.bounds.critical_cycle_count == 1
        assert result.bounds.case == "single"
