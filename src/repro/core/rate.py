"""Computation rates (Appendix A.7, Theorem 5.2.2, Section 6).

The *computation rate* of a transition is its average firings per time
unit; for a live timed marked graph every transition shares the same
rate, the reciprocal of the cycle time::

    gamma = min over simple cycles C of  M(C) / Ω(C)

This is **time-optimal**: no machine model can do better, and an ideal
machine (unbounded parallelism, earliest firing) achieves it.  For the
SDSP-SCP-PN the single issue slot adds the resource bound of
Theorem 5.2.2: no instruction can fire more often than ``1/n``.

>>> from repro.loops import parse_loop, translate
>>> from repro.core import build_sdsp_pn
>>> pn = build_sdsp_pn(translate(parse_loop(
...     "do tiny:\\n  A[i] = A[i-1] + IN[i]")).graph, include_io=False)
>>> optimal_rate(pn)             # one-cycle recurrence: rate 1
Fraction(1, 1)
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ..errors import AnalysisError
from ..obs.metrics import timed
from ..petrinet.analysis import CriticalCycleReport
from ..petrinet.behavior import CyclicFrustum
from ..petrinet.howard import cycle_time_howard
from .scp import SdspScpNet
from .sdsp_pn import SdspPetriNet, build_sdsp_pn

__all__ = [
    "optimal_rate",
    "critical_cycles",
    "scp_rate_upper_bound",
    "dependence_cycle_time",
    "dependence_bound_rate",
    "frustum_rate",
    "pipeline_utilization",
]


@timed("core.critical_cycles")
def critical_cycles(pn: SdspPetriNet) -> CriticalCycleReport:
    """Critical-cycle analysis of an SDSP-PN: the cycle time, every
    critical cycle (sorted and canonically rotated like
    :meth:`~repro.petrinet.marked_graph.MarkedGraphView.simple_cycles`)
    and the critical self-loops.

    Everything comes from the net's one Howard run
    (:meth:`~repro.core.sdsp_pn.SdspPetriNet.howard`): the cycles are
    enumerated inside its critical graph only, so the cost follows the
    number of critical cycles, not of all cycles.  The report carries
    no per-cycle ``metrics``; exhaustive enumeration
    (:func:`~repro.petrinet.analysis.critical_cycle_report`) is the
    test oracle it is checked against.
    """
    howard = pn.howard()
    return CriticalCycleReport(
        cycle_time=howard.cycle_time,
        metrics=None,
        critical_cycles=howard.critical_cycles(pn.view()),
        critical_self_loops=list(howard.critical_self_loops),
    )


@timed("core.optimal_rate")
def optimal_rate(pn: SdspPetriNet) -> Fraction:
    """The time-optimal computation rate ``γ`` of the loop: the hard
    upper bound the critical cycles impose on any schedule.

    Computed as ``1 / α`` with the cycle time ``α`` from Howard's
    policy iteration (:mod:`repro.petrinet.howard`) — exact
    :class:`~fractions.Fraction` arithmetic, near-linear practical
    time, no cycle enumeration.  The run is memoised on ``pn`` and
    shared with :func:`~repro.core.bounds.theoretical_bounds`."""
    return 1 / pn.howard().cycle_time


@timed("core.dependence_cycle_time")
def dependence_cycle_time(source, include_io: bool = True,
                          durations=None) -> Fraction:
    """Cycle time of the *dependence subnet*: data places only, the
    acknowledgement discipline stripped.

    Howard's policy iteration models non-reentrance as an implicit
    self-loop of weight ``τ(t)`` and height 1 per transition, so the
    analysis stays well-defined even when the data arcs alone are
    acyclic (a DOALL body): the answer is then just ``max τ``.  For a
    loop-carried body it is the classic recurrence bound
    ``max over data cycles of Ω(C)/M(C)``.

    ``source`` is an :class:`~repro.core.sdsp.Sdsp` or a raw
    :class:`~repro.dataflow.graph.DataflowGraph` (validated on the way
    in), mirroring :func:`~repro.core.sdsp_pn.build_sdsp_pn`.
    """
    pn = build_sdsp_pn(
        source,
        durations=durations,
        include_acks=False,
        include_io=include_io,
    )
    return cycle_time_howard(pn.view(), pn.durations)


def dependence_bound_rate(source, include_io: bool = True,
                          durations=None) -> Fraction:
    """The dependence bound ``γ* = 1 / dependence_cycle_time``: the
    hard per-base-instruction rate ceiling the loop-carried dependences
    impose, independent of any buffering discipline.  This is the rate
    the unrolled loop closes on (``compile_loop(..., unroll="auto")``
    picks the smallest factor that reaches it exactly)."""
    return 1 / dependence_cycle_time(
        source, include_io=include_io, durations=durations
    )


def scp_rate_upper_bound(scp: SdspScpNet) -> Fraction:
    """Theorem 5.2.2: with ``n`` instructions sharing one clean
    pipeline, no instruction's rate can exceed ``1/n`` — one issue slot
    per cycle divided among ``n`` instructions per iteration.  This
    bound is independent of the conflict-resolution policy."""
    return Fraction(1, scp.size)


def frustum_rate(frustum: CyclicFrustum, instruction: str) -> Fraction:
    """Measured steady-state rate of one instruction (the Tables 1/2
    *computation rate* column): frustum firing count over frustum
    length.

    Analysis-path failures surface as :class:`~repro.errors.
    AnalysisError`: an empty frustum has no steady state to measure,
    and an instruction the frustum never recorded is a caller bug (the
    old behavior silently reported rate 0 for a typo'd name).
    """
    if frustum.length == 0:
        raise AnalysisError(
            f"cannot measure the rate of {instruction!r}: the frustum "
            "is empty (no steady-state period was detected)"
        )
    if instruction not in frustum.firing_counts:
        raise AnalysisError(
            f"instruction {instruction!r} does not fire in the frustum; "
            f"known instructions: {sorted(frustum.firing_counts)}"
        )
    return frustum.computation_rate(instruction)


def pipeline_utilization(scp: SdspScpNet, frustum: CyclicFrustum) -> Fraction:
    """Fraction of cycles the SCP issues an instruction in steady state
    (Table 2's *processor usage*): total instruction firings per
    frustum, times the 1-cycle issue slot, over the frustum length.

    Equals 1 exactly when the Theorem 5.2.2 bound is met.
    """
    if frustum.length == 0:
        raise AnalysisError(
            "cannot compute pipeline utilization on an empty frustum"
        )
    issue_cycles = sum(
        frustum.firing_counts.get(t, 0) for t in scp.sdsp_transitions
    )
    return Fraction(issue_cycles, frustum.length)
