"""Time-optimal loop schedules derived from cyclic frustums
(Figure 1(g) and Section 3.3).

A software-pipelined schedule has two parts:

* a **prologue** — the transient firings before the steady state is
  entered (the behavior graph before the initial instantaneous state);
* a **kernel** — the repeating pattern: ``initiation interval`` (II)
  cycles long, covering ``iterations_per_kernel`` (k) loop iterations.

From the frustum these fall out directly: II is the frustum length
``p = Ω(C*)`` and k its uniform transition count ``M(C*)``; the
schedule is *time-optimal* because its rate ``k / II`` equals the
net's optimal computation rate (Appendix A.7) — a fact the test suite
checks for every Livermore loop rather than assuming.

Instances are labelled with absolute iteration numbers so the schedule
can be expanded, validated against dependences and resources, and
executed semantically (:mod:`repro.core.verify`).

>>> from repro.loops import parse_loop, translate
>>> from repro.core import build_sdsp_pn
>>> from repro.petrinet import detect_frustum
>>> pn = build_sdsp_pn(translate(parse_loop(
...     "do tiny:\\n  A[i] = A[i-1] + IN[i]")).graph, include_io=False)
>>> frustum, behavior = detect_frustum(pn.timed, pn.initial)
>>> schedule = derive_schedule(frustum, behavior)
>>> schedule.initiation_interval, schedule.iterations_per_kernel
(1, 1)
>>> schedule.rate
Fraction(1, 1)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import ScheduleError
from ..obs.metrics import timed
from ..petrinet.behavior import BehaviorGraph, CyclicFrustum

__all__ = ["ScheduledOp", "PipelinedSchedule", "derive_schedule"]


@dataclass(frozen=True)
class ScheduledOp:
    """One instruction instance: ``instruction`` of loop iteration
    ``iteration`` issues at absolute ``time``."""

    time: int
    instruction: str
    iteration: int


class _StartIndex(NamedTuple):
    """:meth:`PipelinedSchedule.start_of`'s lookup tables: each
    instruction's prologue iterations (first issue time wins) and count,
    and the sorted relative times of its kernel instances."""

    prologue: Dict[str, Dict[int, int]]
    prologue_counts: Dict[str, int]
    kernel: Dict[str, List[int]]


@dataclass
class PipelinedSchedule:
    """A software-pipelined (prologue + kernel) schedule.

    ``kernel`` entries are ``(relative_time, instruction,
    base_iteration)``: in the m-th kernel repetition the instance
    executes iteration ``base_iteration + m·k`` at absolute time
    ``start_time + m·II + relative_time``.
    """

    prologue: List[ScheduledOp]
    kernel: List[Tuple[int, str, int]]
    start_time: int
    initiation_interval: int
    iterations_per_kernel: int
    instructions: Tuple[str, ...]
    _index: Optional[_StartIndex] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.initiation_interval <= 0:
            raise ScheduleError("initiation interval must be positive")
        if self.iterations_per_kernel <= 0:
            raise ScheduleError("kernel must cover at least one iteration")

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def rate(self) -> Fraction:
        """Steady-state computation rate: iterations per cycle."""
        return Fraction(self.iterations_per_kernel, self.initiation_interval)

    @property
    def kernel_span(self) -> int:
        """How many distinct iterations the kernel overlaps — the degree
        of software pipelining (1 = no overlap)."""
        if not self.kernel:
            return 0
        per_instruction: Dict[str, List[int]] = {}
        for _, instruction, base in self.kernel:
            per_instruction.setdefault(instruction, []).append(base)
        lows = [min(v) for v in per_instruction.values()]
        highs = [max(v) for v in per_instruction.values()]
        return max(highs) - min(lows) + 1

    # ------------------------------------------------------------------
    # Lookup / expansion
    # ------------------------------------------------------------------
    def _lookup_index(self) -> _StartIndex:
        """Per-instruction prologue times and sorted kernel times,
        built on the first :meth:`start_of` call."""
        if self._index is None:
            prologue: Dict[str, Dict[int, int]] = {}
            counts: Dict[str, int] = {}
            for op in self.prologue:
                prologue.setdefault(op.instruction, {}).setdefault(
                    op.iteration, op.time
                )
                counts[op.instruction] = counts.get(op.instruction, 0) + 1
            kernel: Dict[str, List[int]] = {}
            for rel, name, _base in self.kernel:
                kernel.setdefault(name, []).append(rel)
            for times in kernel.values():
                times.sort()
            self._index = _StartIndex(prologue, counts, kernel)
        return self._index

    def start_of(self, instruction: str, iteration: int) -> int:
        """Issue time of one instruction instance."""
        if instruction not in self.instructions:
            raise ScheduleError(f"unknown instruction {instruction!r}")
        index = self._lookup_index()
        time = index.prologue.get(instruction, {}).get(iteration)
        if time is not None:
            return time
        position = iteration - index.prologue_counts.get(instruction, 0)
        if position < 0:
            raise ScheduleError(
                f"iteration {iteration} of {instruction!r} precedes the "
                "schedule (negative index after prologue)"
            )
        kernel_times = index.kernel.get(instruction)
        if not kernel_times:
            raise ScheduleError(
                f"instruction {instruction!r} does not appear in the kernel"
            )
        k = self.iterations_per_kernel
        m, j = divmod(position, k)
        return self.start_time + m * self.initiation_interval + kernel_times[j]

    def expand(self, iterations: int) -> List[ScheduledOp]:
        """All instances covering iterations ``0 .. iterations-1`` of
        every instruction, sorted by time then instruction name."""
        ops: List[ScheduledOp] = [
            op for op in self.prologue if op.iteration < iterations
        ]
        per_instruction_prologue: Dict[str, int] = {
            name: 0 for name in self.instructions
        }
        for op in self.prologue:
            per_instruction_prologue[op.instruction] += 1
        kernel_sorted = sorted(self.kernel)
        k = self.iterations_per_kernel
        for rel, name, base in kernel_sorted:
            m = 0
            while True:
                iteration = base + m * k
                if iteration >= iterations:
                    break
                time = self.start_time + m * self.initiation_interval + rel
                ops.append(ScheduledOp(time, name, iteration))
                m += 1
        ops.sort(key=lambda op: (op.time, op.instruction, op.iteration))
        return ops

    def kernel_rows(self) -> List[Tuple[int, List[Tuple[str, int]]]]:
        """Kernel as Figure 1(g)-style rows: for each relative cycle,
        the instructions issued with their iteration offsets."""
        rows: Dict[int, List[Tuple[str, int]]] = {}
        for rel, name, base in sorted(self.kernel):
            rows.setdefault(rel, []).append((name, base))
        return sorted(rows.items())


@timed("core.derive_schedule")
def derive_schedule(
    frustum: CyclicFrustum,
    behavior: BehaviorGraph,
    instructions: Optional[Iterable[str]] = None,
) -> PipelinedSchedule:
    """Extract the static parallel schedule from a detected frustum.

    ``instructions`` restricts the schedule to a subset of transitions —
    used for SDSP-SCP-PN nets, whose dummy (pipeline-delay) transitions
    are wiring rather than instructions.  Iteration numbers are the
    cumulative firing counts observed in the behavior graph, so the j-th
    firing of an instruction anywhere in the trace is iteration j.
    """
    if instructions is None:
        keep: Set[str] = set(frustum.firing_counts)
        for _time, fired in (
            step_pair for step_pair in _all_steps(behavior)
        ):
            keep.update(fired)
    else:
        keep = set(instructions)

    counts_in_kernel = {
        name: frustum.firing_counts.get(name, 0) for name in keep
    }
    distinct = set(counts_in_kernel.values())
    if len(distinct) != 1:
        raise ScheduleError(
            "instructions fire unequal numbers of times per frustum "
            f"({sorted(distinct)}); restrict `instructions` to the loop body"
        )
    k = distinct.pop()
    if k == 0:
        raise ScheduleError("no instruction fires inside the frustum")

    cumulative: Dict[str, int] = {name: 0 for name in keep}
    prologue: List[ScheduledOp] = []
    kernel: List[Tuple[int, str, int]] = []
    for time, fired in _all_steps(behavior):
        for name in fired:
            if name not in keep:
                continue
            iteration = cumulative[name]
            cumulative[name] = iteration + 1
            if time < frustum.start_time:
                prologue.append(ScheduledOp(time, name, iteration))
            elif time < frustum.repeat_time:
                kernel.append((time - frustum.start_time, name, iteration))

    return PipelinedSchedule(
        prologue=prologue,
        kernel=kernel,
        start_time=frustum.start_time,
        initiation_interval=frustum.length,
        iterations_per_kernel=k,
        instructions=tuple(sorted(keep)),
    )


def _all_steps(behavior: BehaviorGraph) -> List[Tuple[int, Tuple[str, ...]]]:
    return [(step.time, step.fired) for step in behavior.steps]
