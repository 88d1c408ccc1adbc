"""Process plumbing shared by the workloads: fresh-start timing, host
speed, peak memory, statistics, and reaping everything a run started."""

from __future__ import annotations

import ctypes
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence

from .corpus import ROOT

SRC = ROOT / "src"
TMP_DIR = ROOT / ".perfbench_tmp"

#: Fresh interpreter starts per run; ``setup_s`` is their median.
SETUP_STARTS = 5

#: Measures one fresh start: imports plus one small compile.
_SETUP_SNIPPET = """
import sys
sys.path.insert(0, {src!r})
from repro.pipeline import compile_loop
compile_loop(open({l2!r}).read(), include_io=False)
print("ready", flush=True)
"""


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``), so
    a killed server's pool worker is reaped here, not left to init."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def reap_all(timeout: float = 30.0) -> None:
    """Wait for every child of this process, adopted ones included."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL a process started with ``start_new_session=True`` and
    everything in its group, then reap them."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    reap_all()


def fresh_start_seconds() -> float:
    """Seconds from spawning an interpreter to it having imported the
    compiler and compiled one small loop."""
    code = _SETUP_SNIPPET.format(
        src=str(SRC), l2=str(ROOT / "examples" / "l2.loop")
    )
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.PIPE,
        env=program_env(),
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("fresh start did not reach its first compile")
    return ready


def setup_seconds(starts: int = SETUP_STARTS) -> float:
    return statistics.median(fresh_start_seconds() for _ in range(starts))


#: The host-speed reference's time on the host the bounds were set on,
#: in a quiet minute.  Compile times are reported at this speed.
REFERENCE_S = 0.0166

#: Nodes of the host-speed reference's graph.
_REFERENCE_NODES = 14


def reference_graph():
    """A fixed digraph with 4110 simple cycles: a complete DAG on
    ``_REFERENCE_NODES`` nodes closed by one back arc, each node also on
    a two-cycle with a twin."""
    import networkx as nx

    graph = nx.DiGraph()
    n = _REFERENCE_NODES
    graph.add_edges_from((j, k) for k in range(n) for j in range(k))
    graph.add_edge(n - 1, 0)
    for k in range(n):
        graph.add_edges_from([(k, k + n), (k + n, k)])
    return graph


def host_reference(graph) -> float:
    """Seconds to enumerate ``graph``'s simple cycles: fixed work in the
    library and style of the compiler's heaviest layers, with none of
    the program's code, so its time tracks only the host's speed."""
    import networkx as nx

    started = time.perf_counter()
    for _ in nx.simple_cycles(graph):
        pass
    return time.perf_counter() - started


def reference_timer() -> Callable[[], float]:
    """One timing of the host-speed reference per call."""
    graph = reference_graph()
    return lambda: host_reference(graph)


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Summed peak resident set (``VmHWM``) of the given processes."""
    total_kb = 0
    for pid in pids:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def descendants(pid: int) -> List[int]:
    """Live descendants of ``pid``, from the parent ids in ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        parent = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(parent, []).append(int(entry.name))
    found: List[int] = []
    frontier = [pid]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def loglog_slope(points: Sequence[tuple]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den
