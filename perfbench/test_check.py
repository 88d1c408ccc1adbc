"""Tests of the benchmark's own pieces: the output checker rejects
what it must, the serve stream has its stated make-up, the layer tracer
leaves the program as it found it, and the host-speed reference does
fixed work.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import check, corpus  # noqa: E402
from perfbench.layers import LayerTracer  # noqa: E402
from perfbench.procs import host_reference, reference_graph  # noqa: E402
from repro.pipeline import compile_loop  # noqa: E402


@pytest.fixture(scope="module")
def l2():
    return compile_loop(corpus.example("l2"), include_io=False)


@pytest.fixture(scope="module")
def frac5():
    return compile_loop(corpus.example("frac5"))


def moved_early(schedule):
    """The schedule with its latest kernel start moved one cycle early."""
    kernel = sorted(schedule.kernel)
    rel, name, base = kernel[-1]
    kernel[-1] = (rel - 1, name, base)
    return dataclasses.replace(schedule, kernel=kernel)


def test_replay_accepts_compiled_schedules(l2, frac5):
    for compiled in (l2, frac5):
        assert check.replay(compiled.schedule, check.net_edges(compiled.pn)) > 0


def test_replay_rejects_a_start_moved_early(l2, frac5):
    for compiled in (l2, frac5):
        with pytest.raises(check.CheckError):
            check.replay(moved_early(compiled.schedule),
                         check.net_edges(compiled.pn))


def test_replay_rejects_two_issues_in_one_cycle():
    source = corpus.example("l2")
    compiled = compile_loop(source, include_io=False, pipeline_stages=4)
    edges = check.net_edges(compiled.pn, latency=lambda t: 4,
                            self_loops=False)
    schedule = compiled.scp_schedule
    assert check.replay(schedule, edges, capacity=1) > 0
    (rel, name, base), (other, *_) = sorted(schedule.kernel)[:2]
    kernel = [(other, name, base)] + sorted(schedule.kernel)[1:]
    with pytest.raises(check.CheckError):
        check.replay(dataclasses.replace(schedule, kernel=kernel), [],
                     capacity=1)


def test_confirm_rate_accepts_the_optimal_rate(l2, frac5):
    assert l2.rate == Fraction(1, 3) and frac5.rate == Fraction(2, 5)
    for compiled in (l2, frac5):
        check.confirm_rate(check.net_edges(compiled.pn), compiled.rate)


@pytest.mark.parametrize("delta", [1, -1])
def test_confirm_rate_rejects_a_rate_off_by_one_in_the_denominator(
        l2, frac5, delta):
    for compiled in (l2, frac5):
        rate = compiled.rate
        wrong = Fraction(rate.numerator, rate.denominator + delta)
        with pytest.raises(check.CheckError):
            check.confirm_rate(check.net_edges(compiled.pn), wrong)


def test_check_compiled_covers_auto_unroll_and_scp():
    for kwargs in ({"source": corpus.example("interleave"), "unroll": "auto"},
                   {"source": corpus.example("l1"), "include_io": False,
                    "pipeline_stages": 8}):
        assert check.check_compiled(compile_loop(**kwargs), kwargs) > 0


def test_check_compiled_rejects_an_auto_rate_off_the_dependence_bound():
    kwargs = {"source": corpus.example("interleave"), "unroll": "auto"}
    compiled = compile_loop(**kwargs)
    compiled.unroll += 1
    compiled.achieved_rate = compiled.unroll * compiled.rate
    with pytest.raises(check.CheckError):
        check.check_compiled(compiled, kwargs)


def test_payload_bytes_match_the_staged_service_path(tmp_path):
    from repro.compiler import (ArtifactStore, compile_staged, make_request,
                                stage_store_dir)
    from repro.obs import stable_json

    source = corpus.example("l2")
    payload, _ = compile_staged(make_request(source, include_io=False),
                                ArtifactStore(stage_store_dir(tmp_path)))
    served = (stable_json(payload, indent=2) + "\n").encode("utf-8")
    fresh = check.payload_bytes(compile_loop(source, include_io=False))
    assert fresh == served
    assert check.payload_bytes(compile_loop(source)) != served


def test_serve_stream_make_up_is_exact_and_seed_independent():
    distinct = set()
    for seed in (1, 2, 3):
        stream = corpus.connection_stream(seed, 0, 300)
        kinds = [request.kind for request in stream]
        assert (kinds.count("repeat"), kinds.count("variant"),
                kinds.count("fresh")) == (246, 30, 24)
        sent = set()
        sources = set()
        for request in stream:
            key = json.dumps(request.body, sort_keys=True)
            if request.kind == "repeat":
                assert key in sent
            else:
                assert key not in sent
                if request.kind == "variant":
                    assert request.body["source"] in sources
            sent.add(key)
            sources.add(request.body["source"])
        distinct.add(frozenset(sent))
    assert len(distinct) == 1
    assert len(corpus.dense_tail()["source"]) == 315


def test_layer_tracer_restores_the_program_and_attributes_time():
    import repro.compiler.stages as stages

    original = stages.theoretical_bounds
    tracer = LayerTracer()
    with tracer:
        assert stages.theoretical_bounds is not original
        compile_loop(corpus.chain_source(16, True))
    assert stages.theoretical_bounds is original
    self_s, counts = tracer.snapshot()
    assert all(value >= 0 for value in self_s.values())
    assert counts["core.bounds.cycles"] > 0
    assert counts["core.rate.howard_iterations"] > 0


def test_host_reference_enumerates_a_fixed_cycle_set():
    import networkx as nx

    graph = reference_graph()
    assert sum(1 for _ in nx.simple_cycles(graph)) == 4110
    assert host_reference(graph) > 0
