"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload paper_corpus --seed 1 --seconds 40 --trace 0

Workloads: ``paper_corpus`` and ``size_families`` (in-process
``compile_loop`` closed loops) and ``serve_mixed`` (``repro serve``
under a two-connection closed loop).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import check, compile_bench, corpus, serve_bench  # noqa: E402
from perfbench.procs import (  # noqa: E402
    TMP_DIR, SRC, become_subreaper, reap_all, setup_seconds,
)

WORKLOADS = ("paper_corpus", "size_families", "serve_mixed")


def compile_inputs(workload: str):
    if workload == "size_families":
        return corpus.size_families()
    from repro.loops.livermore import KERNELS

    return corpus.paper_corpus(KERNELS)


def compile_workload(workload: str, seed: int, seconds: int, trace: bool):
    inputs = compile_inputs(workload)
    if trace:
        result, run = compile_bench.traced(inputs, seed, seconds)
    else:
        result, run = compile_bench.end_to_end(
            inputs, seed, seconds, setup_seconds()
        )
    # Served bytes against the in-process compiles, checked after timing.
    service, bodies, behaved = serve_bench.probe_service(
        [item.kwargs for item in inputs]
    )
    same = all(
        bodies[json.dumps(item.kwargs, sort_keys=True)]
        == check.payload_bytes(run.first[item.label])
        for item in inputs
    )
    result["correct"] = result["correct"] and behaved and same
    if trace:
        result["metrics"].update(service)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    become_subreaper()
    try:
        if args.workload == "serve_mixed":
            result = serve_bench.serve_mixed(
                args.seed, args.seconds, bool(args.trace)
            )
        else:
            result = compile_workload(
                args.workload, args.seed, args.seconds, bool(args.trace)
            )
    finally:
        reap_all()
        shutil.rmtree(TMP_DIR, ignore_errors=True)
    result["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
