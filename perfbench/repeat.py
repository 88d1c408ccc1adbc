"""Run every workload many times and print each metric's spread.

    python3 perfbench/repeat.py --runs 10 [--workload NAME ...] [--seconds N]
        [--trace 0|1] [--first-seed S] [--json FILE]

Without ``--workload`` it runs the workloads of ``BENCHMARK.json``.
Round ``r`` runs each workload once with seed ``first-seed + r``; the
workload order alternates between rounds, so a slow minute does not
always land on the same workload.  For every metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
quartile spread as a share of the median, which is the figure each
``bound`` in ``BENCHMARK.json`` is set against; ``failed/attempted``
must be the same share in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=900,
    )
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", help="also write every run to this file")
    args = parser.parse_args(argv)
    workloads = args.workload or names
    runs = {workload: [] for workload in workloads}
    for round_ in range(args.runs):
        order = workloads if round_ % 2 == 0 else workloads[::-1]
        for workload in order:
            result = run_once(workload, args.first_seed + round_,
                              args.seconds, args.trace)
            runs[workload].append(result)
            print(f"# {workload} seed {args.first_seed + round_}: "
                  f"correct={result['correct']} attempted="
                  f"{result['attempted']} failed={result['failed']}",
                  file=sys.stderr, flush=True)
    ok = True
    for workload, results in runs.items():
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        ok = ok and correct and len(shares) == 1
        print(f"\n{workload}: {len(results)} runs, correct={correct}, "
              f"failed share(s) {sorted(shares)}")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            median = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(metric)
            print(f"  {metric:34s} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.3f} {bound if bound is not None else '':>6}")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
