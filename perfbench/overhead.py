#!/usr/bin/env python3
"""Measure the benchmark's tracing overhead with interleaved run pairs.

    python3 perfbench/overhead.py --workload census [--seed 20170921] \\
        [--seconds 25] [--pairs 3]

Runs run.py untraced and traced in turn, alternating which side of a pair
runs first, and prints a markdown table of every end-to-end metric: its
median untraced and traced value over the pairs, and the overhead, the
median of the per-pair changes (traced / untraced - 1), with their range.
A traced run measures its end-to-end metrics the same way an untraced run
does; only the benchmark's own spans and RSS probes are added.  Run from the
repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def end_to_end(args, trace):
    """One run's end-to-end metrics, from its run record."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--trace", str(trace), "--workers",
         str(args.workers)], cwd=ROOT, stdout=subprocess.DEVNULL)
    if completed.returncode != 0:
        sys.exit(f"overhead.py: run.py --trace {trace} exited "
                 f"{completed.returncode}")
    path = os.path.join(
        ROOT, ".bench_build", "perfbench", "runs",
        f"{args.workload}-seed{args.seed}-s{args.seconds}-w{args.workers}"
        f"-trace{trace}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["record"]["end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20170921)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args()

    pairs = []
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        pair = {trace: end_to_end(args, trace) for trace in order}
        pairs.append(pair)
        print(f"pair {i + 1} of {args.pairs} done (order {order})",
              file=sys.stderr, flush=True)

    print(f"| end-to-end metric | untraced median | traced median | "
          f"overhead, median of {args.pairs} pairs | range over pairs |")
    print("|---|---:|---:|---:|---:|")
    for name, metric in sorted(pairs[0][0].items()):
        untraced = [pair[0][name]["value"] for pair in pairs]
        traced = [pair[1][name]["value"] for pair in pairs]
        changes = [t / u - 1.0 for t, u in zip(traced, untraced)]
        print(f"| {name} ({metric['unit']}) | {statistics.median(untraced):.6g} "
              f"| {statistics.median(traced):.6g} "
              f"| {statistics.median(changes):+.1%} "
              f"| {min(changes):+.1%} to {max(changes):+.1%} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
