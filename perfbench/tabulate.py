#!/usr/bin/env python3
"""Render a traced run record as a markdown layer table.

    python3 perfbench/tabulate.py .bench_build/perfbench/runs/<run>-trace1.json

The traced run's spans are the benchmark's own calls into the library.  Rows
are span paths ("timed/census.pass/core.study.ingest"), with calls, wall
time, share of the benchmark process's wall time and the largest growth of
current RSS across one call.  A parent's self time (its wall time not
covered by child spans) is the benchmark's own bookkeeping around those
calls.  The remainder row is process time outside every top-level span:
start-up, exit and anything not wrapped.  overhead.py measures the tracing
overhead.
"""

import json
import os
import sys


def span_paths(spans):
    paths = []
    for span in spans:
        parent = span["parent"]
        paths.append(span["name"] if parent < 0
                     else paths[parent] + "/" + span["name"])
    return paths


def layer_rows(record):
    spans = record["spans"]
    paths = span_paths(spans)
    rows = {}
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        duration = span["end_s"] - span["start_s"]
        if span["parent"] >= 0:
            child_time[span["parent"]] += duration
        row = rows.setdefault(paths[i], {"calls": 0, "wall": 0.0, "self": 0.0,
                                          "rss": 0.0, "peak": 0.0})
        row["calls"] += 1
        row["wall"] += duration
        row["rss"] = max(row["rss"], span["rss_after_mb"] - span["rss_before_mb"])
        row["peak"] = max(row["peak"], span["peak_after_mb"])
    for i, span in enumerate(spans):
        rows[paths[i]]["self"] += span["end_s"] - span["start_s"] - child_time[i]
    return rows


def render(run):
    record = run["record"]
    wall = run.get("binary_wall_s") or record["wall_s"]
    out = [f"### {record['workload']} (seed {record['seed']}, "
           f"--seconds {record['seconds']}, traced)", ""]
    out.append(f"commit `{run['commit']}`, {record['nproc']} CPUs, "
               f"{record['workers']} workers, {record['build_type']}, "
               f"{record['compiler']}; process wall {wall:.3f} s, "
               f"in main() {record['wall_s']:.3f} s.")
    out.append("")
    out.append("| span path | calls | wall s | share | self s | max RSS growth MB | peak RSS MB |")
    out.append("|---|---:|---:|---:|---:|---:|---:|")
    rows = layer_rows(record)
    covered = 0.0
    for path, row in rows.items():
        if "/" not in path:
            covered += row["wall"]
        depth = path.count("/")
        name = ("&nbsp;&nbsp;" * depth) + path.rsplit("/", 1)[-1]
        self_s = f"{row['self']:.3f}" if row["self"] > 0.0005 and any(
            other.startswith(path + "/") for other in rows) else ""
        out.append(f"| {name} | {row['calls']} | {row['wall']:.3f} | "
                   f"{row['wall'] / wall:.1%} | {self_s} | {row['rss']:.1f} | "
                   f"{row['peak']:.1f} |")
    out.append(f"| remainder: process start-up, exit and unwrapped code | | "
               f"{wall - covered:.3f} | {(wall - covered) / wall:.1%} | | | |")
    out.append("")
    out.append(f"Top-level spans cover {covered / wall:.1%} of the benchmark "
               f"process's wall time.")
    library = record["library_spans"]
    if library:
        out.append("")
        out.append("Spans the library records itself (all threads, summed):")
        out.append("")
        out.append("| library span path | calls | total s |")
        out.append("|---|---:|---:|")
        for path, stats in sorted(library.items()):
            out.append(f"| `{path}` | {stats['calls']} | {stats['total_s']:.3f} |")
    out.append("")
    out.append("Per-layer metrics of this run:")
    out.append("")
    out.append("| metric | value | unit | samples |")
    out.append("|---|---:|---|---:|")
    for name, metric in sorted(record["per_layer"].items()):
        out.append(f"| {name} | {metric['value']:.6g} | {metric['unit']} | "
                   f"{metric['samples']} |")
    return "\n".join(out) + "\n"


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for path in argv[1:]:
        with open(path, encoding="utf-8") as handle:
            run = json.load(handle)
        if not run["record"]["trace"]:
            print(f"{os.path.basename(path)}: not a traced run", file=sys.stderr)
            return 2
        print(render(run))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
