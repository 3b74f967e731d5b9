#!/usr/bin/env python3
"""Run one workload of the idnscope benchmark and print its result line.

    python3 perfbench/run.py --workload census --seed 20170921 \\
        --seconds 10 --trace 0 [--workers N]

Run from the repository root.  The first run configures and builds the
benchmark binary (perfbench/CMakeLists.txt: the library under src/ plus
perfbench/cpp/) into .bench_build/perfbench; later runs rebuild only what
changed.  The binary writes a result record; this script parses it strictly,
checks its answers against the values recorded for the seed in
perfbench/expected.json, stores the run record under .bench_build/perfbench/
runs/, and prints as its last stdout line:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

--trace 0 prints every end-to-end metric of BENCHMARK.json, --trace 1 every
per-layer metric.  Everything else goes to stderr.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- strict JSON ------------------------------------------------------------


def _reject_constant(name):
    raise BenchError(f"non-finite number {name} in JSON")


def _no_duplicates(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise BenchError(f"duplicate JSON key {key!r}")
        out[key] = value
    return out


def strict_json(text, what):
    try:
        return json.loads(text, object_pairs_hook=_no_duplicates,
                          parse_constant=_reject_constant)
    except json.JSONDecodeError as error:
        raise BenchError(f"{what}: malformed JSON: {error}") from None


def expect(value, kind, where):
    """Check one JSON value's type; numbers are int or float, never bool."""
    if kind == "number":
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif kind == "int":
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise BenchError(f"{where}: expected {kind}, got {value!r}")
    return value


def expect_keys(obj, keys, where):
    expect(obj, dict, where)
    if set(obj) != set(keys):
        raise BenchError(f"{where}: keys {sorted(obj)} != {sorted(keys)}")
    return obj


RESULT_KEYS = {
    "schema": str, "workload": str, "seed": "int", "seconds": "int",
    "trace": bool, "workers": "int", "nproc": "int", "build_type": str,
    "compiler": str, "wall_s": "number", "attempted": "int", "failed": "int",
    "checks": list, "digests": dict, "facts": dict, "end_to_end": dict,
    "per_layer": dict, "spans": list, "library_spans": dict,
}
SPAN_KEYS = ["name", "parent", "start_s", "end_s", "rss_before_mb",
             "rss_after_mb", "peak_before_mb", "peak_after_mb"]


def parse_result(text):
    """The benchmark binary's result record, validated field by field."""
    record = expect_keys(strict_json(text, "result"), RESULT_KEYS, "result")
    for key, kind in RESULT_KEYS.items():
        expect(record[key], kind, f"result.{key}")
    if record["schema"] != "perfbench-result-1":
        raise BenchError(f"unknown result schema {record['schema']!r}")
    for i, check in enumerate(record["checks"]):
        expect_keys(check, ["name", "ok", "detail"], f"checks[{i}]")
        expect(check["name"], str, f"checks[{i}].name")
        expect(check["ok"], bool, f"checks[{i}].ok")
        expect(check["detail"], str, f"checks[{i}].detail")
    for table in ("digests", "facts"):
        for key, value in record[table].items():
            expect(value, str, f"{table}.{key}")
    for table in ("end_to_end", "per_layer"):
        for name, metric in record[table].items():
            where = f"{table}.{name}"
            expect_keys(metric, ["value", "unit", "samples"], where)
            expect(metric["value"], "number", where + ".value")
            expect(metric["unit"], str, where + ".unit")
            expect(metric["samples"], "int", where + ".samples")
    for i, span in enumerate(record["spans"]):
        expect_keys(span, SPAN_KEYS, f"spans[{i}]")
        expect(span["name"], str, f"spans[{i}].name")
        expect(span["parent"], "int", f"spans[{i}].parent")
        for key in SPAN_KEYS[2:]:
            expect(span[key], "number", f"spans[{i}].{key}")
    for path, stats in record["library_spans"].items():
        expect_keys(stats, ["calls", "total_s"], f"library_spans.{path}")
        expect(stats["calls"], "int", f"library_spans.{path}.calls")
        expect(stats["total_s"], "number", f"library_spans.{path}.total_s")
    return record


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            spec = strict_json(handle.read(), "BENCHMARK.json")
    except OSError as error:
        raise BenchError(f"cannot read BENCHMARK.json: {error}") from None
    for table in ("end_to_end", "per_layer"):
        for entry in expect(spec.get(table), list, f"BENCHMARK.json {table}"):
            expect(entry.get("name"), str, f"BENCHMARK.json {table} name")
            expect(entry.get("unit"), str, f"BENCHMARK.json {table} unit")
    return spec


def load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        expected = strict_json(handle.read(), "expected.json")
    for workload, seeds in expect(expected.get("answers"), dict,
                                  "expected.answers").items():
        for seed, digests in expect(seeds, dict, f"answers.{workload}").items():
            for key, value in expect(digests, dict,
                                     f"answers.{workload}.{seed}").items():
                expect(value, str, f"answers.{workload}.{seed}.{key}")
    return expected


# --- build ------------------------------------------------------------------


def build():
    """Configure (once) and build the binary; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) not found next to perfbench/")
    cmake_dir = os.path.join(BUILD, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_tool(configure, "configure")
    jobs = str(os.cpu_count() or 1)
    run_tool(["cmake", "--build", cmake_dir, "-j", jobs], "build")
    binary = os.path.join(cmake_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        raise BenchError("build produced no perfbench binary")
    return binary


def run_tool(command, what):
    completed = subprocess.run(command, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
    if completed.returncode != 0:
        log(completed.stdout[-4000:])
        raise BenchError(f"{what} failed (exit {completed.returncode})")


def source_commit():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        completed = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.DEVNULL, text=True)
        if completed.returncode == 0:
            return completed.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


# --- run --------------------------------------------------------------------


def run_binary(binary, args, run_id):
    work_dir = os.path.join(BUILD, "work", run_id)
    out_path = os.path.join(BUILD, "work", run_id + ".json")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workers", str(args.workers), "--work-dir", work_dir,
               "--out", out_path]
    started = time.monotonic()
    try:
        completed = subprocess.run(command, stdout=subprocess.DEVNULL,
                                   timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"perfbench exceeded {BINARY_TIMEOUT_S}s") from None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    wall_s = time.monotonic() - started
    if completed.returncode != 0:
        raise BenchError(f"perfbench exited with {completed.returncode}")
    try:
        with open(out_path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise BenchError(f"no result record: {error}") from None
    os.remove(out_path)
    return parse_result(text), wall_s


def compare_answers(record, expected):
    """Mismatching answer names, and how many recorded answers were compared."""
    recorded = expected["answers"].get(record["workload"], {}).get(
        str(record["seed"]), {})
    compared = 0
    mismatched = []
    for key, value in sorted(recorded.items()):
        if key in record["digests"]:
            compared += 1
            if record["digests"][key] != value:
                mismatched.append(key)
    return mismatched, compared


def void_line(attempted):
    """The result line of a run that crashed, aborted, timed out, answered
    wrongly or stopped before measuring: every operation counts as failed."""
    attempted = max(1, attempted)
    return {"correct": False, "attempted": attempted, "failed": attempted,
            "metrics": {}}


def result_line(spec, record, mismatched, compared):
    checks_failed = sum(1 for check in record["checks"] if not check["ok"])
    attempted = record["attempted"] + len(record["checks"]) + compared
    failed = record["failed"] + checks_failed + len(mismatched)
    correct = failed == 0
    if mismatched:
        return void_line(attempted)
    if record["trace"]:
        source, names = record["per_layer"], spec["per_layer"]
    else:
        source, names = record["end_to_end"], spec["end_to_end"]
    metrics = {}
    for entry in names:
        name = entry["name"]
        if name in source:
            if source[name]["unit"] != entry["unit"]:
                raise BenchError(f"{name}: unit {source[name]['unit']!r} != "
                                 f"{entry['unit']!r}")
            metrics[name] = {"value": source[name]["value"],
                             "unit": entry["unit"]}
        elif not correct:
            return void_line(attempted)  # the run stopped before measuring
        elif record["trace"]:
            metrics[name] = {"value": 0, "unit": entry["unit"]}
        else:
            raise BenchError(f"end-to-end metric {name} missing")
    unknown = set(source) - {entry["name"] for entry in names}
    if unknown:
        raise BenchError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_name(record):
    return (f"{record['workload']}-seed{record['seed']}"
            f"-s{record['seconds']}-w{record['workers']}"
            f"-trace{int(record['trace'])}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["census", "serve_churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600 or args.workers < 1:
        parser.error("seed must be >= 0, seconds in 1..3600, workers >= 1")

    started = time.monotonic()
    try:
        spec = load_spec()
        expected = load_expected()
        binary = build()
    except BenchError as error:
        log(f"run.py: {error}")
        return 1
    try:
        run_id = f"{args.workload}-{os.getpid()}"
        record, binary_wall_s = run_binary(binary, args, run_id)
        mismatched, compared = compare_answers(record, expected)
        line = result_line(spec, record, mismatched, compared)
    except BenchError as error:
        log(f"run.py: {error}")
        print(json.dumps(void_line(1)))
        return 1

    for check in record["checks"]:
        log(f"check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}: "
            f"{check['detail']}")
    if compared:
        log(f"answers: {compared - len(mismatched)} of {compared} match the "
            f"values recorded for seed {args.seed}"
            + (f"; mismatched: {', '.join(mismatched)}" if mismatched else ""))
    else:
        log(f"answers: no values recorded for seed {args.seed}")
    for name, metric in sorted(record["end_to_end"].items()):
        log(f"{name} = {metric['value']:.6g} {metric['unit']} "
            f"(samples {metric['samples']})")

    run_record = {
        "commit": source_commit(),
        "workload": record["workload"], "seed": record["seed"],
        "seconds": record["seconds"], "trace": record["trace"],
        "nproc": record["nproc"], "workers": record["workers"],
        "build_type": record["build_type"], "compiler": record["compiler"],
        "process_wall_s": time.monotonic() - started,
        "binary_wall_s": binary_wall_s,
        "answers_compared": compared, "answers_mismatched": mismatched,
        "result": line, "record": record,
    }
    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    with open(os.path.join(runs, run_name(record) + ".json"),
              "w", encoding="utf-8") as handle:
        json.dump(run_record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
