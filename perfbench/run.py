#!/usr/bin/env python3
"""The repository benchmark: builds the program from source, runs one
workload and prints its report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds
perfbench/ (which builds the repository as a subproject, Release + IPO)
into .bench_build/; later runs reuse that build. Generated inputs, server
logs, event logs and span files go under .bench_build/data/.

The last stdout line is the result object {"correct", "attempted",
"failed", "metrics"}: the end-to-end metrics with --trace 0, the per-layer
ledger with --trace 1, each in the order and with the units BENCHMARK.json
gives. BENCHMARK.json is the one list of metric names: snd_perfbench prints
what the workload measured, and this script picks the listed metrics out
of it. A measured metric BENCHMARK.json does not list goes to the detail
record, the line before the result, beside every workload-specific metric,
the sample counts, the snd_serve flags, the seed and host_processors. A
per-layer metric the workload does not exercise (no transport solve in a
warm read, no socket in an in-process batch) prints 0 and is named in the
detail record's info.not_measured.

--self-test runs every workload at a tiny scale, traced and untraced,
checks that each run is correct and prints its metrics with the units
BENCHMARK.json gives, that every end-to-end metric is measured on every
workload and every per-layer metric is measured, and not 0, on at least one
workload BENCHMARK.json lists, and that a run with one corrupted answer
comes out incorrect.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BENCH_BIN = os.path.join(BUILD, "snd_perfbench")
SERVE = os.path.join(BUILD, "snd", "tools", "snd_serve")
WORKLOADS = ("batch_transport", "batch_sssp", "serve_read", "serve_churn")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no repository sources next to perfbench/ (missing %s)" % needed)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                      "--target", "snd_perfbench"])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                fail("build failed: %s (see %s)" % (" ".join(step), log_path))
    if not (os.path.exists(BENCH_BIN) and os.path.exists(SERVE)):
        fail("build produced no benchmark program or server")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, seed, seconds, trace, extra=()):
    """Runs snd_perfbench; returns (stdout lines, detail record, result)
    with the last two None if the run printed no result."""
    data = os.path.join(BUILD, "data", "%s-%s-%s" % (workload, seed, trace))
    shutil.rmtree(data, ignore_errors=True)
    os.makedirs(data)
    cmd = [BENCH_BIN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--data-dir", data, "--serve-bin", SERVE] + list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return lines, None, None
    try:
        return lines[:-2], json.loads(lines[-2]), json.loads(lines[-1])
    except ValueError:
        return lines, None, None


def select_metrics(spec, trace, detail, result):
    """Replaces result["metrics"] with the metrics BENCHMARK.json lists for
    this mode, in its order, and moves the other measured ones to the
    detail record. Returns (names not measured, problems)."""
    listed = spec["end_to_end" if trace == 0 else "per_layer"]
    measured = result["metrics"]
    metrics, missing, problems = {}, [], []
    for entry in listed:
        name, unit = entry["name"], entry["unit"]
        got = measured.pop(name, None)
        if got is None:
            missing.append(name)
            got = {"value": 0, "unit": unit}
        elif got["unit"] != unit:
            problems.append("%s measured in %s, BENCHMARK.json says %s"
                            % (name, got["unit"], unit))
        metrics[name] = got
    detail["detail"].update(measured)
    if missing:
        detail["info"]["not_measured"] = " ".join(missing)
        if trace == 0:
            problems.append("end-to-end metrics not measured: "
                            + " ".join(missing))
    result["metrics"] = metrics
    return missing, problems


def self_test():
    spec = load_spec()
    gated = {w["name"] for w in spec["workloads"]}
    never_measured = {m["name"] for m in spec["per_layer"]}
    problems = []
    # Every workload snd_perfbench knows, listed in BENCHMARK.json or not.
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, detail, result = run_bench(workload, 7, 2, trace, ["--tiny"])
            tag = "%s trace=%d" % (workload, trace)
            if result is None:
                problems.append(tag + ": no result")
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(tag + ": run not correct")
            missing, wrong = select_metrics(spec, trace, detail, result)
            problems += [tag + ": " + p for p in wrong]
            if trace == 1 and workload in gated:
                never_measured -= {name for name, m in result["metrics"].items()
                                   if name not in missing and m["value"] != 0}
            print("self-test %s: %d metrics, not measured: %s"
                  % (tag, len(result["metrics"]), " ".join(missing) or "-"))
        _, _, result = run_bench(workload, 7, 2, 0, ["--tiny", "--corrupt"])
        if result is None or result["correct"] or result["failed"] < 1:
            problems.append(workload + ": the checker accepted a corrupted answer")
        else:
            print("self-test %s: corrupted answer rejected (%d failed)"
                  % (workload, result["failed"]))
    if never_measured:
        problems.append("per-layer metrics 0 or not measured on every "
                        "benchmarked workload: " + " ".join(sorted(never_measured)))
    for problem in problems:
        print("self-test FAIL: " + problem)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.self_test:
        return self_test()
    spec = load_spec()
    lines, detail, result = run_bench(args.workload, args.seed, args.seconds,
                                      args.trace)
    if result is None:
        print("\n".join(lines), file=sys.stderr)
        fail("%s produced no result" % args.workload)
    _, problems = select_metrics(spec, args.trace, detail, result)
    if problems:
        fail("; ".join(problems))
    for line in lines + [json.dumps(detail), json.dumps(result)]:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
