#!/usr/bin/env python3
"""Build the simulator benchmark and run one workload.

    python3 bench/perfbench/run.py --workload db_ebcp|tpcw_ebcp|paper_sweep \
        --seed N --seconds S --trace 0|1 [--workload-seed G]

Run from the repository root (any directory works; paths resolve from
this file). The first run configures and builds bench/perfbench into
.bench_build/perfbench; later runs only re-check the build.

The report from the perfbench program is relayed to stdout, followed by
the host record (nproc, load average before and after, build type,
sanitizer/LTO/PGO state, perf-counter availability) and, as the last
line, one JSON object with exactly the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones; BENCHMARK.json at the repository root lists both sets
and this script refuses a run whose metric names differ from it. The
full result, with the host record, is also written under
.bench_build/perfbench-results/. README.md beside this file gives the
method.

Exit status: 0 when every output check passed, 1 when a check failed,
2 when the benchmark cannot be built or run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "perfbench-results")
WORKLOADS = ("db_ebcp", "tpcw_ebcp", "paper_sweep")
# The program must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then bring the perfbench target up to date.
    Compiler output goes to stderr so stdout stays the report."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src; run from a "
             "checkout of the repository")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None
    when the file is absent."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if bench is None:
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in bench[key]}


def compare_reference(args, metrics):
    """Print how this run's exact metrics compare with the values
    metrics.json records for the calibrated and held-out workload
    seeds. Informational: a model change moves them on purpose, and a
    host-only change must not."""
    manifest = load_json(os.path.join(HERE, "metrics.json")) or {}
    for ref in manifest.get("reference", []):
        if (ref["workload"], ref["seed"], ref["workload_seed"]) != \
                (args.workload, args.seed, args.workload_seed):
            continue
        recorded = {k: v for k, v in ref["metrics"].items() if k in metrics}
        diffs = [f"{k}: {metrics[k]['value']!r} != recorded {v!r}"
                 for k, v in sorted(recorded.items())
                 if metrics[k]["value"] != v]
        where = f"seed {args.seed}, workload seed {args.workload_seed}"
        if diffs:
            print(f"reference ({where}): {len(diffs)} of {len(recorded)} "
                  "exact metrics DIFFER from metrics.json:")
            for d in diffs:
                print("  " + d)
        else:
            print(f"reference ({where}): all {len(recorded)} exact "
                  "metrics match metrics.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload-seed", type=int, default=0,
                    help="generator seed; 0 = the calibrated defaults")
    args = ap.parse_args()
    if args.seed < 0 or args.workload_seed < 0:
        fail("seeds must be non-negative")

    build()
    os.makedirs(RESULTS, exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-ws{args.workload_seed}"
            f"-trace{args.trace}")
    load_before = os.getloadavg()
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workload-seed", str(args.workload_seed)]
    if args.trace:
        cmd += ["--spans", os.path.join(RESULTS, stem + ".spans.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    load_after = os.getloadavg()

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)

    correct = result["correct"] and proc.returncode == 0
    want = expected_metrics(args.trace)
    got = set(result["metrics"])
    if want is not None and want != got:
        print("run.py: metric names differ from BENCHMARK.json: missing "
              f"{sorted(want - got)}, unexpected {sorted(got - want)}")
        correct = False
    compare_reference(args, result["metrics"])

    host = dict(result["host"], nproc=os.cpu_count(),
                loadavg_before=list(load_before),
                loadavg_after=list(load_after))
    print("host: " + json.dumps(host, sort_keys=True))
    out = {"correct": correct, "attempted": result["attempted"],
           "failed": result["failed"], "metrics": result["metrics"]}
    with open(os.path.join(RESULTS, stem + ".json"), "w",
              encoding="utf-8") as f:
        json.dump(dict(out, host=host, workload=args.workload,
                       seed=args.seed, workload_seed=args.workload_seed,
                       seconds=args.seconds), f, indent=1)
    sys.stdout.flush()
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
