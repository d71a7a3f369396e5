#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark and prints its result.

Usage, from the root of a checkout:

  python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script configures and builds bench/e2e (a Release build of the library
plus dess_bench) under $CARGO_TARGET_DIR, or .bench_build when that is unset,
then runs dess_bench for the workload in a process of its own. The full
report (and, with --trace 1, the Chrome-trace JSON) is kept under
<build dir>/runs/. The last line of standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). Everything else goes to standard error. The
exit code is 0 only when every output check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds dess_bench; returns its path."""
    cmake_dir = build_dir / "cmake"
    if not (cmake_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B",
                     str(cmake_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", str(cmake_dir), "--target",
                       "dess_bench", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return cmake_dir / "dess_bench"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no dess sources under {ROOT}: run from a full checkout", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    runs = build_dir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_path = runs / f"{tag}.json"
    report_path.unlink(missing_ok=True)
    work_dir = runs / (tag + ".work")
    shutil.rmtree(work_dir, ignore_errors=True)  # left by an interrupted run
    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--out={report_path}", f"--commit={git_commit()}",
               f"--work-dir={work_dir}"]
    if args.trace:
        command.append(f"--trace={runs / (tag + '.trace.json')}")
    try:
        done = subprocess.run(command, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"dess_bench did not finish within {RUN_TIMEOUT_S} s")
    if not report_path.exists():
        fail(f"dess_bench exited {done.returncode} without a report")
    report = json.loads(report_path.read_text())

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        measured = report["metrics"].get(metric["name"])
        if measured is None:
            fail(f"report lacks metric {metric['name']}")
        if measured["unit"] != metric["unit"]:
            fail(f"{metric['name']}: report unit {measured['unit']!r}, "
                 f"BENCHMARK.json unit {metric['unit']!r}")
        metrics[metric["name"]] = {"value": measured["value"],
                                   "unit": metric["unit"]}
    correct = bool(report["correct"]) and done.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
