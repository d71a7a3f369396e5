#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark and of its answer checkers.

Usage, from the root of a checkout:

  python3 bench/e2e/selftest.py

Builds dess_bench as run.py does, then, for every workload:
  1. runs it with --smoke (small inputs, one set-up, 1 s of load) and every
     output check on, and expects exit code 0;
  2. runs it again with --perturb-check, which corrupts one reference answer
     in the last bit, and expects a non-zero exit, so a checker that passes
     everything is caught.
Exits 1 if any run does not behave as expected.
"""

import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (same directory)


def main():
    spec = run.json.loads((run.ROOT / "BENCHMARK.json").read_text())
    build_dir = run.ROOT / run.os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build")
    binary = run.build(build_dir)
    (build_dir / "runs").mkdir(parents=True, exist_ok=True)
    failures = 0
    with tempfile.TemporaryDirectory(dir=build_dir / "runs") as scratch:
        for workload in [w["name"] for w in spec["workloads"]]:
            for perturb in (False, True):
                tag = f"{workload}{'-perturbed' if perturb else ''}"
                report_path = Path(scratch) / (tag + ".json")
                command = [str(binary), f"--workload={workload}", "--seed=1",
                           "--seconds=1", "--smoke", f"--out={report_path}"]
                if perturb:
                    command.append("--perturb-check")
                start = time.monotonic()
                done = subprocess.run(command, capture_output=True, text=True,
                                      timeout=run.RUN_TIMEOUT_S)
                report = (run.json.loads(report_path.read_text())
                          if report_path.exists() else {})
                if perturb:
                    # Failing is not enough: an answer check must have failed.
                    ok = (done.returncode == 1 and
                          report.get("failed_checks", 0) >= 1)
                else:
                    ok = done.returncode == 0 and report.get("correct", False)
                failures += 0 if ok else 1
                print(f"{'ok  ' if ok else 'FAIL'} {tag:34} exit "
                      f"{done.returncode} in {time.monotonic() - start:5.1f} s")
                if not ok:
                    print(done.stdout[-2000:], done.stderr[-2000:])
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
