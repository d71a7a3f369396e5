#!/usr/bin/env bash
# The full CI gate, runnable locally: the tier-1 suite under the `ci`
# preset; under ASan/UBSan the persistence parsers (ctest label `persist`),
# the index backends (`ann`) and feature extraction (`extract`:
# extractors_test runs extractors over partially built pipeline artifacts,
# so one that reads a stage that never ran must fail loudly;
# extract_parity_test checks the border-set thinning and the run-based
# component labelling, whose unchecked flat-index reads must stay in
# bounds, against their full-scan references; skeleton_test and
# parallel_extraction_test run the padded thinning's 4-byte row loads on
# hand-built grids, on pooled filter parts and on the voxelizer's z-slabs);
# and under TSan (label `tsan`) the concurrent serving layer and background
# compaction folding beside the writers (incremental_commit_test, which
# also carries `incr`). Any failing step fails the script.
#
# Usage: scripts/ci.sh [--fast]
#   --fast   tier-1 only (skip the sanitizer passes)
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
fi

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

run_preset() {
  local preset="$1"
  echo "==> [$preset] configure"
  cmake --preset "$preset"
  echo "==> [$preset] build"
  cmake --build --preset "$preset" -j "$JOBS"
  echo "==> [$preset] test"
  ctest --preset "$preset" -j "$JOBS"
}

run_preset ci

# Serving-layer loopback smoke, isolated for visibility: the wire-protocol
# end-to-end tests, the open-loop load smoke, and the dess_serve +
# dess_client script batch (which asserts a past-deadline request is
# rejected with DeadlineExceeded). All carry the ctest label `serve` and
# also run as part of the unfiltered ci pass above; this step makes a
# serving regression fail loudly under its own banner.
echo "==> [serve] loopback smoke (ctest -L serve)"
ctest --preset ci -L serve -j "$JOBS"

# The command-line front end over a snapshot directory (build, info,
# render, query, ingest, browse), isolated for visibility. Label `cli`;
# also part of the unfiltered ci pass above.
echo "==> [cli] dess_cli smoke (ctest -L cli)"
ctest --preset ci -L cli -j "$JOBS"

# Incremental ingest/commit contract, isolated for visibility: delta
# commits bit-identical to a frozen full rebuild, commit receipts,
# background compaction, and the durable-home (WAL) round trips. The WAL
# kill-point fuzz itself carries the `persist` label and runs with the
# other persistence parsers here and under ASan below.
echo "==> [incr] incremental ingest/commit suite (ctest -L incr)"
ctest --preset ci -L incr -j "$JOBS"

# Approximate-index contract, isolated for visibility: backend-registry
# error taxonomy, exact backends bit-identical through the registry, HNSW
# determinism across build thread counts, recall against exact ground
# truth (recall@10 >= 0.95 on the 113-row standard corpus and on a
# clustered 10k corpus of 100 groups of 100), and graph snapshot round
# trips. Label `ann`; also runs in the unfiltered ci pass above and under
# ASan below.
echo "==> [ann] index-backend registry + HNSW suite, recall@10 >= 0.95 on 113 rows and clustered 10k (ctest -L ann)"
ctest --preset ci -L ann -j "$JOBS"

# End-to-end benchmark harness: bench/e2e is its own CMake project that
# compiles against the engine API, and the tier-1 build never builds it,
# so an API change that breaks the harness fails here. Every workload runs
# once with --smoke (all answer checks on) and once with --perturb-check
# (a corrupted reference answer must make the run fail).
echo "==> [bench-e2e] benchmark harness build + smoke (bench/e2e/selftest.py)"
python3 bench/e2e/selftest.py

# Advisory perf comparison against the checked-in seed report: prints a
# per-benchmark delta table and flags >20% median regressions (plus the
# within-run commit-speedup and hnsw-recall gates). Wall-clock numbers
# vary across hosts, so a failure warns but does not gate.
if [[ -f BENCH_pipeline.json && -f BENCH_pipeline_seed.json ]]; then
  echo "==> [bench] advisory diff vs seed report"
  python3 scripts/bench_diff.py ||
    echo "bench_diff: regression flagged (advisory, non-gating)"
fi

if [[ "$FAST" == "0" ]]; then
  run_preset asan
  # The SIMD distance kernels under UBSan (label `kernel`, same asan
  # build tree: -fsanitize=address,undefined): misaligned loads or
  # out-of-bounds tail lanes in any ISA variant fail here.
  echo "==> [ubsan] kernel tests"
  ctest --preset ubsan -j "$JOBS"
  run_preset tsan
fi

echo "CI: all passes green"
