// End-to-end query throughput of the committed 113-shape system: top-k,
// threshold, multi-step, and combined-feature searches per second — the
// interactive-latency numbers a deployed 3DESS would care about.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/eval/experiments.h"
#include "src/search/combined.h"
#include "src/search/search_engine.h"

namespace {

using namespace dess;

const SearchEngine& Engine() { return bench::StandardSnapshot().engine(); }

const std::vector<int>& Queries() {
  static const std::vector<int>* q =
      new std::vector<int>(OneQueryPerGroup(bench::StandardSystem().db()));
  return *q;
}

void BM_TopKQuery(benchmark::State& state) {
  const FeatureKind kind = static_cast<FeatureKind>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    const int q = Queries()[i++ % Queries().size()];
    auto r = Engine().QueryById(q, QueryRequest::TopK(kind, 10));
    if (!r.ok()) {
      state.SkipWithError("query failed");
      return;
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(FeatureKindName(kind));
}
BENCHMARK(BM_TopKQuery)->DenseRange(0, kNumFeatureKinds - 1);

void BM_ThresholdQuery(benchmark::State& state) {
  size_t i = 0;
  for (auto _ : state) {
    const int q = Queries()[i++ % Queries().size()];
    auto r = Engine().QueryById(
        q, QueryRequest::Threshold(FeatureKind::kPrincipalMoments, 0.9));
    if (!r.ok()) {
      state.SkipWithError("query failed");
      return;
    }
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ThresholdQuery);

void BM_MultiStepQuery(benchmark::State& state) {
  const QueryRequest request =
      QueryRequest::MultiStep(MultiStepPlan::Standard(30, 10));
  size_t i = 0;
  for (auto _ : state) {
    const int q = Queries()[i++ % Queries().size()];
    auto r = Engine().QueryById(q, request);
    if (!r.ok()) {
      state.SkipWithError("query failed");
      return;
    }
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MultiStepQuery);

void BM_CombinedQuery(benchmark::State& state) {
  const CombinationWeights weights = CombinationWeights::Uniform();
  size_t i = 0;
  for (auto _ : state) {
    const int q = Queries()[i++ % Queries().size()];
    auto r = CombinedQueryById(Engine(), q, weights, 10);
    if (!r.ok()) {
      state.SkipWithError("query failed");
      return;
    }
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_CombinedQuery);

void BM_PrCurveSweep(benchmark::State& state) {
  for (auto _ : state) {
    auto r = PrCurveForQuery(Engine(), Queries()[0],
                             FeatureKind::kMomentInvariants, 21);
    if (!r.ok()) {
      state.SkipWithError("sweep failed");
      return;
    }
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PrCurveSweep);

}  // namespace

int main(int argc, char** argv) {
  Engine();  // one-time database load, outside any timed region
  Queries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
