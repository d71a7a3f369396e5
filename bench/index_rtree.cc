// Section 2.3 of the paper: the R-tree index over feature vectors is
// "almost optimal for small real databases and efficient for large
// synthetic databases". This bench measures k-NN over (a) the real
// 113-shape feature database and (b) synthetic databases up to 100k
// points, comparing the R-tree against a sequential scan in both wall
// time (google-benchmark) and work counters (nodes visited / exact
// distance computations).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/index/linear_scan.h"
#include "src/index/rtree.h"
#include "src/index/single_attribute.h"

namespace {

using namespace dess;

std::vector<std::vector<double>> SyntheticClusteredPoints(int n, int dim,
                                                          uint64_t seed) {
  // Clustered like real feature data: points scatter around a few hundred
  // centers.
  Rng rng(seed);
  const int centers = std::max(8, n / 64);
  std::vector<std::vector<double>> cs(centers, std::vector<double>(dim));
  for (auto& c : cs) {
    for (double& v : c) v = rng.Uniform(-10, 10);
  }
  std::vector<std::vector<double>> pts(n, std::vector<double>(dim));
  for (auto& p : pts) {
    const auto& c = cs[rng.NextBounded(centers)];
    for (int d = 0; d < dim; ++d) p[d] = c[d] + rng.NextGaussian() * 0.5;
  }
  return pts;
}

void BM_RTreeKnnSynthetic(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int dim = 8;
  const auto pts = SyntheticClusteredPoints(n, dim, 7);
  RTreeIndex tree(dim);
  std::vector<std::pair<int, std::vector<double>>> bulk;
  for (int i = 0; i < n; ++i) bulk.emplace_back(i, pts[i]);
  if (!tree.BulkLoad(bulk).ok()) {
    state.SkipWithError("bulk load failed");
    return;
  }
  Rng rng(13);
  QueryStats stats;
  size_t queries = 0;
  for (auto _ : state) {
    const auto& q = pts[rng.NextBounded(n)];
    benchmark::DoNotOptimize(tree.KNearest(q, 10, {}, &stats));
    ++queries;
  }
  state.counters["points_compared_per_query"] =
      static_cast<double>(stats.points_compared) / queries;
  state.counters["nodes_per_query"] =
      static_cast<double>(stats.nodes_visited) / queries;
  state.counters["fraction_of_db_touched"] =
      static_cast<double>(stats.points_compared) / queries / n;
}
BENCHMARK(BM_RTreeKnnSynthetic)->Arg(113)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_LinearScanKnnSynthetic(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int dim = 8;
  const auto pts = SyntheticClusteredPoints(n, dim, 7);
  LinearScanIndex scan(dim);
  for (int i = 0; i < n; ++i) {
    if (!scan.Insert(i, pts[i]).ok()) {
      state.SkipWithError("insert failed");
      return;
    }
  }
  Rng rng(13);
  for (auto _ : state) {
    const auto& q = pts[rng.NextBounded(n)];
    benchmark::DoNotOptimize(scan.KNearest(q, 10));
  }
}
BENCHMARK(BM_LinearScanKnnSynthetic)
    ->Arg(113)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000);

// The one-dimensional baseline of Section 2.3 ("multidimensional index
// structures are more suitable than one-dimensional indexes, such as
// ubiquitously used B+ tree"): indexes the first feature dimension only.
void BM_SingleAttributeKnnSynthetic(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int dim = 8;
  const auto pts = SyntheticClusteredPoints(n, dim, 7);
  SingleAttributeIndex index(dim, 0);
  for (int i = 0; i < n; ++i) {
    if (!index.Insert(i, pts[i]).ok()) {
      state.SkipWithError("insert failed");
      return;
    }
  }
  Rng rng(13);
  QueryStats stats;
  size_t queries = 0;
  for (auto _ : state) {
    const auto& q = pts[rng.NextBounded(n)];
    benchmark::DoNotOptimize(index.KNearest(q, 10, {}, &stats));
    ++queries;
  }
  state.counters["points_compared_per_query"] =
      static_cast<double>(stats.points_compared) / queries;
  state.counters["fraction_of_db_touched"] =
      static_cast<double>(stats.points_compared) / queries / n;
}
BENCHMARK(BM_SingleAttributeKnnSynthetic)
    ->Arg(113)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000);

void BM_RTreeInsertSynthetic(benchmark::State& state) {
  const int dim = 8;
  const auto pts = SyntheticClusteredPoints(20000, dim, 7);
  size_t i = 0;
  auto tree = std::make_unique<RTreeIndex>(dim);
  for (auto _ : state) {
    if (tree->size() >= pts.size()) {
      state.PauseTiming();
      tree = std::make_unique<RTreeIndex>(dim);
      i = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(tree->Insert(static_cast<int>(i), pts[i]));
    ++i;
  }
}
BENCHMARK(BM_RTreeInsertSynthetic);

// Real-database k-NN on each feature space of the 113-shape DB, with work
// counters (this is the paper's "small real database" case).
void RealDatabaseReport() {
  const Dess3System& system = bench::StandardSystem();
  const SystemSnapshot& snapshot = bench::StandardSnapshot();
  bench::PrintHeader(
      "Section 2.3 -- R-tree efficiency on the real 113-shape database");
  std::printf("%-22s %-16s %-22s %-14s\n", "feature space",
              "nodes/query", "points compared/query", "of 113 (%)");
  for (FeatureKind kind : AllFeatureKinds()) {
    QueryStats stats;
    int queries = 0;
    for (const ShapeRecord& rec : system.db().records()) {
      auto r =
          snapshot.engine().QueryById(rec.id, QueryRequest::TopK(kind, 10));
      if (!r.ok()) continue;
      stats.MergeFrom(r->stats);
      ++queries;
    }
    std::printf("%-22s %-16.1f %-22.1f %-14.1f\n",
                FeatureKindName(kind).c_str(),
                static_cast<double>(stats.nodes_visited) / queries,
                static_cast<double>(stats.points_compared) / queries,
                100.0 * stats.points_compared / queries / 113.0);
  }
  std::printf("\n(sequential scan baseline: 113 points compared per "
              "query, i.e. 100%%)\n");
}

}  // namespace

int main(int argc, char** argv) {
  RealDatabaseReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
