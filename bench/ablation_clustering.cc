// Ablation: the three clustering algorithms of the SERVER layer (k-means,
// SOM, GA) compared on the real feature database against the 26-group
// ground truth (purity / Rand / adjusted Rand), per feature space.

#include <chrono>
#include <cstdio>

#include "bench/bench_common.h"
#include "src/cluster/ga_cluster.h"
#include "src/cluster/kmeans.h"
#include "src/cluster/metrics.h"
#include "src/cluster/som.h"

int main() {
  using namespace dess;
  const Dess3System& system = bench::StandardSystem();
  const SystemSnapshot& snapshot = bench::StandardSnapshot();

  bench::PrintHeader(
      "Ablation -- clustering algorithms vs 26-group ground truth");

  std::vector<int> truth;
  for (const ShapeRecord& rec : system.db().records()) {
    truth.push_back(rec.group);
  }

  std::printf("%-22s %-10s %-8s %-8s %-8s %-10s\n", "feature space",
              "algorithm", "purity", "rand", "ari", "ms");
  for (FeatureKind kind : AllFeatureKinds()) {
    std::vector<std::vector<double>> points;
    const SimilaritySpace& space =
        snapshot.engine().SpaceAt(static_cast<int>(kind));
    for (const ShapeRecord& rec : system.db().records()) {
      points.push_back(space.Standardize(rec.signature.Get(kind).values));
    }
    auto report = [&](const char* name, const Result<Clustering>& res,
                      double ms) {
      if (!res.ok()) {
        std::printf("%-22s %-10s failed: %s\n", FeatureKindName(kind).c_str(),
                    name, res.status().ToString().c_str());
        return;
      }
      std::printf("%-22s %-10s %-8.3f %-8.3f %-8.3f %-10.1f\n",
                  FeatureKindName(kind).c_str(), name,
                  ClusterPurity(res->assignment, truth),
                  RandIndex(res->assignment, truth),
                  AdjustedRandIndex(res->assignment, truth), ms);
    };
    auto timed = [&](auto fn) {
      const auto t0 = std::chrono::steady_clock::now();
      auto res = fn();
      const double ms =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count() /
          1000.0;
      return std::make_pair(std::move(res), ms);
    };

    {
      KMeansOptions opt;
      opt.k = 26;
      opt.seed = 3;
      auto [res, ms] = timed([&] { return KMeansCluster(points, opt); });
      report("kmeans", res, ms);
    }
    {
      SomOptions opt;
      opt.grid_w = 6;
      opt.grid_h = 5;  // 30 cells ~ 26 groups + slack
      auto [res, ms] = timed([&] { return SomCluster(points, opt); });
      report("som", res, ms);
    }
    {
      GaClusterOptions opt;
      opt.k = 26;
      opt.generations = 40;
      auto [res, ms] = timed([&] { return GaCluster(points, opt); });
      report("ga", res, ms);
    }
  }
  std::printf("\n(higher purity/ARI = browsing hierarchy cells align better "
              "with the manual groups)\n");
  return 0;
}
