// Figures 8-12 of the paper: precision-recall curves for five
// representative query shapes (one per group, distinct groups), one curve
// per feature vector, produced by sweeping the similarity threshold.
// Also reproduces the Figure 7 example: one query with moment invariants
// at threshold 0.85 (paper: Pr 0.50, Re 0.22).

// Pass an output directory as argv[1] to also write the curves as CSV
// (fig08_12_pr_curves.csv) for external plotting.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/eval/experiments.h"
#include "src/eval/report.h"

int main(int argc, char** argv) {
  using namespace dess;
  const Dess3System& system = bench::StandardSystem();
  const SystemSnapshot& snapshot = bench::StandardSnapshot();

  const std::vector<int> queries =
      PickRepresentativeQueries(system.db(), 5);
  auto bundles =
      RunPrCurveExperimentGrid(snapshot.engine(), queries,
                               DefaultThresholdGrid());
  if (!bundles.ok()) {
    std::fprintf(stderr, "%s\n", bundles.status().ToString().c_str());
    return 1;
  }

  if (argc > 1) {
    const std::string csv =
        std::string(argv[1]) + "/fig08_12_pr_curves.csv";
    if (Status st = WritePrCurvesCsv(*bundles, csv); st.ok()) {
      std::fprintf(stderr, "[bench] wrote %s\n", csv.c_str());
    } else {
      std::fprintf(stderr, "[bench] csv write failed: %s\n",
                   st.ToString().c_str());
    }
  }

  int fig = 8;
  for (const PrCurveBundle& bundle : *bundles) {
    bench::PrintHeader(
        "Figure " + std::to_string(fig++) + " -- Precision-recall, query '" +
        bundle.query_name + "' (id " + std::to_string(bundle.query_id) + ")");
    std::printf("%-10s", "threshold");
    for (FeatureKind kind : AllFeatureKinds()) {
      std::printf(" | %-9s %-9s", (FeatureKindName(kind).substr(0, 9) + "/P").c_str(),
                  "R");
    }
    std::printf("\n");
    const size_t n = bundle.curves[0].size();
    for (size_t t = 0; t < n; ++t) {
      std::printf("%-10.2f", bundle.curves[0][t].threshold);
      for (int k = 0; k < kNumFeatureKinds; ++k) {
        const PrPoint& p = bundle.curves[k][t];
        std::printf(" | %-9.3f %-9.3f", p.precision, p.recall);
      }
      std::printf("\n");
    }
  }

  // Figure 7: a single-query threshold-filter example with moment
  // invariants. The paper's example used threshold 0.85 on its similarity
  // scale and landed at Pr 0.50 / Re 0.22; the equivalent operating regime
  // on our scale sits higher, so we print the high-threshold sweep.
  bench::PrintHeader(
      "Figure 7 -- Example threshold query, moment invariants");
  const int q = queries[0];
  const std::set<int> relevant = RelevantSetFor(system.db(), q);
  std::printf("query id %d ('%s'), |A| = %zu\n", q,
              (*bundles)[0].query_name.c_str(), relevant.size());
  std::printf("%-11s %-11s %-10s %-10s\n", "threshold", "retrieved",
              "precision", "recall");
  for (double threshold : {0.85, 0.90, 0.93, 0.95, 0.97, 0.99}) {
    auto response = snapshot.engine().QueryById(
        q, QueryRequest::Threshold(FeatureKind::kMomentInvariants, threshold));
    if (!response.ok()) continue;
    std::vector<int> ids;
    for (const SearchResult& r : response->results) ids.push_back(r.id);
    const PrPoint p = ComputePrecisionRecall(ids, relevant);
    std::printf("%-11.2f %-11d %-10.2f %-10.2f\n", threshold, p.retrieved,
                p.precision, p.recall);
  }
  std::printf("\npaper example at its threshold 0.85: precision 0.50, "
              "recall 0.22 -- the same\nhigh-precision/low-recall regime "
              "appears at the top of the sweep above\n");
  return 0;
}
