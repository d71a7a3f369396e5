// Figure 16 of the paper: average precision AND recall of the 26 queries
// when exactly 10 shapes are retrieved. The paper observes that the
// precisions look like scaled recalls because group sizes |A| are smaller
// than |R| = 10.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/eval/experiments.h"

int main() {
  using namespace dess;
  auto rows = RunAverageEffectiveness(bench::StandardSnapshot().engine());
  if (!rows.ok()) {
    std::fprintf(stderr, "%s\n", rows.status().ToString().c_str());
    return 1;
  }

  bench::PrintHeader(
      "Figure 16 -- Effectiveness of queries retrieving 10 shapes");
  std::printf("%-34s %-18s %-18s %-10s\n", "method", "avg recall@10",
              "avg precision@10", "P/R ratio");
  for (const EffectivenessRow& row : *rows) {
    std::printf("%-34s %-18.3f %-18.3f %-10.3f\n", row.method.c_str(),
                row.avg_recall_10, row.avg_precision_10,
                row.avg_recall_10 > 0
                    ? row.avg_precision_10 / row.avg_recall_10
                    : 0.0);
  }
  std::printf("\nNote: precision tracks recall scaled by ~|A|/10 because "
              "group sizes are below 10,\nthe same effect the paper reports "
              "for this protocol.\n");
  return 0;
}
