// Multi-step search (Section 4.2 / Figures 13-14): retrieve a candidate
// set with one feature vector, then let the "user" filter the previous
// results with a second feature vector. Compares one-shot and multi-step
// precision/recall on the same queries.

#include <cstdio>

#include "src/core/system.h"
#include "src/eval/precision_recall.h"
#include "src/modelgen/dataset.h"
#include "src/search/search_engine.h"

int main() {
  using namespace dess;
  DatasetOptions ds_opt;
  ds_opt.seed = 21;
  ds_opt.mesh_resolution = 36;
  ds_opt.num_groups = 12;
  ds_opt.num_noise = 10;
  auto dataset = BuildStandardDataset(ds_opt);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  SystemOptions sys_opt;
  sys_opt.extraction.voxelization.resolution = 28;
  Dess3System system(sys_opt);
  if (!system.IngestDataset(*dataset).ok() || !system.Commit().ok()) {
    std::fprintf(stderr, "system build failed\n");
    return 1;
  }
  auto snapshot = system.CurrentSnapshot();
  if (!snapshot.ok()) {
    std::fprintf(stderr, "%s\n", snapshot.status().ToString().c_str());
    return 1;
  }

  // The paper's configuration: retrieve 30 with moment invariants, re-rank
  // with geometric parameters, present 10.
  const MultiStepPlan plan = MultiStepPlan::Standard(30, 10);

  std::printf("%-6s %-22s | %-9s %-9s | %-9s %-9s\n", "query", "group",
              "1shot P", "1shot R", "multi P", "multi R");
  double sum_one = 0.0, sum_multi = 0.0;
  int wins = 0, ties = 0, queries = 0;
  for (const ShapeRecord& rec : system.db().records()) {
    if (rec.group == kUngrouped) continue;
    const std::set<int> relevant = RelevantSetFor(system.db(), rec.id);
    if (relevant.empty()) continue;

    auto one_shot = (*snapshot)->QueryById(
        rec.id, QueryRequest::TopK(FeatureKind::kMomentInvariants, 10));
    auto multi =
        (*snapshot)->QueryById(rec.id, QueryRequest::MultiStep(plan));
    if (!one_shot.ok() || !multi.ok()) continue;

    std::vector<int> one_ids, multi_ids;
    for (const SearchResult& r : one_shot->results) one_ids.push_back(r.id);
    for (const SearchResult& r : multi->results) multi_ids.push_back(r.id);
    const PrPoint p1 = ComputePrecisionRecall(one_ids, relevant);
    const PrPoint pm = ComputePrecisionRecall(multi_ids, relevant);

    std::printf("%-6d %-22s | %-9.2f %-9.2f | %-9.2f %-9.2f\n", rec.id,
                rec.name.c_str(), p1.precision, p1.recall, pm.precision,
                pm.recall);
    sum_one += p1.recall;
    sum_multi += pm.recall;
    if (pm.recall > p1.recall) ++wins;
    if (pm.recall == p1.recall) ++ties;
    ++queries;
  }
  std::printf("\naverage recall@10: one-shot %.3f, multi-step %.3f "
              "(multi-step better on %d/%d, tied on %d)\n",
              sum_one / queries, sum_multi / queries, wins, queries, ties);
  return 0;
}
