// Quickstart: build a small engineering-shape database, submit a query by
// example, and print the ranked results with precision/recall against the
// ground truth — the end-to-end workflow of the paper's Figure 2.
//
// Usage: quickstart [num_groups] [noise_shapes]

#include <cstdio>
#include <cstdlib>

#include "src/core/system.h"
#include "src/eval/precision_recall.h"
#include "src/modelgen/dataset.h"

int main(int argc, char** argv) {
  using namespace dess;
  const int num_groups = argc > 1 ? std::atoi(argv[1]) : 10;
  const int num_noise = argc > 2 ? std::atoi(argv[2]) : 8;

  // 1. Generate a parametric CAD dataset (the stand-in for a PDM system's
  //    model repository).
  DatasetOptions ds_opt;
  ds_opt.seed = 7;
  ds_opt.mesh_resolution = 36;
  ds_opt.num_groups = num_groups;
  ds_opt.num_noise = num_noise;
  auto dataset = BuildStandardDataset(ds_opt);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("generated %zu shapes in %d groups (+%d noise)\n",
              dataset->shapes.size(), dataset->num_groups, num_noise);

  // 2. Ingest: every shape runs through normalization -> voxelization ->
  //    skeletonization -> feature collection, then Commit() builds the
  //    R-tree indexes.
  SystemOptions sys_opt;
  sys_opt.extraction.voxelization.resolution = 28;
  Dess3System system(sys_opt);
  if (Status st = system.IngestDataset(*dataset); !st.ok()) {
    std::fprintf(stderr, "ingest: %s\n", st.ToString().c_str());
    return 1;
  }
  auto receipt = system.Commit();
  if (!receipt.ok()) {
    std::fprintf(stderr, "commit: %s\n", receipt.status().ToString().c_str());
    return 1;
  }
  std::printf("indexed %zu shapes at epoch %llu "
              "(4 feature spaces, R-tree each)\n\n",
              system.db().NumShapes(),
              static_cast<unsigned long long>(receipt->epoch));

  // 3. Query by example: pick the first shape of group 0 and search each
  //    feature space through the snapshot published by Commit().
  auto snapshot = system.CurrentSnapshot();
  if (!snapshot.ok()) {
    std::fprintf(stderr, "snapshot: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  const int query_id = 0;
  auto query_rec = system.db().Get(query_id);
  std::printf("query shape: '%s' (group %d)\n", (*query_rec)->name.c_str(),
              (*query_rec)->group);
  const std::set<int> relevant = RelevantSetFor(system.db(), query_id);

  for (FeatureKind kind : AllFeatureKinds()) {
    auto response =
        (*snapshot)->QueryById(query_id, QueryRequest::TopK(kind, 5));
    if (!response.ok()) {
      std::fprintf(stderr, "query: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    std::printf("\ntop-5 by %s (epoch %llu):\n", FeatureKindName(kind).c_str(),
                static_cast<unsigned long long>(response->epoch));
    std::vector<int> ids;
    for (const SearchResult& r : response->results) {
      auto rec = system.db().Get(r.id);
      std::printf("  %-24s sim=%.3f dist=%.3f %s\n", (*rec)->name.c_str(),
                  r.similarity, r.distance,
                  relevant.count(r.id) ? "[relevant]" : "");
      ids.push_back(r.id);
    }
    const PrPoint pr = ComputePrecisionRecall(ids, relevant);
    std::printf("  precision %.2f, recall %.2f\n", pr.precision, pr.recall);
  }

  // 4. Persist the published snapshot and reopen it cold: the reopened
  //    system answers at the same epoch with identical results, without
  //    re-running the geometry pipeline or recalibrating; it builds its
  //    indexes from the loaded records, as Commit() does.
  const std::string snap_dir = "quickstart_snapshot";
  SaveOptions save_opt;
  save_opt.overwrite = true;
  if (Status st = system.SaveSnapshot(snap_dir, save_opt); !st.ok()) {
    std::fprintf(stderr, "save snapshot: %s\n", st.ToString().c_str());
    return 1;
  }
  auto reopened = Dess3System::OpenFromSnapshot(snap_dir);
  if (!reopened.ok()) {
    std::fprintf(stderr, "reopen: %s\n",
                 reopened.status().ToString().c_str());
    return 1;
  }
  auto re_response = (*reopened)->QueryByShapeId(
      query_id, QueryRequest::TopK(FeatureKind::kMomentInvariants, 5));
  if (!re_response.ok()) {
    std::fprintf(stderr, "reopened query: %s\n",
                 re_response.status().ToString().c_str());
    return 1;
  }
  std::printf("\nsaved -> %s, reopened at epoch %llu; top result '%s'\n",
              snap_dir.c_str(),
              static_cast<unsigned long long>((*reopened)->PublishedEpoch()),
              (*(*reopened)->db().Get(re_response->results[0].id))
                  ->name.c_str());
  return 0;
}
