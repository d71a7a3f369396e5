// Search-by-browsing (Sections 2.1-2.2): cluster the database with each of
// the three algorithms (k-means, SOM, GA), print quality against the
// ground-truth groups, then drill down the per-feature browsing hierarchy
// the way the interface's drill-down navigation would.

#include <cstdio>

#include "src/cluster/ga_cluster.h"
#include "src/cluster/kmeans.h"
#include "src/cluster/metrics.h"
#include "src/cluster/som.h"
#include "src/core/system.h"
#include "src/modelgen/dataset.h"

namespace {

using namespace dess;

void PrintTree(const Dess3System& system, const HierarchyNode* node,
               int depth, int max_depth) {
  std::printf("%*s+ %zu shapes", depth * 2, "", node->members.size());
  if (node->IsLeaf() || depth >= max_depth) {
    std::printf(" [");
    for (size_t i = 0; i < node->members.size() && i < 4; ++i) {
      auto rec = system.db().Get(node->members[i]);
      if (rec.ok()) std::printf("%s%s", i ? ", " : "", (*rec)->name.c_str());
    }
    if (node->members.size() > 4) std::printf(", ...");
    std::printf("]\n");
    return;
  }
  std::printf("\n");
  for (const auto& child : node->children) {
    PrintTree(system, child.get(), depth + 1, max_depth);
  }
}

}  // namespace

int main() {
  DatasetOptions ds_opt;
  ds_opt.seed = 33;
  ds_opt.mesh_resolution = 36;
  ds_opt.num_groups = 10;
  ds_opt.num_noise = 5;
  auto dataset = BuildStandardDataset(ds_opt);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  SystemOptions sys_opt;
  sys_opt.extraction.voxelization.resolution = 28;
  sys_opt.hierarchy.branch_factor = 3;
  sys_opt.hierarchy.max_leaf_size = 5;
  Dess3System system(sys_opt);
  if (!system.IngestDataset(*dataset).ok() || !system.Commit().ok()) {
    std::fprintf(stderr, "system build failed\n");
    return 1;
  }

  // Flat clustering comparison on principal moments.
  auto snapshot = system.CurrentSnapshot();
  if (!snapshot.ok()) {
    std::fprintf(stderr, "%s\n", snapshot.status().ToString().c_str());
    return 1;
  }
  std::vector<std::vector<double>> points;
  std::vector<int> truth;
  const SimilaritySpace& space =
      (*snapshot)->engine().SpaceAt(
          static_cast<int>(FeatureKind::kPrincipalMoments));
  for (const ShapeRecord& rec : system.db().records()) {
    points.push_back(space.Standardize(
        rec.signature.Get(FeatureKind::kPrincipalMoments).values));
    truth.push_back(rec.group);
  }
  std::printf("flat clustering on principal moments (k = %d):\n",
              system.db().NumGroups());
  {
    KMeansOptions opt;
    opt.k = system.db().NumGroups();
    auto res = KMeansCluster(points, opt);
    if (res.ok()) {
      std::printf("  kmeans: purity %.3f  ARI %.3f\n",
                  ClusterPurity(res->assignment, truth),
                  AdjustedRandIndex(res->assignment, truth));
    }
  }
  {
    SomOptions opt;
    opt.grid_w = 4;
    opt.grid_h = 3;
    auto res = SomCluster(points, opt);
    if (res.ok()) {
      std::printf("  som:    purity %.3f  ARI %.3f\n",
                  ClusterPurity(res->assignment, truth),
                  AdjustedRandIndex(res->assignment, truth));
    }
  }
  {
    GaClusterOptions opt;
    opt.k = system.db().NumGroups();
    auto res = GaCluster(points, opt);
    if (res.ok()) {
      std::printf("  ga:     purity %.3f  ARI %.3f\n",
                  ClusterPurity(res->assignment, truth),
                  AdjustedRandIndex(res->assignment, truth));
    }
  }

  // Drill-down view of the browsing hierarchy (per feature vector, as the
  // paper builds "the classification map for each feature vector").
  for (FeatureKind kind :
       {FeatureKind::kPrincipalMoments, FeatureKind::kGeometricParams}) {
    std::printf("\nbrowsing hierarchy by %s:\n",
                FeatureKindName(kind).c_str());
    auto root = system.Hierarchy(kind);
    if (root.ok()) PrintTree(system, *root, 0, 3);
  }
  return 0;
}
