#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "src/core/system.h"
#include "src/features/shape_distribution.h"
#include "src/modelgen/marching_cubes.h"
#include "src/modelgen/part_families.h"
#include "tests/test_util.h"

namespace dess {
namespace {

SystemOptions FastSystemOptions() {
  SystemOptions opt;
  opt.extraction.voxelization.resolution = 20;
  opt.hierarchy.max_leaf_size = 4;
  return opt;
}

Result<TriMesh> QuickMesh(uint64_t seed, int family = 0) {
  Rng rng(seed);
  return MeshSolid(*StandardPartFamilies()[family].build(&rng),
                   {.resolution = 28});
}

TEST(SystemTest, CommitRequiresShapes) {
  Dess3System system(FastSystemOptions());
  EXPECT_FALSE(system.Commit().ok());
  auto snapshot = system.CurrentSnapshot();
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kFailedPrecondition);
  auto hierarchy = system.Hierarchy(FeatureKind::kSpectral);
  ASSERT_FALSE(hierarchy.ok());
  EXPECT_EQ(hierarchy.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SystemTest, IngestExtractsAllFeatures) {
  Dess3System system(FastSystemOptions());
  auto mesh = QuickMesh(1);
  ASSERT_TRUE(mesh.ok());
  auto id = system.IngestMesh(*mesh, "bracket", 0);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, 0);
  auto rec = system.db().Get(0);
  ASSERT_TRUE(rec.ok());
  for (FeatureKind kind : AllFeatureKinds()) {
    EXPECT_EQ((*rec)->signature.Get(kind).dim(), FeatureDim(kind));
  }
}

TEST(SystemTest, QueryLifecycleAndInvalidation) {
  Dess3System system(FastSystemOptions());
  for (uint64_t s = 1; s <= 4; ++s) {
    auto mesh = QuickMesh(s, s % 2);  // two families
    ASSERT_TRUE(mesh.ok());
    ASSERT_TRUE(system.IngestMesh(*mesh, "m" + std::to_string(s),
                                  static_cast<int>(s % 2))
                    .ok());
  }
  ASSERT_TRUE(system.Commit().ok());
  ASSERT_TRUE(system.IsCommitted());
  EXPECT_EQ(system.PublishedEpoch(), 1u);
  auto response = system.QueryByShapeId(
      0, QueryRequest::TopK(FeatureKind::kPrincipalMoments, 2));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->results.size(), 2u);
  EXPECT_EQ(response->epoch, 1u);

  // Ingesting marks the system dirty, but the published snapshot keeps
  // serving its epoch until the next Commit().
  auto mesh = QuickMesh(9);
  ASSERT_TRUE(mesh.ok());
  ASSERT_TRUE(system.IngestMesh(*mesh, "late", 0).ok());
  EXPECT_FALSE(system.IsCommitted());
  auto stale = system.QueryByShapeId(
      0, QueryRequest::TopK(FeatureKind::kPrincipalMoments, 2));
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->epoch, 1u);
  auto snapshot = system.CurrentSnapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_LT((*snapshot)->db().NumShapes(), system.db().NumShapes());
  ASSERT_TRUE(system.Commit().ok());
  EXPECT_TRUE(system.IsCommitted());
  EXPECT_EQ(system.PublishedEpoch(), 2u);
}

TEST(SystemTest, QueryByExternalMesh) {
  Dess3System system(FastSystemOptions());
  for (uint64_t s = 1; s <= 3; ++s) {
    auto mesh = QuickMesh(s, 0);
    ASSERT_TRUE(mesh.ok());
    ASSERT_TRUE(system.IngestMesh(*mesh, "a" + std::to_string(s), 0).ok());
  }
  for (uint64_t s = 1; s <= 3; ++s) {
    auto mesh = QuickMesh(s + 10, 7);  // straight tubes
    ASSERT_TRUE(mesh.ok());
    ASSERT_TRUE(system.IngestMesh(*mesh, "b" + std::to_string(s), 1).ok());
  }
  ASSERT_TRUE(system.Commit().ok());

  // Query with a fresh tube (not in the DB): tube group should dominate.
  auto probe = QuickMesh(42, 7);
  ASSERT_TRUE(probe.ok());
  auto response = system.QueryByMesh(
      *probe, QueryRequest::TopK(FeatureKind::kPrincipalMoments, 3));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->results.size(), 3u);
  int tube_hits = 0;
  for (const SearchResult& r : response->results) {
    auto rec = system.db().Get(r.id);
    ASSERT_TRUE(rec.ok());
    if ((*rec)->group == 1) ++tube_hits;
  }
  EXPECT_GE(tube_hits, 2);
}

TEST(SystemTest, MultiStepByMesh) {
  Dess3System system(FastSystemOptions());
  for (uint64_t s = 1; s <= 6; ++s) {
    auto mesh = QuickMesh(s, s % 3);
    ASSERT_TRUE(mesh.ok());
    ASSERT_TRUE(system
                    .IngestMesh(*mesh, "m" + std::to_string(s),
                                static_cast<int>(s % 3))
                    .ok());
  }
  ASSERT_TRUE(system.Commit().ok());
  auto probe = QuickMesh(50, 0);
  ASSERT_TRUE(probe.ok());
  auto response = system.QueryByMesh(
      *probe, QueryRequest::MultiStep(MultiStepPlan::Standard(4, 2)));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->results.size(), 2u);
}

TEST(SystemTest, QueryByMeshMatchesFullExtractionForEveryRequest) {
  // QueryByMesh extracts only the spaces a request searches; its answers
  // must equal those of the fully extracted signature for the mesh-query
  // mix: top-k on each of the four canonical spaces and D2, then the
  // paper's multi-step plan.
  auto registry = std::make_shared<FeatureSpaceRegistry>();
  ASSERT_TRUE(registry->Register(MakeD2SpaceDef()).ok());
  SystemOptions options = FastSystemOptions();
  options.feature_spaces = registry;
  Dess3System system(options);
  for (uint64_t s = 1; s <= 8; ++s) {
    auto mesh = QuickMesh(s, static_cast<int>(s % 4) * 3);
    ASSERT_TRUE(mesh.ok());
    ASSERT_TRUE(system.IngestMesh(*mesh, "m" + std::to_string(s)).ok());
  }
  ASSERT_TRUE(system.Commit().ok());

  std::vector<QueryRequest> requests;
  for (int ordinal = 0; ordinal < registry->size(); ++ordinal) {
    requests.push_back(QueryRequest::TopK(registry->id(ordinal), 5));
  }
  requests.push_back(QueryRequest::MultiStep(MultiStepPlan::Standard(6, 3)));
  for (uint64_t seed : {60, 61}) {
    auto probe = QuickMesh(seed, static_cast<int>(seed % 4) * 3);
    ASSERT_TRUE(probe.ok());
    auto signature = ExtractSignature(*probe, system.options().extraction);
    ASSERT_TRUE(signature.ok()) << signature.status().ToString();
    for (size_t r = 0; r < requests.size(); ++r) {
      auto by_mesh = system.QueryByMesh(*probe, requests[r]);
      auto by_signature = system.QueryBySignature(*signature, requests[r]);
      ASSERT_TRUE(by_mesh.ok()) << by_mesh.status().ToString();
      ASSERT_TRUE(by_signature.ok()) << by_signature.status().ToString();
      EXPECT_FALSE(by_mesh->results.empty()) << "request " << r;
      EXPECT_EQ(by_mesh->results, by_signature->results) << "request " << r;
      EXPECT_EQ(by_mesh->epoch, by_signature->epoch);
    }
  }
}

TEST(SystemTest, HierarchiesBuiltPerFeature) {
  Dess3System system(FastSystemOptions());
  ShapeDatabase synthetic = testing_util::BuildSyntheticFeatureDb(4, 4, 2);
  for (const ShapeRecord& rec : synthetic.records()) {
    ASSERT_TRUE(system.Ingest(rec, {}).ok());
  }
  ASSERT_TRUE(system.Commit().ok());
  for (FeatureKind kind : AllFeatureKinds()) {
    auto h = system.Hierarchy(kind);
    ASSERT_TRUE(h.ok()) << FeatureKindName(kind);
    EXPECT_EQ((*h)->members.size(), system.db().NumShapes());
  }
}

TEST(SystemTest, ParallelIngestMatchesSequential) {
  DatasetOptions ds_opt;
  ds_opt.seed = 12;
  ds_opt.mesh_resolution = 24;
  ds_opt.num_groups = 4;
  ds_opt.num_noise = 2;
  auto dataset = BuildStandardDataset(ds_opt);
  ASSERT_TRUE(dataset.ok());

  Dess3System seq(FastSystemOptions());
  Dess3System par(FastSystemOptions());
  ASSERT_TRUE(seq.IngestDataset(*dataset).ok());
  ASSERT_TRUE(par.IngestDataset(*dataset, IngestOptions{.num_threads = 3}).ok());

  ASSERT_EQ(seq.db().NumShapes(), par.db().NumShapes());
  for (const ShapeRecord& a : seq.db().records()) {
    auto b = par.db().Get(a.id);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.name, (*b)->name);
    EXPECT_EQ(a.group, (*b)->group);
    for (FeatureKind kind : AllFeatureKinds()) {
      const auto& va = a.signature.Get(kind).values;
      const auto& vb = (*b)->signature.Get(kind).values;
      ASSERT_EQ(va.size(), vb.size());
      for (size_t d = 0; d < va.size(); ++d) {
        EXPECT_EQ(va[d], vb[d])
            << FeatureKindName(kind) << " shape " << a.id;
      }
    }
  }
}

TEST(SystemTest, SaveLoadRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("dess_sys_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "sys").string();

  Dess3System system(FastSystemOptions());
  ShapeDatabase synthetic = testing_util::BuildSyntheticFeatureDb(3, 3, 1);
  for (const ShapeRecord& rec : synthetic.records()) {
    ASSERT_TRUE(system.Ingest(rec, {}).ok());
  }
  ASSERT_TRUE(system.Commit().ok());
  ASSERT_TRUE(system.SaveSnapshot(path).ok());

  auto loaded = Dess3System::OpenFromSnapshot(path, {}, FastSystemOptions());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->db().NumShapes(), system.db().NumShapes());
  EXPECT_TRUE((*loaded)->IsCommitted());
  auto snapshot = (*loaded)->CurrentSnapshot();
  ASSERT_TRUE(snapshot.ok());
  auto results = testing_util::Ranked((*snapshot)->engine().QueryById(
      0, QueryRequest::TopK(FeatureKind::kPrincipalMoments, 2)));
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 2u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dess
