// Tests for the FeatureSpaceRegistry: registration validation, the
// canonical four at pinned ordinals, registered spaces served end-to-end
// through every query surface, and bit-identical canonical results with
// and without an extra space.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/eval/experiments.h"
#include "src/features/extractors.h"
#include "src/features/feature_space.h"
#include "src/features/shape_distribution.h"
#include "src/modelgen/marching_cubes.h"
#include "src/modelgen/part_families.h"
#include "src/search/combined.h"
#include "src/search/relevance_feedback.h"
#include "src/search/search_engine.h"
#include "tests/test_util.h"

namespace dess {
namespace {

using testing_util::BuildSyntheticFeatureDb;
using testing_util::MakeSyntheticRegistry;
using testing_util::Ranked;
using testing_util::SyntheticExtraSpace;

FeatureSpaceDef ValidDef(const std::string& id = "custom_space",
                         int dim = 4) {
  FeatureSpaceDef def;
  def.id = id;
  def.dim = dim;
  def.extractor = [dim](const ExtractionArtifacts&) {
    FeatureVector fv;
    fv.values.assign(dim, 0.0);
    return Result<FeatureVector>(std::move(fv));
  };
  return def;
}

TEST(FeatureSpaceRegistryTest, CanonicalRegistryPinsTheFourSpaces) {
  std::shared_ptr<const FeatureSpaceRegistry> registry =
      FeatureSpaceRegistry::Canonical();
  ASSERT_EQ(registry->size(), kNumFeatureKinds);
  for (FeatureKind kind : AllFeatureKinds()) {
    const int ordinal = static_cast<int>(kind);
    EXPECT_EQ(registry->id(ordinal), CanonicalSpaceId(kind));
    EXPECT_EQ(registry->id(ordinal), FeatureKindName(kind));
    EXPECT_EQ(registry->dim(ordinal), FeatureDim(kind));
    EXPECT_EQ(registry->IndexOf(CanonicalSpaceId(kind)), ordinal);
    auto resolved = registry->Resolve(CanonicalSpaceId(kind));
    ASSERT_TRUE(resolved.ok());
    EXPECT_EQ(*resolved, ordinal);
  }
}

TEST(FeatureSpaceRegistryTest, ResolveUnknownIdIsInvalidArgument) {
  std::shared_ptr<const FeatureSpaceRegistry> registry =
      FeatureSpaceRegistry::Canonical();
  EXPECT_EQ(registry->IndexOf("no_such_space"), -1);
  auto resolved = registry->Resolve("no_such_space");
  ASSERT_FALSE(resolved.ok());
  EXPECT_EQ(resolved.status().code(), StatusCode::kInvalidArgument);
  // The error names the registered spaces so a caller can self-correct.
  EXPECT_NE(resolved.status().message().find("moment_invariants"),
            std::string::npos);
}

TEST(FeatureSpaceRegistryTest, RegisterValidatesDefinitions) {
  FeatureSpaceRegistry registry;

  FeatureSpaceDef bad_id = ValidDef("Has-Caps");
  EXPECT_EQ(registry.Register(bad_id).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register(ValidDef("")).status().code(),
            StatusCode::kInvalidArgument);

  FeatureSpaceDef dup = ValidDef("eigenvalues");  // canonical collision
  EXPECT_EQ(registry.Register(dup).status().code(),
            StatusCode::kInvalidArgument);

  FeatureSpaceDef zero_dim = ValidDef("zero_dim", 0);
  zero_dim.dim = 0;
  EXPECT_EQ(registry.Register(zero_dim).status().code(),
            StatusCode::kInvalidArgument);

  FeatureSpaceDef no_extractor = ValidDef("no_extractor");
  no_extractor.extractor = nullptr;
  EXPECT_EQ(registry.Register(no_extractor).status().code(),
            StatusCode::kInvalidArgument);

  FeatureSpaceDef bad_weights = ValidDef("bad_weights", 4);
  bad_weights.default_weights = {1.0, 1.0};  // wrong dimension
  EXPECT_EQ(registry.Register(bad_weights).status().code(),
            StatusCode::kInvalidArgument);
  bad_weights.default_weights = {1.0, 1.0, -1.0, 1.0};  // negative
  EXPECT_EQ(registry.Register(bad_weights).status().code(),
            StatusCode::kInvalidArgument);

  auto ordinal = registry.Register(ValidDef("fifth_space", 6));
  ASSERT_TRUE(ordinal.ok());
  EXPECT_EQ(*ordinal, kNumFeatureKinds);
  EXPECT_EQ(registry.size(), kNumFeatureKinds + 1);
  EXPECT_EQ(registry.id(kNumFeatureKinds), "fifth_space");
  EXPECT_EQ(registry.dim(kNumFeatureKinds), 6);

  // A second registration of the same id fails.
  EXPECT_EQ(registry.Register(ValidDef("fifth_space", 6)).status().code(),
            StatusCode::kInvalidArgument);
}

class ExtendedEngineTest : public ::testing::Test {
 protected:
  static constexpr int kExtraDim = 6;

  void SetUp() override {
    registry_ = MakeSyntheticRegistry({{"synth", kExtraDim}});
    db_ = std::make_shared<ShapeDatabase>(BuildSyntheticFeatureDb(
        4, 5, 3, /*seed=*/77, 0.05, 1.0, {{"synth", kExtraDim}}));
    SearchEngineOptions options;
    options.registry = registry_;
    auto engine = SearchEngine::Build(db_, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).value();
  }

  std::shared_ptr<const FeatureSpaceRegistry> registry_;
  std::shared_ptr<ShapeDatabase> db_;
  std::unique_ptr<SearchEngine> engine_;
};

TEST_F(ExtendedEngineTest, ServesTheExtraSpaceByIdOrdinalAndName) {
  ASSERT_EQ(engine_->NumSpaces(), kNumFeatureKinds + 1);
  auto by_name = Ranked(
      engine_->QueryById(0, QueryRequest::TopK(std::string("synth"), 5)));
  // The legacy `kind` field addresses a space by its registry ordinal.
  auto by_ordinal = Ranked(engine_->QueryById(
      0, QueryRequest::TopK(static_cast<FeatureKind>(kNumFeatureKinds), 5)));
  ASSERT_TRUE(by_name.ok()) << by_name.status().ToString();
  ASSERT_TRUE(by_ordinal.ok());
  ASSERT_EQ(by_name->size(), by_ordinal->size());
  for (size_t i = 0; i < by_name->size(); ++i) {
    EXPECT_EQ((*by_name)[i], (*by_ordinal)[i]);
  }
  // Group members cluster in the synthetic space, so the query's own group
  // should dominate the top results.
  std::set<int> group;
  for (int id : db_->GroupMembers(0)) group.insert(id);
  EXPECT_TRUE(group.count((*by_name)[0].id));
}

TEST_F(ExtendedEngineTest, ExtraSpaceWorksInEveryQueryMode) {
  // kTopK via QueryRequest.
  auto topk = engine_->QueryById(1, QueryRequest::TopK("synth", 4));
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  EXPECT_EQ(topk->results.size(), 4u);

  // kThreshold via QueryRequest.
  auto thresh = engine_->QueryById(1, QueryRequest::Threshold("synth", 0.5));
  ASSERT_TRUE(thresh.ok());
  for (const SearchResult& r : thresh->results) {
    EXPECT_GE(r.similarity, 0.5);
  }

  // kMultiStep with a stage addressing the registered space.
  MultiStepPlan plan;
  plan.stages.push_back({std::string("synth"), 8});
  plan.stages.push_back({FeatureKind::kGeometricParams, 3});
  auto ms = engine_->QueryById(1, QueryRequest::MultiStep(plan));
  ASSERT_TRUE(ms.ok()) << ms.status().ToString();
  EXPECT_EQ(ms->results.size(), 3u);

  // Combined search spans all five spaces.
  auto combined = CombinedQueryById(
      *engine_, 1, CombinationWeights::Uniform(engine_->NumSpaces()), 4);
  ASSERT_TRUE(combined.ok());
  EXPECT_EQ(combined->size(), 4u);
  auto only_extra = CombinedQueryById(
      *engine_, 1,
      CombinationWeights::Only(kNumFeatureKinds, engine_->NumSpaces()), 4);
  ASSERT_TRUE(only_extra.ok());
  // Only-extra combined search must agree with the one-shot ranking.
  auto one_shot = Ranked(
      engine_->QueryById(1, QueryRequest::TopK(std::string("synth"), 4)));
  ASSERT_TRUE(one_shot.ok());
  for (size_t i = 0; i < only_extra->size(); ++i) {
    EXPECT_EQ((*only_extra)[i].id, (*one_shot)[i].id) << i;
  }
}

TEST_F(ExtendedEngineTest, RelevanceFeedbackWorksOnRegisteredSpace) {
  const int query_id = 0;
  const std::vector<int> group = db_->GroupMembers(0);
  Feedback feedback;
  for (int id : group) {
    if (id != query_id) feedback.relevant_ids.push_back(id);
  }
  ASSERT_GE(feedback.relevant_ids.size(), 2u);

  auto raw = db_->Feature(query_id, kNumFeatureKinds);
  ASSERT_TRUE(raw.ok());
  std::vector<double> query = std::move(raw).value();
  std::vector<double> session_weights;
  auto round = FeedbackRound(*engine_, kNumFeatureKinds, &query,
                             &session_weights, feedback, 5);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(session_weights.size(), static_cast<size_t>(kExtraDim));
  // The reconstructed query moved toward the relevant centroid, so the
  // relevant group stays on top.
  std::set<int> group_set(group.begin(), group.end());
  EXPECT_TRUE(group_set.count((*round)[0].id));

  // Out-of-range ordinals are rejected, not UB.
  auto bad = ReconstructQuery(*engine_, engine_->NumSpaces(), query, feedback);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExtendedEngineTest, PrCurveExperimentCoversRegisteredSpaces) {
  auto bundles = RunPrCurveExperiment(*engine_, {0}, 5);
  ASSERT_TRUE(bundles.ok()) << bundles.status().ToString();
  ASSERT_EQ(bundles->size(), 1u);
  const PrCurveBundle& bundle = (*bundles)[0];
  ASSERT_EQ(bundle.curves.size(), static_cast<size_t>(engine_->NumSpaces()));
  ASSERT_EQ(bundle.spaces.size(), bundle.curves.size());
  EXPECT_EQ(bundle.spaces[kNumFeatureKinds], "synth");
  for (const auto& curve : bundle.curves) EXPECT_EQ(curve.size(), 5u);

  auto rows = RunAverageEffectiveness(*engine_);
  ASSERT_TRUE(rows.ok());
  // One row per space plus the multi-step row.
  EXPECT_EQ(rows->size(), static_cast<size_t>(engine_->NumSpaces()) + 1);
  EXPECT_EQ((*rows)[kNumFeatureKinds].method, "synth (one-shot)");
}

TEST(FeatureSpaceDeterminismTest,
     CanonicalResultsBitIdenticalWithAndWithoutExtraSpace) {
  constexpr uint64_t kSeed = 2026;
  auto db4 = std::make_shared<ShapeDatabase>(
      BuildSyntheticFeatureDb(3, 4, 2, kSeed));
  auto db5 = std::make_shared<ShapeDatabase>(BuildSyntheticFeatureDb(
      3, 4, 2, kSeed, 0.05, 1.0, {{"synth", 6}}));

  auto engine4 = SearchEngine::Build(db4);
  SearchEngineOptions extended;
  extended.registry = MakeSyntheticRegistry({{"synth", 6}});
  auto engine5 = SearchEngine::Build(db5, extended);
  ASSERT_TRUE(engine4.ok() && engine5.ok());

  for (FeatureKind kind : AllFeatureKinds()) {
    auto r4 = Ranked((*engine4)->QueryById(0, QueryRequest::TopK(kind, 8)));
    auto r5 = Ranked((*engine5)->QueryById(0, QueryRequest::TopK(kind, 8)));
    ASSERT_TRUE(r4.ok() && r5.ok());
    ASSERT_EQ(r4->size(), r5->size());
    for (size_t i = 0; i < r4->size(); ++i) {
      EXPECT_EQ((*r4)[i].id, (*r5)[i].id);
      EXPECT_EQ((*r4)[i].distance, (*r5)[i].distance);      // bit-identical
      EXPECT_EQ((*r4)[i].similarity, (*r5)[i].similarity);  // bit-identical
    }
  }
}

TEST(ShapeDistributionTest, D2FeatureIsDeterministicAndNormalized) {
  Rng rng(3);
  auto mesh = MeshSolid(*StandardPartFamilies()[0].build(&rng),
                        {.resolution = 24});
  ASSERT_TRUE(mesh.ok());
  D2Options options;
  const FeatureVector a = D2Feature(*mesh, options);
  const FeatureVector b = D2Feature(*mesh, options);
  ASSERT_EQ(a.dim(), options.num_bins);
  EXPECT_EQ(a.values, b.values);  // fixed internal seed => deterministic
  double sum = 0.0;
  for (double v : a.values) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ShapeDistributionTest, D2OfEmptyMeshIsZeros) {
  TriMesh empty;
  const FeatureVector fv = D2Feature(empty, {});
  ASSERT_EQ(fv.dim(), D2Options{}.num_bins);
  for (double v : fv.values) EXPECT_EQ(v, 0.0);
}

TEST(ShapeDistributionTest, D2RegistersThroughPublicApiEndToEnd) {
  auto registry = std::make_shared<FeatureSpaceRegistry>();
  ASSERT_TRUE(registry->Register(MakeD2SpaceDef()).ok());

  SystemOptions options;
  options.feature_spaces = registry;
  options.extraction.voxelization.resolution = 20;
  options.hierarchy.max_leaf_size = 4;
  Dess3System system(options);

  for (uint64_t s = 1; s <= 4; ++s) {
    Rng rng(s);
    auto mesh = MeshSolid(*StandardPartFamilies()[s % 2].build(&rng),
                          {.resolution = 24});
    ASSERT_TRUE(mesh.ok());
    ASSERT_TRUE(system
                    .IngestMesh(*mesh, "m" + std::to_string(s),
                                static_cast<int>(s % 2))
                    .ok());
  }
  ASSERT_TRUE(system.Commit().ok());

  // D2 pins itself to the linear scan: its per-space backend id outranks
  // the engine-wide R-tree default.
  auto snapshot = system.CurrentSnapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ((*snapshot)->engine().BackendIdAt(kNumFeatureKinds),
            kLinearScanBackendId);

  // Every ingested signature carries the fifth feature.
  for (const ShapeRecord& rec : system.db().records()) {
    ASSERT_EQ(rec.signature.NumSpaces(), kNumFeatureKinds + 1);
    const FeatureVector* d2 = rec.signature.Find(kD2SpaceId);
    ASSERT_NE(d2, nullptr);
    EXPECT_EQ(d2->dim(), D2Options{}.num_bins);
  }

  // Query by the D2 space through the public request API.
  auto response =
      system.QueryByShapeId(0, QueryRequest::TopK(kD2SpaceId, 3));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->results.size(), 3u);

  // Multi-step with a D2 stage.
  MultiStepPlan plan;
  plan.stages.push_back({std::string(kD2SpaceId), 3});
  plan.stages.push_back({FeatureKind::kGeometricParams, 2});
  auto ms = system.QueryByShapeId(0, QueryRequest::MultiStep(plan));
  ASSERT_TRUE(ms.ok()) << ms.status().ToString();
  EXPECT_EQ(ms->results.size(), 2u);

  // The browsing hierarchy of the registered space exists and covers the
  // database.
  auto hierarchy = system.Hierarchy(std::string(kD2SpaceId));
  ASSERT_TRUE(hierarchy.ok());
  EXPECT_EQ((*hierarchy)->members.size(), system.db().NumShapes());

  // Unknown ids keep failing InvalidArgument on the same surface.
  auto unknown = system.Hierarchy(std::string("not_registered"));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dess
