// Pins the error-code taxonomy of the QueryRequest/QueryResponse serving
// API: uncommitted and invalidated query paths uniformly return
// FailedPrecondition, expired deadlines return DeadlineExceeded, malformed
// requests return InvalidArgument, and unknown shapes return NotFound.
// Callers are expected to branch on these codes, so they are contract.

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <string>

#include "src/common/metrics.h"
#include "src/core/system.h"
#include "src/modelgen/marching_cubes.h"
#include "src/modelgen/part_families.h"
#include "tests/test_util.h"

namespace dess {
namespace {

/// A probe mesh for QueryByMesh: the fixture's records are synthetic, but
/// they carry the canonical four spaces a mesh extracts.
TriMesh ProbeMesh() {
  Rng rng(5);
  auto mesh =
      MeshSolid(*StandardPartFamilies()[0].build(&rng), {.resolution = 24});
  DESS_CHECK(mesh.ok());
  return std::move(mesh).value();
}

uint64_t CounterValue(const std::string& name) {
  for (const CounterSample& c : MetricsRegistry::Global()->Snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

uint64_t HistogramCount(const std::string& name) {
  for (const HistogramSample& h :
       MetricsRegistry::Global()->Snapshot().histograms) {
    if (h.name == name) return h.count;
  }
  return 0;
}

SystemOptions FastSystemOptions() {
  SystemOptions opt;
  opt.hierarchy.max_leaf_size = 4;
  return opt;
}

class QueryApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    system_ = std::make_unique<Dess3System>(FastSystemOptions());
    db_ = testing_util::BuildSyntheticFeatureDb(3, 3, 1);
    for (const ShapeRecord& rec : db_.records()) {
      ASSERT_TRUE(system_->Ingest(rec, {}).ok());
    }
  }

  const ShapeSignature& Probe() {
    return (*db_.Get(0))->signature;
  }

  ShapeDatabase db_;
  std::unique_ptr<Dess3System> system_;
};

TEST_F(QueryApiTest, UncommittedPathsReturnFailedPrecondition) {
  // Every read entry point must agree on the code before the first
  // Commit(): FailedPrecondition, not NotFound or InvalidArgument.
  const QueryRequest request =
      QueryRequest::TopK(FeatureKind::kPrincipalMoments, 2);
  auto by_sig = system_->QueryBySignature(Probe(), request);
  ASSERT_FALSE(by_sig.ok());
  EXPECT_EQ(by_sig.status().code(), StatusCode::kFailedPrecondition);
  auto by_id = system_->QueryByShapeId(0, request);
  ASSERT_FALSE(by_id.ok());
  EXPECT_EQ(by_id.status().code(), StatusCode::kFailedPrecondition);
  auto snapshot = system_->CurrentSnapshot();
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kFailedPrecondition);
  auto hierarchy = system_->Hierarchy(FeatureKind::kSpectral);
  ASSERT_FALSE(hierarchy.ok());
  EXPECT_EQ(hierarchy.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(QueryApiTest, UncommittedQueryByMeshFailsBeforeExtracting) {
  const uint64_t extractions = CounterValue("pipeline.extractions");
  auto response = system_->QueryByMesh(
      ProbeMesh(), QueryRequest::TopK(FeatureKind::kSpectral, 2));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(CounterValue("pipeline.extractions"), extractions);
}

TEST_F(QueryApiTest, QueryByMeshUnknownSpaceFailsBeforeExtracting) {
  ASSERT_TRUE(system_->Commit().ok());
  const uint64_t extractions = CounterValue("pipeline.extractions");
  auto response =
      system_->QueryByMesh(ProbeMesh(), QueryRequest::TopK("no_such", 2));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response.status().message().find(
                "registered: moment_invariants, geometric_params, "
                "principal_moments, eigenvalues"),
            std::string::npos)
      << response.status().ToString();
  EXPECT_EQ(CounterValue("pipeline.extractions"), extractions);
}

TEST_F(QueryApiTest, QueryByMeshExpiredDeadlineSkipsExtraction) {
  // An expired budget fails DeadlineExceeded before the pipeline runs: no
  // thinning, no extraction span.
  ASSERT_TRUE(system_->Commit().ok());
  const uint64_t thins = HistogramCount("stage.thin");
  const uint64_t extracts = HistogramCount("pipeline.extract");
  QueryRequest request = QueryRequest::TopK(FeatureKind::kSpectral, 2)
                             .WithDeadlineAfter(std::chrono::seconds(-1));
  auto response = system_->QueryByMesh(ProbeMesh(), request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(HistogramCount("stage.thin"), thins);
  EXPECT_EQ(HistogramCount("pipeline.extract"), extracts);
}

TEST_F(QueryApiTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  ASSERT_TRUE(system_->Commit().ok());
  QueryRequest request = QueryRequest::TopK(FeatureKind::kPrincipalMoments, 2);
  request.WithDeadlineAfter(std::chrono::seconds(-1));
  ASSERT_TRUE(request.has_deadline());
  auto response = system_->QueryBySignature(Probe(), request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);

  QueryRequest multi = QueryRequest::MultiStep(MultiStepPlan::Standard(4, 2))
                           .WithDeadlineAfter(std::chrono::seconds(-1));
  auto multistep = system_->QueryByShapeId(0, multi);
  ASSERT_FALSE(multistep.ok());
  EXPECT_EQ(multistep.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(QueryApiTest, FutureDeadlinePasses) {
  ASSERT_TRUE(system_->Commit().ok());
  QueryRequest request = QueryRequest::TopK(FeatureKind::kPrincipalMoments, 2)
                             .WithDeadlineAfter(std::chrono::hours(1));
  auto response = system_->QueryByShapeId(0, request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->results.size(), 2u);
}

TEST_F(QueryApiTest, MalformedWeightsReturnInvalidArgument) {
  ASSERT_TRUE(system_->Commit().ok());
  QueryRequest request = QueryRequest::TopK(FeatureKind::kPrincipalMoments, 2);
  request.weights = {1.0, 2.0};  // wrong dimension
  auto wrong_dim = system_->QueryByShapeId(0, request);
  ASSERT_FALSE(wrong_dim.ok());
  EXPECT_EQ(wrong_dim.status().code(), StatusCode::kInvalidArgument);

  request.weights.assign(FeatureDim(FeatureKind::kPrincipalMoments), 1.0);
  request.weights[0] = -1.0;
  auto negative = system_->QueryByShapeId(0, request);
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);

  QueryRequest multi = QueryRequest::MultiStep(MultiStepPlan::Standard(4, 2));
  multi.weights.assign(FeatureDim(FeatureKind::kMomentInvariants), 1.0);
  auto multistep = system_->QueryByShapeId(0, multi);
  ASSERT_FALSE(multistep.ok());
  EXPECT_EQ(multistep.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(QueryApiTest, UnknownSpaceIdReturnsInvalidArgument) {
  // Addressing a feature space that is not registered with the serving
  // engine is a malformed request — InvalidArgument, never NotFound or a
  // crash — on every surface that accepts a space id.
  ASSERT_TRUE(system_->Commit().ok());

  auto topk = system_->QueryByShapeId(0, QueryRequest::TopK("no_such", 2));
  ASSERT_FALSE(topk.ok());
  EXPECT_EQ(topk.status().code(), StatusCode::kInvalidArgument);

  auto by_sig =
      system_->QueryBySignature(Probe(), QueryRequest::TopK("no_such", 2));
  ASSERT_FALSE(by_sig.ok());
  EXPECT_EQ(by_sig.status().code(), StatusCode::kInvalidArgument);

  auto threshold =
      system_->QueryByShapeId(0, QueryRequest::Threshold("no_such", 0.5));
  ASSERT_FALSE(threshold.ok());
  EXPECT_EQ(threshold.status().code(), StatusCode::kInvalidArgument);

  // A multi-step stage addressing an unknown space fails the same way.
  MultiStepPlan plan;
  plan.stages.push_back({FeatureKind::kMomentInvariants, 4});
  plan.stages.push_back({std::string("no_such"), 2});
  auto multistep = system_->QueryByShapeId(0, QueryRequest::MultiStep(plan));
  ASSERT_FALSE(multistep.ok());
  EXPECT_EQ(multistep.status().code(), StatusCode::kInvalidArgument);

  // Canonical ids resolve on the same surface, pinning the id spelling.
  auto canonical = system_->QueryByShapeId(
      0, QueryRequest::TopK("principal_moments", 2));
  ASSERT_TRUE(canonical.ok()) << canonical.status().ToString();
  auto by_kind = system_->QueryByShapeId(
      0, QueryRequest::TopK(FeatureKind::kPrincipalMoments, 2));
  ASSERT_TRUE(by_kind.ok());
  ASSERT_EQ(canonical->results.size(), by_kind->results.size());
  for (size_t i = 0; i < canonical->results.size(); ++i) {
    EXPECT_TRUE(canonical->results[i] == by_kind->results[i]) << i;
  }
}

TEST_F(QueryApiTest, UnknownShapeReturnsNotFound) {
  ASSERT_TRUE(system_->Commit().ok());
  auto response = system_->QueryByShapeId(
      9999, QueryRequest::TopK(FeatureKind::kPrincipalMoments, 2));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
}

TEST_F(QueryApiTest, PerRequestWeightsMatchInstalledWeights) {
  ASSERT_TRUE(system_->Commit().ok());
  auto snapshot = system_->CurrentSnapshot();
  ASSERT_TRUE(snapshot.ok());
  const FeatureKind kind = FeatureKind::kPrincipalMoments;

  // Unit weights equal the default installed weights, so the weighted
  // request must be bit-identical to the unweighted one.
  QueryRequest plain = QueryRequest::TopK(kind, 4);
  QueryRequest weighted = plain;
  weighted.weights.assign(FeatureDim(kind), 1.0);
  auto a = (*snapshot)->QueryById(0, plain);
  auto b = (*snapshot)->QueryById(0, weighted);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->results.size(), b->results.size());
  for (size_t i = 0; i < a->results.size(); ++i) {
    EXPECT_TRUE(a->results[i] == b->results[i]) << "rank " << i;
  }
}

TEST_F(QueryApiTest, ByIdTopKSaturatesHugeKAndHonorsZero) {
  // A wire k is a raw u64: SIZE_MAX must mean "every other shape" rather
  // than wrap the by-id over-fetch (k + 1, for the excluded query) to 0,
  // and k = 0 must return nothing.
  ASSERT_TRUE(system_->Commit().ok());
  const FeatureKind kind = FeatureKind::kPrincipalMoments;
  auto huge = system_->QueryByShapeId(
      0, QueryRequest::TopK(kind, std::numeric_limits<size_t>::max()));
  auto all =
      system_->QueryByShapeId(0, QueryRequest::TopK(kind, db_.NumShapes()));
  ASSERT_TRUE(huge.ok()) << huge.status().ToString();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->results.size(), db_.NumShapes() - 1);
  ASSERT_EQ(huge->results.size(), all->results.size());
  for (size_t i = 0; i < all->results.size(); ++i) {
    EXPECT_TRUE(huge->results[i] == all->results[i]) << "rank " << i;
  }

  auto none = system_->QueryByShapeId(0, QueryRequest::TopK(kind, 0));
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_TRUE(none->results.empty());
}

TEST_F(QueryApiTest, ThresholdModeHonorsFloor) {
  ASSERT_TRUE(system_->Commit().ok());
  auto response = system_->QueryByShapeId(
      0, QueryRequest::Threshold(FeatureKind::kPrincipalMoments, 0.9));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  for (const SearchResult& r : response->results) {
    EXPECT_GE(r.similarity, 0.9);
    EXPECT_NE(r.id, 0);
  }
}

}  // namespace
}  // namespace dess
