#include <gtest/gtest.h>

#include <algorithm>

#include "src/search/search_engine.h"
#include "tests/test_util.h"

namespace dess {
namespace {

using testing_util::BuildSyntheticFeatureDb;
using testing_util::ProbeAt;
using testing_util::Ranked;

constexpr int kPrincipal = static_cast<int>(FeatureKind::kPrincipalMoments);
constexpr int kGeometric = static_cast<int>(FeatureKind::kGeometricParams);

class SearchEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = BuildSyntheticFeatureDb(8, 5, 10);
    auto engine =
        SearchEngine::Build(std::make_shared<const ShapeDatabase>(db_));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(*engine);
  }
  ShapeDatabase db_;
  std::unique_ptr<SearchEngine> engine_;
};

TEST_F(SearchEngineTest, BuildRejectsEmptyDb) {
  ShapeDatabase empty;
  EXPECT_FALSE(
      SearchEngine::Build(std::make_shared<const ShapeDatabase>(empty)).ok());
  EXPECT_FALSE(SearchEngine::Build(nullptr).ok());
}

TEST_F(SearchEngineTest, QueryByIdFindsGroupMembersFirst) {
  // With tight groups, the top-(group_size-1) results for any member are
  // its group mates.
  for (int q : {0, 5, 17}) {
    auto results = Ranked(engine_->QueryById(
        q, QueryRequest::TopK(FeatureKind::kPrincipalMoments, 4)));
    ASSERT_TRUE(results.ok());
    ASSERT_EQ(results->size(), 4u);
    auto qrec = db_.Get(q);
    ASSERT_TRUE(qrec.ok());
    for (const SearchResult& r : *results) {
      auto rec = db_.Get(r.id);
      ASSERT_TRUE(rec.ok());
      EXPECT_EQ((*rec)->group, (*qrec)->group) << "query " << q;
      EXPECT_NE(r.id, q);  // query excluded
    }
  }
}

TEST_F(SearchEngineTest, ResultsSortedAscendingByDistance) {
  auto results = Ranked(engine_->QueryById(
      3, QueryRequest::TopK(FeatureKind::kMomentInvariants, 20)));
  ASSERT_TRUE(results.ok());
  for (size_t i = 1; i < results->size(); ++i) {
    EXPECT_LE((*results)[i - 1].distance, (*results)[i].distance);
  }
}

TEST_F(SearchEngineTest, SimilarityInUnitRangeAndMonotone) {
  auto results = Ranked(
      engine_->QueryById(0, QueryRequest::TopK(FeatureKind::kSpectral, 30)));
  ASSERT_TRUE(results.ok());
  for (size_t i = 0; i < results->size(); ++i) {
    EXPECT_GE((*results)[i].similarity, 0.0);
    EXPECT_LE((*results)[i].similarity, 1.0);
    if (i > 0) {
      EXPECT_GE((*results)[i - 1].similarity, (*results)[i].similarity);
    }
  }
}

TEST_F(SearchEngineTest, ThresholdQueryEquivalence) {
  // Threshold query returns exactly the shapes whose similarity >= t.
  const double t = 0.8;
  auto thresh = Ranked(engine_->QueryById(
      2, QueryRequest::Threshold(FeatureKind::kGeometricParams, t)));
  ASSERT_TRUE(thresh.ok());
  auto all = Ranked(engine_->QueryById(
      2, QueryRequest::TopK(FeatureKind::kGeometricParams, db_.NumShapes())));
  ASSERT_TRUE(all.ok());
  std::set<int> expected;
  for (const SearchResult& r : *all) {
    if (r.similarity >= t) expected.insert(r.id);
  }
  std::set<int> got;
  for (const SearchResult& r : *thresh) got.insert(r.id);
  EXPECT_EQ(got, expected);
}

TEST_F(SearchEngineTest, ThresholdZeroReturnsWholeDatabase) {
  auto results = Ranked(engine_->QueryById(
      0, QueryRequest::Threshold(FeatureKind::kPrincipalMoments, 0.0)));
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), db_.NumShapes() - 1);  // minus the query
}

TEST_F(SearchEngineTest, QueryDimensionMismatchRejected) {
  EXPECT_FALSE(engine_
                   ->Query(ProbeAt(static_cast<int>(FeatureKind::kSpectral),
                                   {1.0, 2.0}),
                           QueryRequest::TopK(FeatureKind::kSpectral, 3))
                   .ok());
  EXPECT_FALSE(
      engine_
          ->Query(ProbeAt(kPrincipal, {1.0}),
                  QueryRequest::Threshold(FeatureKind::kPrincipalMoments, 0.5))
          .ok());
}

TEST_F(SearchEngineTest, BadThresholdRejected) {
  std::vector<double> q(FeatureDim(FeatureKind::kPrincipalMoments), 0.0);
  EXPECT_FALSE(
      engine_
          ->Query(ProbeAt(kPrincipal, q),
                  QueryRequest::Threshold(FeatureKind::kPrincipalMoments, 1.5))
          .ok());
  EXPECT_FALSE(
      engine_
          ->Query(ProbeAt(kPrincipal, q),
                  QueryRequest::Threshold(FeatureKind::kPrincipalMoments, -0.1))
          .ok());
}

TEST_F(SearchEngineTest, ExternalQueryVectorWorks) {
  // Query with the exact feature vector of shape 0 without excluding it:
  // shape 0 comes back at distance ~0.
  auto f = db_.Feature(0, FeatureKind::kPrincipalMoments);
  ASSERT_TRUE(f.ok());
  auto results = Ranked(
      engine_->Query(ProbeAt(kPrincipal, *f),
                     QueryRequest::TopK(FeatureKind::kPrincipalMoments, 1)));
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].id, 0);
  EXPECT_NEAR((*results)[0].distance, 0.0, 1e-9);
  EXPECT_NEAR((*results)[0].similarity, 1.0, 1e-9);
}

TEST_F(SearchEngineTest, RtreeAndScanGiveIdenticalResults) {
  SearchEngineOptions scan_opt;
  scan_opt.use_rtree = false;
  auto scan_engine =
      SearchEngine::Build(std::make_shared<const ShapeDatabase>(db_), scan_opt);
  ASSERT_TRUE(scan_engine.ok());
  for (FeatureKind kind : AllFeatureKinds()) {
    auto a = Ranked(engine_->QueryById(7, QueryRequest::TopK(kind, 12)));
    auto b =
        Ranked((*scan_engine)->QueryById(7, QueryRequest::TopK(kind, 12)));
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_NEAR((*a)[i].distance, (*b)[i].distance, 1e-9)
          << FeatureKindName(kind);
    }
  }
}

TEST_F(SearchEngineTest, SetWeightsChangesRanking) {
  std::vector<double> w(FeatureDim(FeatureKind::kPrincipalMoments), 1.0);
  ASSERT_TRUE(engine_->SetWeights(kPrincipal, w).ok());
  auto before = Ranked(engine_->QueryById(
      0, QueryRequest::TopK(FeatureKind::kPrincipalMoments, 10)));
  w = {100.0, 0.01, 0.01};
  ASSERT_TRUE(engine_->SetWeights(kPrincipal, w).ok());
  auto after = Ranked(engine_->QueryById(
      0, QueryRequest::TopK(FeatureKind::kPrincipalMoments, 10)));
  ASSERT_TRUE(before.ok() && after.ok());
  // Distances must change under the new metric.
  bool any_diff = false;
  for (size_t i = 0; i < before->size(); ++i) {
    if ((*before)[i].id != (*after)[i].id ||
        std::abs((*before)[i].distance - (*after)[i].distance) > 1e-9) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(SearchEngineTest, SetWeightsValidation) {
  EXPECT_FALSE(engine_->SetWeights(kPrincipal, {1.0}).ok());
  EXPECT_FALSE(engine_->SetWeights(kPrincipal, {1.0, -2.0, 1.0}).ok());
}

TEST_F(SearchEngineTest, RerankOrdersCandidatesByOtherFeature) {
  auto f = db_.Feature(0, FeatureKind::kGeometricParams);
  ASSERT_TRUE(f.ok());
  std::vector<int> candidates{10, 20, 30, 1, 2};
  auto reranked = engine_->Rerank(candidates, *f, kGeometric);
  ASSERT_TRUE(reranked.ok());
  ASSERT_EQ(reranked->size(), candidates.size());
  for (size_t i = 1; i < reranked->size(); ++i) {
    EXPECT_LE((*reranked)[i - 1].distance, (*reranked)[i].distance);
  }
  // Group mates of shape 0 (ids 1-4) rank first.
  EXPECT_TRUE((*reranked)[0].id == 1 || (*reranked)[0].id == 2);
}

TEST_F(SearchEngineTest, RerankUnknownIdFails) {
  auto f = db_.Feature(0, FeatureKind::kGeometricParams);
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(engine_->Rerank({9999}, *f, kGeometric).ok());
}

TEST_F(SearchEngineTest, RawModeSkipsStandardization) {
  SearchEngineOptions raw_opt;
  raw_opt.standardize = false;
  auto raw_engine =
      SearchEngine::Build(std::make_shared<const ShapeDatabase>(db_), raw_opt);
  ASSERT_TRUE(raw_engine.ok());
  const SimilaritySpace& space = (*raw_engine)->SpaceAt(kPrincipal);
  for (double m : space.stats.mean) EXPECT_DOUBLE_EQ(m, 0.0);
  for (double s : space.stats.stddev) EXPECT_DOUBLE_EQ(s, 1.0);
  // Raw distances are plain Euclidean over raw features.
  auto fa = db_.Feature(0, FeatureKind::kPrincipalMoments);
  auto fb = db_.Feature(1, FeatureKind::kPrincipalMoments);
  ASSERT_TRUE(fa.ok() && fb.ok());
  EXPECT_NEAR(space.Distance(space.Standardize(*fa), space.Standardize(*fb)),
              WeightedEuclidean(*fa, *fb, {}), 1e-12);
}

TEST_F(SearchEngineTest, RawAndStandardizedModesRankConsistentlyOnTightGroups) {
  // With tight isotropic synthetic groups, both modes must retrieve the
  // same group mates (ordering within the group may differ).
  SearchEngineOptions raw_opt;
  raw_opt.standardize = false;
  auto raw_engine =
      SearchEngine::Build(std::make_shared<const ShapeDatabase>(db_), raw_opt);
  ASSERT_TRUE(raw_engine.ok());
  for (int q : {0, 10, 25}) {
    const QueryRequest request =
        QueryRequest::TopK(FeatureKind::kPrincipalMoments, 4);
    auto a = Ranked(engine_->QueryById(q, request));
    auto b = Ranked((*raw_engine)->QueryById(q, request));
    ASSERT_TRUE(a.ok() && b.ok());
    std::set<int> sa, sb;
    for (const SearchResult& r : *a) sa.insert(r.id);
    for (const SearchResult& r : *b) sb.insert(r.id);
    EXPECT_EQ(sa, sb) << "query " << q;
  }
}

TEST(SimilaritySpaceTest, LargeSetUsesBoundingBoxDiagonalForDmax) {
  // > 2000 vectors triggers the O(n) dmax estimate; it must upper-bound
  // every realized pairwise distance used by Similarity().
  Rng rng(3);
  std::vector<std::vector<double>> vectors;
  for (int i = 0; i < 2500; ++i) {
    vectors.push_back({rng.Uniform(-3, 3), rng.Uniform(-3, 3)});
  }
  const SimilaritySpace space =
      BuildSimilaritySpace(FeatureKind::kPrincipalMoments, vectors, true);
  for (int trial = 0; trial < 500; ++trial) {
    const auto& a = vectors[rng.NextBounded(vectors.size())];
    const auto& b = vectors[rng.NextBounded(vectors.size())];
    const double d =
        space.Distance(space.Standardize(a), space.Standardize(b));
    EXPECT_LE(d, space.dmax + 1e-9);
    EXPECT_GE(space.Similarity(d), 0.0);
  }
}

TEST(SimilaritySpaceTest, EmptyInputSafe) {
  const SimilaritySpace space =
      BuildSimilaritySpace(FeatureKind::kSpectral, {}, true);
  EXPECT_EQ(space.dmax, 1.0);
}

TEST_F(SearchEngineTest, MultiStepStandardPlanRuns) {
  auto results = Ranked(engine_->QueryById(
      0, QueryRequest::MultiStep(MultiStepPlan::Standard(20, 4))));
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 4u);
  for (const SearchResult& r : *results) EXPECT_NE(r.id, 0);
}

TEST_F(SearchEngineTest, MultiStepEmptyPlanRejected) {
  MultiStepPlan plan;
  EXPECT_FALSE(engine_->QueryById(0, QueryRequest::MultiStep(plan)).ok());
}

TEST_F(SearchEngineTest, MultiStepSubsetOfFirstStage) {
  // Every multi-step result must come from the first-stage candidates.
  MultiStepPlan plan = MultiStepPlan::Standard(15, 5);
  auto stage1 = Ranked(engine_->QueryById(
      3, QueryRequest::TopK(FeatureKind::kMomentInvariants, 15)));
  auto final = Ranked(engine_->QueryById(3, QueryRequest::MultiStep(plan)));
  ASSERT_TRUE(stage1.ok() && final.ok());
  std::set<int> candidates;
  for (const SearchResult& r : *stage1) candidates.insert(r.id);
  for (const SearchResult& r : *final) {
    EXPECT_TRUE(candidates.count(r.id)) << r.id;
  }
}

TEST_F(SearchEngineTest, MultiStepThreeStages) {
  MultiStepPlan plan;
  plan.stages.push_back({FeatureKind::kPrincipalMoments, 30});
  plan.stages.push_back({FeatureKind::kMomentInvariants, 15});
  plan.stages.push_back({FeatureKind::kSpectral, 5});
  auto results = Ranked(engine_->QueryById(8, QueryRequest::MultiStep(plan)));
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 5u);
}

TEST_F(SearchEngineTest, MultiStepKeepZeroMeansAllCandidates) {
  MultiStepPlan plan;
  plan.stages.push_back({FeatureKind::kPrincipalMoments, 0});  // keep all
  plan.stages.push_back({FeatureKind::kGeometricParams, 6});
  auto results = Ranked(engine_->QueryById(2, QueryRequest::MultiStep(plan)));
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 6u);
  // With an all-pass first stage, the result equals a one-shot search on
  // the second feature.
  auto one_shot = Ranked(engine_->QueryById(
      2, QueryRequest::TopK(FeatureKind::kGeometricParams, 6)));
  ASSERT_TRUE(one_shot.ok());
  for (size_t i = 0; i < results->size(); ++i) {
    EXPECT_EQ((*results)[i].id, (*one_shot)[i].id) << i;
  }
}

TEST_F(SearchEngineTest, MultiStepSingleStageEqualsOneShot) {
  MultiStepPlan plan;
  plan.stages.push_back({FeatureKind::kSpectral, 7});
  auto ms = Ranked(engine_->QueryById(9, QueryRequest::MultiStep(plan)));
  auto os = Ranked(
      engine_->QueryById(9, QueryRequest::TopK(FeatureKind::kSpectral, 7)));
  ASSERT_TRUE(ms.ok() && os.ok());
  ASSERT_EQ(ms->size(), os->size());
  for (size_t i = 0; i < ms->size(); ++i) {
    EXPECT_EQ((*ms)[i].id, (*os)[i].id);
  }
}

TEST_F(SearchEngineTest, MultiStepExternalSignature) {
  auto rec = db_.Get(12);
  ASSERT_TRUE(rec.ok());
  auto results = Ranked(engine_->Query(
      (*rec)->signature,
      QueryRequest::MultiStep(MultiStepPlan::Standard(10, 3))));
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);
  // External query is not excluded: the shape itself may (and should) rank
  // in the candidates; its group mates dominate.
  auto qrec = db_.Get(12);
  for (const SearchResult& r : *results) {
    auto rrec = db_.Get(r.id);
    ASSERT_TRUE(rrec.ok());
    EXPECT_EQ((*rrec)->group, (*qrec)->group);
  }
}

}  // namespace
}  // namespace dess
