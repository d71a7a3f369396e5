#include <gtest/gtest.h>

#include "src/search/combined.h"
#include "tests/test_util.h"

namespace dess {
namespace {

using testing_util::BuildSyntheticFeatureDb;
using testing_util::Ranked;

class CombinedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = BuildSyntheticFeatureDb(6, 5, 8);
    auto engine =
        SearchEngine::Build(std::make_shared<const ShapeDatabase>(db_));
    ASSERT_TRUE(engine.ok());
    engine_ = std::move(*engine);
  }
  ShapeDatabase db_;
  std::unique_ptr<SearchEngine> engine_;
};

TEST_F(CombinedTest, WeightsNormalize) {
  CombinationWeights w;
  w.alpha = {2.0, 2.0, 0.0, 0.0};
  w.Normalize();
  EXPECT_DOUBLE_EQ(w.alpha[0], 0.5);
  EXPECT_DOUBLE_EQ(w.alpha[1], 0.5);
  EXPECT_DOUBLE_EQ(w.alpha[2], 0.0);
}

TEST_F(CombinedTest, NegativeWeightsClamped) {
  CombinationWeights w;
  w.alpha = {-1.0, 1.0, 0.0, 0.0};
  w.Normalize();
  EXPECT_DOUBLE_EQ(w.alpha[0], 0.0);
  EXPECT_DOUBLE_EQ(w.alpha[1], 1.0);
}

TEST_F(CombinedTest, AllZeroWeightsNoopNormalize) {
  CombinationWeights w;
  w.alpha = {0, 0, 0, 0};
  w.Normalize();
  for (double a : w.alpha) EXPECT_DOUBLE_EQ(a, 0.0);
}

TEST_F(CombinedTest, UniformFindsGroupMates) {
  auto results =
      CombinedQueryById(*engine_, 0, CombinationWeights::Uniform(), 4);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 4u);
  auto qrec = db_.Get(0);
  for (const SearchResult& r : *results) {
    EXPECT_NE(r.id, 0);
    auto rec = db_.Get(r.id);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ((*rec)->group, (*qrec)->group);
  }
  // Descending by combined similarity.
  for (size_t i = 1; i < results->size(); ++i) {
    EXPECT_GE((*results)[i - 1].similarity, (*results)[i].similarity);
  }
}

TEST_F(CombinedTest, SingleFeatureWeightsMatchOneShotRanking) {
  // All weight on one feature vector must reproduce that feature's ranking.
  const FeatureKind kind = FeatureKind::kPrincipalMoments;
  auto combined =
      CombinedQueryById(*engine_, 3, CombinationWeights::Only(kind), 8);
  auto one_shot = Ranked(engine_->QueryById(3, QueryRequest::TopK(kind, 8)));
  ASSERT_TRUE(combined.ok() && one_shot.ok());
  ASSERT_EQ(combined->size(), one_shot->size());
  for (size_t i = 0; i < combined->size(); ++i) {
    EXPECT_EQ((*combined)[i].id, (*one_shot)[i].id) << i;
  }
}

TEST_F(CombinedTest, ExternalSignatureNotExcluded) {
  auto rec = db_.Get(7);
  ASSERT_TRUE(rec.ok());
  auto results = CombinedQuery(*engine_, (*rec)->signature,
                               CombinationWeights::Uniform(), 1);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].id, 7);  // itself, similarity 1
  EXPECT_NEAR((*results)[0].similarity, 1.0, 1e-9);
}

TEST_F(CombinedTest, SimilarityInUnitRange) {
  auto results = CombinedQueryById(*engine_, 10,
                                   CombinationWeights::Uniform(), 30);
  ASSERT_TRUE(results.ok());
  for (const SearchResult& r : *results) {
    EXPECT_GE(r.similarity, 0.0);
    EXPECT_LE(r.similarity, 1.0);
  }
}

TEST_F(CombinedTest, UnknownQueryIdFails) {
  EXPECT_FALSE(
      CombinedQueryById(*engine_, 9999, CombinationWeights::Uniform(), 5)
          .ok());
}

TEST_F(CombinedTest, ReconfigureBoostsAgreeingFeature) {
  // Relevant shapes are the query's group mates: every feature space rates
  // them similar, but the tightest space should get the largest alpha.
  auto rec = db_.Get(0);
  ASSERT_TRUE(rec.ok());
  auto updated = ReconfigureCombinationWeights(
      *engine_, (*rec)->signature, CombinationWeights::Uniform(),
      {1, 2, 3, 4}, /*blend=*/1.0);
  ASSERT_TRUE(updated.ok());
  double sum = 0.0;
  for (double a : updated->alpha) {
    EXPECT_GE(a, 0.0);
    sum += a;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_F(CombinedTest, ReconfigureEmptyFeedbackIdentity) {
  auto rec = db_.Get(0);
  CombinationWeights current;
  current.alpha = {0.7, 0.1, 0.1, 0.1};
  auto updated = ReconfigureCombinationWeights(
      *engine_, (*rec)->signature, current, {}, 0.5);
  ASSERT_TRUE(updated.ok());
  for (int i = 0; i < kNumFeatureKinds; ++i) {
    EXPECT_DOUBLE_EQ(updated->alpha[i], current.alpha[i]);
  }
}

TEST_F(CombinedTest, ReconfigureRejectsBadBlend) {
  auto rec = db_.Get(0);
  EXPECT_FALSE(ReconfigureCombinationWeights(*engine_, (*rec)->signature,
                                             CombinationWeights::Uniform(),
                                             {1}, 1.5)
                   .ok());
}

TEST_F(CombinedTest, BlendZeroKeepsCurrentWeights) {
  auto rec = db_.Get(0);
  CombinationWeights current;
  current.alpha = {0.4, 0.3, 0.2, 0.1};
  auto updated = ReconfigureCombinationWeights(
      *engine_, (*rec)->signature, current, {1, 2}, 0.0);
  ASSERT_TRUE(updated.ok());
  for (int i = 0; i < kNumFeatureKinds; ++i) {
    EXPECT_NEAR(updated->alpha[i], current.alpha[i], 1e-9);
  }
}

}  // namespace
}  // namespace dess
