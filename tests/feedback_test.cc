#include <gtest/gtest.h>

#include "src/eval/precision_recall.h"
#include "src/search/relevance_feedback.h"
#include "tests/test_util.h"

namespace dess {
namespace {

using testing_util::BuildSyntheticFeatureDb;
using testing_util::ProbeAt;
using testing_util::Ranked;

class FeedbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Looser groups so there is room for feedback to help.
    db_ = BuildSyntheticFeatureDb(6, 6, 8, /*seed=*/321,
                                  /*within_spread=*/0.25);
    auto engine =
        SearchEngine::Build(std::make_shared<const ShapeDatabase>(db_));
    ASSERT_TRUE(engine.ok());
    engine_ = std::move(*engine);
  }
  ShapeDatabase db_;
  std::unique_ptr<SearchEngine> engine_;
};

TEST_F(FeedbackTest, ReconstructMovesTowardRelevant) {
  const FeatureKind kind = FeatureKind::kPrincipalMoments;
  auto q = db_.Feature(0, kind);
  ASSERT_TRUE(q.ok());
  Feedback fb;
  fb.relevant_ids = {1, 2};
  auto q2 = ReconstructQuery(*engine_, static_cast<int>(kind), *q, fb);
  ASSERT_TRUE(q2.ok());
  // Mean of relevant features.
  auto f1 = db_.Feature(1, kind);
  auto f2 = db_.Feature(2, kind);
  ASSERT_TRUE(f1.ok() && f2.ok());
  for (size_t d = 0; d < q->size(); ++d) {
    const double rel_mean = 0.5 * ((*f1)[d] + (*f2)[d]);
    const double before = std::fabs((*q)[d] - rel_mean);
    const double after = std::fabs((*q2)[d] - rel_mean);
    EXPECT_LE(after, before + 1e-9) << "dim " << d;
  }
}

TEST_F(FeedbackTest, ReconstructPushesAwayFromIrrelevant) {
  const FeatureKind kind = FeatureKind::kGeometricParams;
  auto q = db_.Feature(0, kind);
  ASSERT_TRUE(q.ok());
  Feedback fb;
  fb.irrelevant_ids = {30, 31};
  auto q2 = ReconstructQuery(*engine_, static_cast<int>(kind), *q, fb);
  ASSERT_TRUE(q2.ok());
  // Query must have moved.
  double moved = 0.0;
  for (size_t d = 0; d < q->size(); ++d) {
    moved += std::fabs((*q2)[d] - (*q)[d]);
  }
  EXPECT_GT(moved, 1e-9);
}

TEST_F(FeedbackTest, ReconstructEmptyFeedbackIsIdentity) {
  const FeatureKind kind = FeatureKind::kSpectral;
  auto q = db_.Feature(3, kind);
  ASSERT_TRUE(q.ok());
  auto q2 =
      ReconstructQuery(*engine_, static_cast<int>(kind), *q, Feedback{});
  ASSERT_TRUE(q2.ok());
  for (size_t d = 0; d < q->size(); ++d) {
    EXPECT_NEAR((*q2)[d], (*q)[d], 1e-12);
  }
}

TEST_F(FeedbackTest, ReconstructRejectsDimensionMismatch) {
  EXPECT_FALSE(ReconstructQuery(*engine_,
                                static_cast<int>(FeatureKind::kSpectral),
                                {1.0, 2.0}, Feedback{})
                   .ok());
}

TEST_F(FeedbackTest, WeightsNeedTwoRelevantShapes) {
  const FeatureKind kind = FeatureKind::kPrincipalMoments;
  Feedback fb;
  fb.relevant_ids = {1};
  auto w = ReconfigureWeights(*engine_, static_cast<int>(kind), fb);
  ASSERT_TRUE(w.ok());
  // Unchanged (all ones).
  for (double v : *w) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST_F(FeedbackTest, WeightsNormalizedToMeanOne) {
  const FeatureKind kind = FeatureKind::kPrincipalMoments;
  Feedback fb;
  fb.relevant_ids = {1, 2, 3, 4};
  auto w = ReconfigureWeights(*engine_, static_cast<int>(kind), fb);
  ASSERT_TRUE(w.ok());
  double sum = 0.0;
  for (double v : *w) {
    EXPECT_GT(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / w->size(), 1.0, 1e-9);
}

TEST_F(FeedbackTest, AgreementDimensionGetsHigherWeight) {
  // Build a tiny DB where relevant shapes agree on dim 0 and disagree on
  // dim 1 of the principal moments.
  ShapeDatabase db;
  auto add = [&](double d0, double d1) {
    ShapeRecord rec;
    rec.group = 0;
    for (FeatureKind kind : AllFeatureKinds()) {
      FeatureVector& fv = rec.signature.Mutable(kind);
      fv.kind = kind;
      fv.values.assign(FeatureDim(kind), 0.0);
    }
    auto& pm = rec.signature.Mutable(FeatureKind::kPrincipalMoments).values;
    pm[0] = d0;
    pm[1] = d1;
    db.Insert(std::move(rec));
  };
  add(1.0, -3.0);
  add(1.0, 3.0);
  add(1.0, -2.0);
  add(1.0, 2.0);
  add(5.0, 0.1);  // outsider to give dim 0 database variance
  add(-5.0, -0.1);
  auto engine = SearchEngine::Build(std::make_shared<const ShapeDatabase>(db));
  ASSERT_TRUE(engine.ok());
  Feedback fb;
  fb.relevant_ids = {0, 1, 2, 3};
  auto w = ReconfigureWeights(
      **engine, static_cast<int>(FeatureKind::kPrincipalMoments), fb);
  ASSERT_TRUE(w.ok());
  EXPECT_GT((*w)[0], (*w)[1]);
}

TEST_F(FeedbackTest, FeedbackRoundImprovesRecallForNoisyQuery) {
  // Take a query, run a search, mark its true group mates as relevant and
  // the others as irrelevant; recall@k must not get worse.
  const FeatureKind kind = FeatureKind::kPrincipalMoments;
  const int query = 0;
  const std::set<int> relevant_truth = RelevantSetFor(db_, query);
  auto q = db_.Feature(query, kind);
  ASSERT_TRUE(q.ok());

  auto first = Ranked(engine_->Query(ProbeAt(static_cast<int>(kind), *q),
                                     QueryRequest::TopK(kind, 8)));
  ASSERT_TRUE(first.ok());
  int hits_before = 0;
  Feedback fb;
  for (const SearchResult& r : *first) {
    if (r.id == query) continue;
    if (relevant_truth.count(r.id)) {
      fb.relevant_ids.push_back(r.id);
      ++hits_before;
    } else {
      fb.irrelevant_ids.push_back(r.id);
    }
  }
  if (fb.relevant_ids.size() < 2) GTEST_SKIP() << "query too easy/hard";

  std::vector<double> mutable_q = *q;
  std::vector<double> session_weights;
  auto second = FeedbackRound(*engine_, static_cast<int>(kind), &mutable_q,
                              &session_weights, fb, 8);
  ASSERT_TRUE(second.ok());
  int hits_after = 0;
  for (const SearchResult& r : *second) {
    if (r.id != query && relevant_truth.count(r.id)) ++hits_after;
  }
  EXPECT_GE(hits_after, hits_before);
}

}  // namespace
}  // namespace dess
