// End-to-end integration: generate a miniature engineering-shape dataset,
// run the full extraction pipeline, index, and verify that retrieval
// recovers the ground-truth families better than chance — the essence of
// the paper's evaluation, shrunk to unit-test size.

#include <gtest/gtest.h>

#include "src/core/system.h"
#include "src/eval/experiments.h"
#include "src/modelgen/dataset.h"
#include "tests/test_util.h"

namespace dess {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetOptions ds_opt;
    ds_opt.seed = 2024;
    ds_opt.mesh_resolution = 28;
    ds_opt.num_groups = 8;   // first 8 families, 2 shapes each
    ds_opt.num_noise = 4;
    auto dataset = BuildStandardDataset(ds_opt);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

    SystemOptions sys_opt;
    sys_opt.extraction.voxelization.resolution = 24;
    system_ = new Dess3System(sys_opt);
    ASSERT_TRUE(system_->IngestDataset(*dataset).ok());
    ASSERT_TRUE(system_->Commit().ok());
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }

  static Dess3System* system_;
};

Dess3System* IntegrationTest::system_ = nullptr;

TEST_F(IntegrationTest, DatabasePopulated) {
  EXPECT_EQ(system_->db().NumShapes(), 8u * 2u + 4u);
  EXPECT_EQ(system_->db().NumGroups(), 8);
}

TEST_F(IntegrationTest, RetrievalBeatsChanceOnMomentFeatures) {
  auto snapshot = system_->CurrentSnapshot();
  ASSERT_TRUE(snapshot.ok());
  // For each grouped query, check whether its single group mate appears in
  // the top-3 by principal moments. Chance level is 3/19; demand much
  // better.
  int hits = 0, queries = 0;
  for (const ShapeRecord& rec : system_->db().records()) {
    if (rec.group == kUngrouped) continue;
    ++queries;
    auto results = testing_util::Ranked((*snapshot)->engine().QueryById(
        rec.id, QueryRequest::TopK(FeatureKind::kPrincipalMoments, 3)));
    ASSERT_TRUE(results.ok());
    for (const SearchResult& r : *results) {
      auto other = system_->db().Get(r.id);
      ASSERT_TRUE(other.ok());
      if ((*other)->group == rec.group) {
        ++hits;
        break;
      }
    }
  }
  EXPECT_GE(hits * 2, queries) << hits << "/" << queries;
}

TEST_F(IntegrationTest, AverageEffectivenessRuns) {
  auto snapshot = system_->CurrentSnapshot();
  ASSERT_TRUE(snapshot.ok());
  auto rows = RunAverageEffectiveness((*snapshot)->engine());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 5u);
  // Sanity: all within [0, 1]; at least one method finds something.
  double best = 0.0;
  for (const EffectivenessRow& row : *rows) {
    EXPECT_GE(row.avg_recall_group_size, 0.0);
    EXPECT_LE(row.avg_recall_group_size, 1.0);
    best = std::max(best, row.avg_recall_group_size);
  }
  EXPECT_GT(best, 0.2);
}

TEST_F(IntegrationTest, PrCurvesForRepresentativeShapes) {
  auto snapshot = system_->CurrentSnapshot();
  ASSERT_TRUE(snapshot.ok());
  const auto queries = PickRepresentativeQueries(system_->db(), 3);
  auto bundles = RunPrCurveExperiment((*snapshot)->engine(), queries, 6);
  ASSERT_TRUE(bundles.ok());
  EXPECT_EQ(bundles->size(), 3u);
  // Threshold 0 retrieves everything: recall 1.
  for (const PrCurveBundle& b : *bundles) {
    for (const auto& curve : b.curves) {
      EXPECT_DOUBLE_EQ(curve.front().recall, 1.0);
    }
  }
}

TEST_F(IntegrationTest, NoiseShapesHaveNoRelevantSet) {
  for (const ShapeRecord& rec : system_->db().records()) {
    if (rec.group == kUngrouped) {
      EXPECT_TRUE(RelevantSetFor(system_->db(), rec.id).empty());
    }
  }
}

TEST_F(IntegrationTest, BrowsingHierarchyCoversDatabase) {
  auto h = system_->Hierarchy(FeatureKind::kPrincipalMoments);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ((*h)->members.size(), system_->db().NumShapes());
  EXPECT_GE((*h)->Depth(), 1);
}

}  // namespace
}  // namespace dess
