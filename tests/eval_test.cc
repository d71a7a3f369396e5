#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "src/eval/experiments.h"
#include "src/eval/precision_recall.h"
#include "src/eval/report.h"
#include "tests/test_util.h"

namespace dess {
namespace {

using testing_util::BuildSyntheticFeatureDb;

TEST(PrecisionRecallTest, Definition) {
  const std::set<int> relevant{1, 2, 3, 4};
  const PrPoint p = ComputePrecisionRecall({1, 2, 9, 10}, relevant);
  EXPECT_DOUBLE_EQ(p.precision, 0.5);   // 2 of 4 retrieved are relevant
  EXPECT_DOUBLE_EQ(p.recall, 0.5);      // 2 of 4 relevant retrieved
  EXPECT_EQ(p.retrieved, 4);
}

TEST(PrecisionRecallTest, EmptyRetrievedOrRelevant) {
  EXPECT_DOUBLE_EQ(ComputePrecisionRecall({}, {1, 2}).precision, 0.0);
  EXPECT_DOUBLE_EQ(ComputePrecisionRecall({}, {1, 2}).recall, 0.0);
  EXPECT_DOUBLE_EQ(ComputePrecisionRecall({1}, {}).recall, 0.0);
}

TEST(PrecisionRecallTest, PerfectRetrieval) {
  const std::set<int> relevant{5, 6};
  const PrPoint p = ComputePrecisionRecall({5, 6}, relevant);
  EXPECT_DOUBLE_EQ(p.precision, 1.0);
  EXPECT_DOUBLE_EQ(p.recall, 1.0);
}

TEST(PrecisionRecallTest, RelevantSetExcludesQueryAndNoise) {
  ShapeDatabase db = BuildSyntheticFeatureDb(3, 4, 5);
  const std::set<int> rel = RelevantSetFor(db, 0);
  EXPECT_EQ(rel.size(), 3u);  // group of 4 minus the query
  EXPECT_FALSE(rel.count(0));
  // Noise shape: empty relevant set.
  const std::set<int> noise_rel = RelevantSetFor(db, 12);  // first noise id
  EXPECT_TRUE(noise_rel.empty());
}

class EvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = BuildSyntheticFeatureDb(6, 5, 6);
    auto engine =
        SearchEngine::Build(std::make_shared<const ShapeDatabase>(db_));
    ASSERT_TRUE(engine.ok());
    engine_ = std::move(*engine);
  }
  ShapeDatabase db_;
  std::unique_ptr<SearchEngine> engine_;
};

TEST_F(EvalTest, PrCurveMonotoneRetrievedCount) {
  auto curve =
      PrCurveForQuery(*engine_, 0, FeatureKind::kPrincipalMoments, 11);
  ASSERT_TRUE(curve.ok());
  ASSERT_EQ(curve->size(), 11u);
  // Higher thresholds retrieve fewer (or equal) shapes.
  for (size_t i = 1; i < curve->size(); ++i) {
    EXPECT_LE((*curve)[i].retrieved, (*curve)[i - 1].retrieved);
  }
  // Threshold 0 retrieves everything -> recall 1 for a grouped query.
  EXPECT_DOUBLE_EQ((*curve)[0].recall, 1.0);
}

TEST_F(EvalTest, PrCurveNeedsTwoThresholds) {
  EXPECT_FALSE(
      PrCurveForQuery(*engine_, 0, FeatureKind::kSpectral, 1).ok());
}

TEST_F(EvalTest, OneQueryPerGroupPicksFirstMembers) {
  const auto queries = OneQueryPerGroup(db_);
  ASSERT_EQ(queries.size(), 6u);
  // With 5 members per group, first members are 0, 5, 10, ...
  EXPECT_EQ(queries[0], 0);
  EXPECT_EQ(queries[1], 5);
}

TEST_F(EvalTest, PickRepresentativeQueriesDistinctGroups) {
  const auto queries = PickRepresentativeQueries(db_, 5);
  ASSERT_EQ(queries.size(), 5u);
  std::set<int> groups;
  for (int q : queries) {
    auto rec = db_.Get(q);
    ASSERT_TRUE(rec.ok());
    groups.insert((*rec)->group);
  }
  EXPECT_EQ(groups.size(), 5u);
}

TEST_F(EvalTest, AverageEffectivenessRowsComplete) {
  auto rows = RunAverageEffectiveness(*engine_);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 5u);  // 4 one-shot + multi-step
  for (const EffectivenessRow& row : *rows) {
    EXPECT_GE(row.avg_recall_group_size, 0.0);
    EXPECT_LE(row.avg_recall_group_size, 1.0);
    EXPECT_GE(row.avg_precision_10, 0.0);
    EXPECT_LE(row.avg_precision_10, 1.0);
  }
  EXPECT_EQ((*rows)[4].method, "multi-step");
}

TEST_F(EvalTest, TightGroupsYieldHighRecall) {
  // The synthetic DB has very tight groups: every one-shot feature should
  // retrieve essentially the whole group.
  auto rows = RunAverageEffectiveness(*engine_);
  ASSERT_TRUE(rows.ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_GT((*rows)[i].avg_recall_group_size, 0.8)
        << (*rows)[i].method;
  }
}

TEST_F(EvalTest, PrecisionAtTenScalesFromRecall) {
  // With |R| = 10 > |A| = 4, precision = recall * |A| / 10 exactly.
  auto rows = RunAverageEffectiveness(*engine_);
  ASSERT_TRUE(rows.ok());
  for (const EffectivenessRow& row : *rows) {
    EXPECT_NEAR(row.avg_precision_10, row.avg_recall_10 * 4.0 / 10.0,
                1e-9)
        << row.method;
  }
}

TEST_F(EvalTest, DefaultThresholdGridShapeAndRange) {
  const auto grid = DefaultThresholdGrid();
  ASSERT_GE(grid.size(), 10u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.0);
  EXPECT_NEAR(grid.back(), 1.0, 1e-9);
  for (size_t i = 1; i < grid.size(); ++i) {
    EXPECT_GT(grid[i], grid[i - 1]);
    EXPECT_LE(grid[i], 1.0 + 1e-12);
  }
}

TEST_F(EvalTest, ExplicitThresholdCurveMatchesUniformAtSharedPoints) {
  auto uniform =
      PrCurveForQuery(*engine_, 0, FeatureKind::kPrincipalMoments, 11);
  auto explicit_grid = PrCurveForThresholds(
      *engine_, 0, FeatureKind::kPrincipalMoments, {0.0, 0.5, 1.0});
  ASSERT_TRUE(uniform.ok() && explicit_grid.ok());
  EXPECT_DOUBLE_EQ((*uniform)[0].recall, (*explicit_grid)[0].recall);
  EXPECT_DOUBLE_EQ((*uniform)[5].recall, (*explicit_grid)[1].recall);
  EXPECT_DOUBLE_EQ((*uniform)[10].recall, (*explicit_grid)[2].recall);
}

TEST_F(EvalTest, CsvReportsWriteParsableFiles) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("dess_report_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  auto rows = RunAverageEffectiveness(*engine_);
  ASSERT_TRUE(rows.ok());
  const std::string eff_path = (dir / "effectiveness.csv").string();
  ASSERT_TRUE(WriteEffectivenessCsv(*rows, eff_path).ok());

  auto bundles = RunPrCurveExperiment(
      *engine_, PickRepresentativeQueries(db_, 2), 5);
  ASSERT_TRUE(bundles.ok());
  const std::string pr_path = (dir / "pr.csv").string();
  ASSERT_TRUE(WritePrCurvesCsv(*bundles, pr_path).ok());

  // Check row counts: header + 5 method rows; header + 2*4*5 curve rows.
  auto count_lines = [](const std::string& p) {
    std::ifstream in(p);
    int n = 0;
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) ++n;
    }
    return n;
  };
  EXPECT_EQ(count_lines(eff_path), 1 + 5);
  EXPECT_EQ(count_lines(pr_path), 1 + 2 * kNumFeatureKinds * 5);
  std::filesystem::remove_all(dir);
}

TEST_F(EvalTest, PrCurveExperimentBundles) {
  const auto queries = PickRepresentativeQueries(db_, 3);
  auto bundles = RunPrCurveExperiment(*engine_, queries, 6);
  ASSERT_TRUE(bundles.ok());
  ASSERT_EQ(bundles->size(), 3u);
  for (const PrCurveBundle& b : *bundles) {
    EXPECT_FALSE(b.query_name.empty());
    ASSERT_EQ(b.curves.size(), static_cast<size_t>(kNumFeatureKinds));
    for (const auto& curve : b.curves) {
      EXPECT_EQ(curve.size(), 6u);
    }
  }
}

}  // namespace
}  // namespace dess
