// Pins the index-backend registry contract: the built-in seeding, the
// unknown-id error taxonomy (InvalidArgument listing the registered ids,
// mirroring the unknown-feature-space taxonomy of query_api_test), custom
// backend registration end to end through the engine, and — the refactor's
// core promise — string-selected exact backends answering bit-identically
// to the legacy enum selection across every query mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/index/index_backend.h"
#include "src/index/linear_scan.h"
#include "src/search/search_engine.h"
#include "tests/test_util.h"

namespace dess {
namespace {

using testing_util::BuildSyntheticFeatureDb;
using testing_util::Ranked;

TEST(IndexBackendRegistryTest, SeededWithBuiltIns) {
  IndexBackendRegistry registry;
  EXPECT_GE(registry.size(), 3);
  EXPECT_GE(registry.IndexOf(kLinearScanBackendId), 0);
  EXPECT_GE(registry.IndexOf(kRTreeBackendId), 0);
  EXPECT_GE(registry.IndexOf(kHnswBackendId), 0);

  auto linear = registry.Resolve(kLinearScanBackendId);
  ASSERT_TRUE(linear.ok());
  EXPECT_TRUE((*linear)->exact);
  EXPECT_TRUE((*linear)->supports_range);
  auto hnsw = registry.Resolve(kHnswBackendId);
  ASSERT_TRUE(hnsw.ok());
  EXPECT_FALSE((*hnsw)->exact);
  EXPECT_FALSE((*hnsw)->supports_range);
  EXPECT_TRUE(static_cast<bool>((*hnsw)->serialize));
  EXPECT_TRUE(static_cast<bool>((*hnsw)->deserialize));
}

TEST(IndexBackendRegistryTest, UnknownIdReturnsInvalidArgumentListingIds) {
  IndexBackendRegistry registry;
  auto unknown = registry.Resolve("no_such_backend");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  // The message names the offender and every registered id, so a typo'd
  // config is diagnosable from the error alone.
  const std::string message = unknown.status().ToString();
  EXPECT_NE(message.find("no_such_backend"), std::string::npos) << message;
  for (const std::string& id : registry.Ids()) {
    EXPECT_NE(message.find(id), std::string::npos) << message;
  }
}

TEST(IndexBackendRegistryTest, RegisterRejectsMalformedDefs) {
  IndexBackendRegistry registry;
  IndexBackendDef def;
  def.factory = [](const IndexBuildContext& ctx) {
    auto index = std::make_unique<LinearScanIndex>(ctx.dim);
    return Result<std::unique_ptr<MultiDimIndex>>(std::move(index));
  };

  def.id = "";
  EXPECT_EQ(registry.Register(def).status().code(),
            StatusCode::kInvalidArgument);
  def.id = "Bad-Id";
  EXPECT_EQ(registry.Register(def).status().code(),
            StatusCode::kInvalidArgument);
  def.id = kLinearScanBackendId;  // duplicate of a built-in
  EXPECT_EQ(registry.Register(def).status().code(),
            StatusCode::kInvalidArgument);

  def.id = "no_factory";
  def.factory = nullptr;
  EXPECT_EQ(registry.Register(def).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(IndexBackendRegistryTest, EngineRejectsUnknownBackendId) {
  const auto db = std::make_shared<ShapeDatabase>(
      BuildSyntheticFeatureDb(3, 3, 2));

  // Engine-wide selection of an unregistered id fails at build time with
  // the registry's taxonomy, not at first query.
  SearchEngineOptions opt;
  opt.index_backend = "no_such_backend";
  auto engine = SearchEngine::Build(db, opt);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(engine.status().ToString().find(kLinearScanBackendId),
            std::string::npos)
      << engine.status().ToString();

  // A per-space FeatureSpaceDef override gets the same treatment.
  const std::vector<testing_util::SyntheticExtraSpace> extra = {
      {"pinned_space", 4, "also_missing"}};
  const auto db2 = std::make_shared<ShapeDatabase>(
      BuildSyntheticFeatureDb(3, 3, 2, 123, 0.05, 1.0, extra));
  SearchEngineOptions opt2;
  opt2.registry = testing_util::MakeSyntheticRegistry(extra);
  auto engine2 = SearchEngine::Build(db2, opt2);
  ASSERT_FALSE(engine2.ok());
  EXPECT_EQ(engine2.status().code(), StatusCode::kInvalidArgument);
}

TEST(IndexBackendRegistryTest, CustomBackendServesQueriesAndMetrics) {
  // A user-registered backend (here: a second linear scan under its own
  // id) is selectable engine-wide and surfaces its own metric family
  // derived from the registered id.
  auto backends = std::make_shared<IndexBackendRegistry>();
  IndexBackendDef def;
  def.id = "mirror_scan";
  def.factory =
      [](const IndexBuildContext& ctx)
      -> Result<std::unique_ptr<MultiDimIndex>> {
    auto index = std::make_unique<LinearScanIndex>(ctx.dim);
    for (size_t r = 0; r < ctx.block->size(); ++r) {
      DESS_RETURN_NOT_OK(index->Insert(ctx.block->id(r), ctx.block->Row(r)));
    }
    return std::unique_ptr<MultiDimIndex>(std::move(index));
  };
  ASSERT_TRUE(backends->Register(std::move(def)).ok());

  const auto db = std::make_shared<ShapeDatabase>(
      BuildSyntheticFeatureDb(4, 3, 3));
  SearchEngineOptions mirror_opt;
  mirror_opt.index_backend = "mirror_scan";
  mirror_opt.index_backends = backends;
  auto mirror = SearchEngine::Build(db, mirror_opt);
  ASSERT_TRUE(mirror.ok()) << mirror.status().ToString();
  EXPECT_EQ((*mirror)->BackendIdAt(0), "mirror_scan");
  EXPECT_TRUE((*mirror)->IsExactAt(0));

  SearchEngineOptions scan_opt;
  scan_opt.backend = IndexBackend::kLinearScan;
  auto scan = SearchEngine::Build(db, scan_opt);
  ASSERT_TRUE(scan.ok());

  const ShapeSignature& q = (*db->Get(0))->signature;
  const QueryRequest request =
      QueryRequest::TopK((*mirror)->registry().id(0), 5);
  MetricsRegistry::Global()->Reset();
  auto got = Ranked((*mirror)->Query(q, request));
  auto want = Ranked((*scan)->Query(q, request));
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*got, *want);

  // The per-backend counter family is keyed by the registered id.
  const MetricsSnapshot snap = MetricsRegistry::Global()->Snapshot();
  bool saw_family = false;
  for (const auto& counter : snap.counters) {
    if (counter.name.rfind("index.mirror_scan.", 0) == 0 &&
        counter.value > 0) {
      saw_family = true;
    }
  }
  EXPECT_TRUE(saw_family) << snap.DumpText();
}

// The refactor's compatibility bar: selecting an exact backend through the
// string registry answers bit-identically to the legacy enum selection, in
// every query mode. Exact double equality — not tolerance — because the
// registry path must run the very same kernels over the same blocks.
class ExactBackendParityTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ExactBackendParityTest, BitIdenticalToEnumSelection) {
  const std::string id = GetParam();
  const auto db = std::make_shared<ShapeDatabase>(
      BuildSyntheticFeatureDb(6, 4, 5));

  SearchEngineOptions legacy;
  legacy.backend = id == kRTreeBackendId ? IndexBackend::kRTree
                                         : IndexBackend::kLinearScan;
  auto enum_engine = SearchEngine::Build(db, legacy);
  ASSERT_TRUE(enum_engine.ok());

  SearchEngineOptions keyed;
  keyed.index_backend = id;
  auto string_engine = SearchEngine::Build(db, keyed);
  ASSERT_TRUE(string_engine.ok()) << string_engine.status().ToString();
  EXPECT_EQ((*string_engine)->BackendIdAt(0), id);
  EXPECT_TRUE((*string_engine)->IsExactAt(0));

  const size_t all = db->NumShapes();
  for (int ordinal = 0; ordinal < (*enum_engine)->NumSpaces(); ++ordinal) {
    const ShapeSignature& q = (*db->Get(1))->signature;
    const std::string& space = (*enum_engine)->registry().id(ordinal);

    auto a = Ranked((*enum_engine)->Query(q, QueryRequest::TopK(space, all)));
    auto b =
        Ranked((*string_engine)->Query(q, QueryRequest::TopK(space, all)));
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << "QueryTopK space " << ordinal;

    auto at =
        Ranked((*enum_engine)->Query(q, QueryRequest::Threshold(space, 0.5)));
    auto bt = Ranked(
        (*string_engine)->Query(q, QueryRequest::Threshold(space, 0.5)));
    ASSERT_TRUE(at.ok() && bt.ok());
    EXPECT_EQ(*at, *bt) << "QueryThreshold space " << ordinal;

    QueryRequest weighted = QueryRequest::TopK(space, 7);
    weighted.weights.assign((*enum_engine)->SpaceAt(ordinal).weights.size(),
                            2.0);
    auto aw = Ranked((*enum_engine)->Query(q, weighted));
    auto bw = Ranked((*string_engine)->Query(q, weighted));
    ASSERT_TRUE(aw.ok() && bw.ok());
    EXPECT_EQ(*aw, *bw) << "QueryTopKWeighted space " << ordinal;

    auto ai =
        Ranked((*enum_engine)->QueryById(2, QueryRequest::TopK(space, 5)));
    auto bi =
        Ranked((*string_engine)->QueryById(2, QueryRequest::TopK(space, 5)));
    ASSERT_TRUE(ai.ok() && bi.ok());
    EXPECT_EQ(*ai, *bi) << "QueryByIdTopK space " << ordinal;
  }

  const QueryRequest plan = QueryRequest::MultiStep(MultiStepPlan::Standard());
  auto am = Ranked((*enum_engine)->QueryById(3, plan));
  auto bm = Ranked((*string_engine)->QueryById(3, plan));
  ASSERT_TRUE(am.ok() && bm.ok());
  EXPECT_EQ(*am, *bm) << "MultiStepQueryById";
}

INSTANTIATE_TEST_SUITE_P(ExactBackends, ExactBackendParityTest,
                         ::testing::Values(kLinearScanBackendId,
                                           kRTreeBackendId));

}  // namespace
}  // namespace dess
