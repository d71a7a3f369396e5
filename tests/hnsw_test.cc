// Pins the HNSW backend contract: the graph is a pure function of
// (rows, params) — any build thread count produces the identical graph —
// recall against the exact engine clears the acceptance bar on the
// standard synthetic corpus, the serialized graph round-trips, and the
// non-goals (in-place removal) fail with the pinned taxonomy.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/eval/ann_eval.h"
#include "src/index/hnsw.h"
#include "src/index/index_backend.h"
#include "src/index/signature_block.h"
#include "src/search/search_engine.h"
#include "tests/test_util.h"

namespace dess {
namespace {

using testing_util::BuildSyntheticFeatureDb;
using testing_util::Ranked;
using testing_util::SyntheticExtraSpace;

SignatureBlock RandomBlock(size_t n, int dim, uint64_t seed) {
  Rng rng(seed);
  SignatureBlock block(dim);
  block.Reserve(n);
  std::vector<double> row(dim);
  for (size_t i = 0; i < n; ++i) {
    for (double& v : row) v = rng.Uniform(-1.0, 1.0);
    block.Append(static_cast<int>(i), row);
  }
  return block;
}

TEST(HnswTest, GraphIdenticalAcrossBuildThreadCounts) {
  const SignatureBlock rows = RandomBlock(700, 8, 42);
  HnswParams params;
  params.seed = 7;

  auto serial = HnswIndex::Build(params, rows, nullptr, nullptr);
  ASSERT_TRUE(serial.ok());
  ThreadPool pool(4);
  auto parallel = HnswIndex::Build(params, rows, nullptr, &pool);
  ASSERT_TRUE(parallel.ok());

  // The serialized topology (entry point, levels, adjacency) is the graph;
  // byte equality means every link landed identically.
  EXPECT_EQ((*serial)->SerializeGraph(), (*parallel)->SerializeGraph());
  EXPECT_EQ((*serial)->entry_node(), (*parallel)->entry_node());
  EXPECT_EQ((*serial)->max_level(), (*parallel)->max_level());
}

TEST(HnswTest, EngineBuildDeterministicAcrossPools) {
  // Same determinism through the engine path (FeatureSpaceDef pins the
  // wide space to hnsw; options lend a pool to the build).
  const std::vector<SyntheticExtraSpace> extra = {
      {"synthetic_wide32", 32, kHnswBackendId}};
  const auto db = std::make_shared<ShapeDatabase>(
      BuildSyntheticFeatureDb(10, 10, 13, 321, 0.05, 1.0, extra));

  SearchEngineOptions serial_opt;
  serial_opt.backend = IndexBackend::kLinearScan;
  serial_opt.registry = testing_util::MakeSyntheticRegistry(extra);
  auto serial = SearchEngine::Build(db, serial_opt);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  SearchEngineOptions pool_opt = serial_opt;
  ThreadPool pool(4);
  pool_opt.build_pool = &pool;
  auto parallel = SearchEngine::Build(db, pool_opt);
  ASSERT_TRUE(parallel.ok());

  EXPECT_EQ((*serial)->BackendIdAt(kNumFeatureKinds), kHnswBackendId);
  EXPECT_FALSE((*serial)->IsExactAt(kNumFeatureKinds));
  // The engine clears the borrowed pool from its stored options.
  EXPECT_EQ((*parallel)->options().build_pool, nullptr);

  const QueryRequest request =
      QueryRequest::TopK((*serial)->registry().id(kNumFeatureKinds), 10);
  for (const ShapeRecord& rec : db->records()) {
    auto a = Ranked((*serial)->Query(rec.signature, request));
    auto b = Ranked((*parallel)->Query(rec.signature, request));
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(*a, *b);
  }
}

TEST(HnswTest, RecallClearsAcceptanceBarOnStandardCorpus) {
  // The acceptance bar: recall@10 >= 0.95 against the exact engine,
  // measured on the 32-dim space the graph serves, on two corpora: the
  // 113-shape standard corpus (26 groups of 3 + 35 noise), every record a
  // query; and a clustered 10k corpus (100 tight groups of 100), queried
  // at every 50th record. A graph that links each node only to its
  // closest candidates keeps nearly every edge inside a cluster, so greedy
  // search cannot route between clusters; the neighbour-selection
  // heuristic keeps it navigable.
  struct Corpus {
    int groups, group_size, noise;
    size_t stride;
  };
  const std::vector<SyntheticExtraSpace> exact_extra = {
      {"synthetic_wide32", 32, ""}};
  const std::vector<SyntheticExtraSpace> ann_extra = {
      {"synthetic_wide32", 32, kHnswBackendId}};
  for (const Corpus& corpus : {Corpus{26, 3, 35, 1}, Corpus{100, 100, 0, 50}}) {
    SCOPED_TRACE(corpus.groups * corpus.group_size + corpus.noise);
    const auto db = std::make_shared<ShapeDatabase>(BuildSyntheticFeatureDb(
        corpus.groups, corpus.group_size, corpus.noise, 12345, 0.05, 1.0,
        exact_extra));

    SearchEngineOptions exact_opt;
    exact_opt.backend = IndexBackend::kLinearScan;
    exact_opt.registry = testing_util::MakeSyntheticRegistry(exact_extra);
    auto exact = SearchEngine::Build(db, exact_opt);
    ASSERT_TRUE(exact.ok());

    SearchEngineOptions ann_opt;
    ann_opt.backend = IndexBackend::kLinearScan;
    ann_opt.registry = testing_util::MakeSyntheticRegistry(ann_extra);
    auto ann = SearchEngine::Build(db, ann_opt);
    ASSERT_TRUE(ann.ok()) << ann.status().ToString();

    auto report = EvaluateAnnRecall(**exact, **ann, kNumFeatureKinds,
                                    {1, 10, 50}, corpus.stride);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->num_queries,
              (db->NumShapes() + corpus.stride - 1) / corpus.stride);
    EXPECT_GE(report->At(10), 0.95);
    EXPECT_GE(report->At(1), 0.95);
  }
}

TEST(HnswTest, ApproximateResultsAreExactlyRescored) {
  // The engine never reports graph distances: every hnsw answer's
  // distance must equal the exact engine's distance for the same id.
  const std::vector<SyntheticExtraSpace> ann_extra = {
      {"synthetic_wide32", 32, kHnswBackendId}};
  const auto db = std::make_shared<ShapeDatabase>(
      BuildSyntheticFeatureDb(8, 8, 0, 99, 0.05, 1.0, ann_extra));

  SearchEngineOptions ann_opt;
  ann_opt.backend = IndexBackend::kLinearScan;
  ann_opt.registry = testing_util::MakeSyntheticRegistry(ann_extra);
  auto ann = SearchEngine::Build(db, ann_opt);
  ASSERT_TRUE(ann.ok());

  const ShapeSignature& q = (*db->Get(5))->signature;
  const std::string& space = (*ann)->registry().id(kNumFeatureKinds);
  auto approx = Ranked((*ann)->Query(q, QueryRequest::TopK(space, 8)));
  ASSERT_TRUE(approx.ok());
  auto truth = Ranked((*ann)->Query(q, QueryRequest::Threshold(space, 0.0)));
  ASSERT_TRUE(truth.ok());  // threshold falls back to an exact full scan
  for (const SearchResult& r : *approx) {
    bool found = false;
    for (const SearchResult& t : *truth) {
      if (t.id != r.id) continue;
      EXPECT_EQ(t.distance, r.distance);
      EXPECT_EQ(t.similarity, r.similarity);
      found = true;
    }
    EXPECT_TRUE(found) << "id " << r.id;
  }
}

TEST(HnswTest, SerializedGraphRoundTrips) {
  const SignatureBlock rows = RandomBlock(300, 6, 11);
  HnswParams params;
  params.seed = 3;
  auto built = HnswIndex::Build(params, rows, nullptr, nullptr);
  ASSERT_TRUE(built.ok());
  const std::string bytes = (*built)->SerializeGraph();

  auto restored = HnswIndex::Deserialize(params, rows, nullptr, bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->SerializeGraph(), bytes);

  const SignatureBlock probe = RandomBlock(5, 6, 77);
  for (size_t i = 0; i < probe.size(); ++i) {
    const auto a = (*built)->KNearest(probe.Row(i), 10);
    const auto b = (*restored)->KNearest(probe.Row(i), 10);
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].id, b[j].id);
      EXPECT_EQ(a[j].distance, b[j].distance);
    }
  }

  // Corrupt or mismatched bytes are InvalidArgument (the persistence
  // layer falls back to a rebuild), never a crash or a wrong graph.
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x40;
  auto bad = HnswIndex::Deserialize(params, rows, nullptr, corrupt);
  if (!bad.ok()) {
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  } else {
    // A flipped bit that survives structural validation must still decode
    // to a well-formed graph over exactly these rows.
    EXPECT_EQ((*bad)->size(), rows.size());
  }

  const SignatureBlock fewer = RandomBlock(299, 6, 11);
  auto mismatched = HnswIndex::Deserialize(params, fewer, nullptr, bytes);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);

  auto empty = HnswIndex::Deserialize(params, rows, nullptr, "");
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
}

TEST(HnswTest, RemoveIsNotImplementedAndInsertValidatesDim) {
  const SignatureBlock rows = RandomBlock(50, 4, 5);
  HnswParams params;
  auto index = HnswIndex::Build(params, rows, nullptr, nullptr);
  ASSERT_TRUE(index.ok());

  EXPECT_EQ((*index)->Remove(0, std::vector<double>(4, 0.0)).code(),
            StatusCode::kNotImplemented);
  EXPECT_EQ((*index)->Insert(50, std::vector<double>(3, 0.0)).code(),
            StatusCode::kInvalidArgument);

  // A valid insert extends the graph deterministically: inserting the
  // same point into two copies yields the same topology.
  auto other = HnswIndex::Build(params, rows, nullptr, nullptr);
  ASSERT_TRUE(other.ok());
  const std::vector<double> p(4, 0.25);
  ASSERT_TRUE((*index)->Insert(50, p).ok());
  ASSERT_TRUE((*other)->Insert(50, p).ok());
  EXPECT_EQ((*index)->SerializeGraph(), (*other)->SerializeGraph());
  EXPECT_EQ((*index)->size(), 51u);
}

}  // namespace
}  // namespace dess
