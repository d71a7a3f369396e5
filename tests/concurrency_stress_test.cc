// Snapshot-isolation stress: concurrent writers (ingest + commit) against
// concurrent readers (sync queries, held snapshots, async executor
// queries). The serving contract under test: every query result set is
// consistent with exactly one published epoch — a reader never observes a
// half-built index, a mix of two epochs, or a database size that differs
// from what that epoch committed. Runs under the `tsan` ctest label and
// must be clean under ThreadSanitizer (preset `tsan`).

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "src/core/system.h"
#include "tests/test_util.h"

namespace dess {
namespace {

constexpr int kNumReaders = 4;
constexpr int kNumWriters = 2;
constexpr int kCommitsPerWriter = 6;

SystemOptions FastSystemOptions() {
  SystemOptions opt;
  opt.hierarchy.max_leaf_size = 4;
  opt.executor.num_threads = 2;
  return opt;
}

ShapeRecord SyntheticRecord(uint64_t seed) {
  ShapeDatabase db = testing_util::BuildSyntheticFeatureDb(1, 1, 0, seed);
  return **db.Get(0);
}

// Test-side ledger: epoch -> database size seen through some snapshot.
// Two observations of one epoch disagreeing means a torn publish.
class EpochLedger {
 public:
  void Observe(uint64_t epoch, size_t num_shapes) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = sizes_.emplace(epoch, num_shapes);
    if (!inserted) {
      EXPECT_EQ(it->second, num_shapes)
          << "epoch " << epoch << " observed with two database sizes";
    }
  }

  void ExpectMonotone() {
    std::lock_guard<std::mutex> lock(mu_);
    size_t prev = 0;
    for (const auto& [epoch, size] : sizes_) {
      EXPECT_GE(size, prev) << "epoch " << epoch << " shrank the database";
      prev = size;
    }
  }

 private:
  std::mutex mu_;
  std::map<uint64_t, size_t> sizes_;
};

TEST(ConcurrencyStressTest, WritersNeverTearReaders) {
  Dess3System system(FastSystemOptions());
  for (uint64_t s = 0; s < 6; ++s) {
    ASSERT_TRUE(system.Ingest(SyntheticRecord(s), {}).ok());
  }
  ASSERT_TRUE(system.Commit().ok());
  QueryExecutor& executor = system.Executor();  // created before the race

  EpochLedger ledger;
  std::atomic<bool> done{false};
  std::atomic<int> queries_served{0};
  const uint64_t max_epoch = 1 + kNumWriters * kCommitsPerWriter;
  const QueryRequest request =
      QueryRequest::TopK(FeatureKind::kPrincipalMoments, 3);

  std::vector<std::thread> writers;
  for (int w = 0; w < kNumWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int c = 0; c < kCommitsPerWriter; ++c) {
        ASSERT_TRUE(system.Ingest(SyntheticRecord(100 + w * 100 + c), {}).ok());
        ASSERT_TRUE(system.Commit().ok());
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kNumReaders; ++r) {
    readers.emplace_back([&] {
      // Keep reading until the writers are done, with a floor of 25
      // iterations so every reader genuinely overlaps the commit storm.
      for (int it = 0; it < 25 || !done.load(std::memory_order_relaxed);
           ++it) {
        // Path 1: explicit snapshot. Everything reachable through it must
        // describe one epoch.
        auto snapshot = system.CurrentSnapshot();
        ASSERT_TRUE(snapshot.ok());
        const uint64_t epoch = (*snapshot)->epoch();
        const size_t size = (*snapshot)->db().NumShapes();
        ASSERT_GE(epoch, 1u);
        ASSERT_LE(epoch, max_epoch);
        ledger.Observe(epoch, size);
        auto response = (*snapshot)->QueryById(0, request);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        ASSERT_EQ(response->epoch, epoch);
        ASSERT_EQ(response->results.size(), 3u);
        for (const SearchResult& res : response->results) {
          ASSERT_GE(res.id, 0);
          ASSERT_LT(res.id, static_cast<int>(size));
          ASSERT_NE(res.id, 0);
        }
        // The same snapshot must answer identically no matter how many
        // commits landed in between.
        auto again = (*snapshot)->QueryById(0, request);
        ASSERT_TRUE(again.ok());
        ASSERT_EQ(again->results.size(), response->results.size());
        for (size_t i = 0; i < response->results.size(); ++i) {
          ASSERT_TRUE(again->results[i] == response->results[i]);
        }

        // Path 2: facade query; its epoch may be newer than `epoch` (a
        // commit may have landed) but never older or torn.
        auto direct = system.QueryByShapeId(1, request);
        ASSERT_TRUE(direct.ok());
        ASSERT_GE(direct->epoch, epoch);
        ASSERT_LE(direct->epoch, max_epoch);

        // Path 3: async executor; same epoch validity through the future.
        auto future = executor.SubmitQueryById(2, request);
        auto async_response = future.get();
        ASSERT_TRUE(async_response.ok());
        ASSERT_GE(async_response->epoch, epoch);
        ASSERT_LE(async_response->epoch, max_epoch);
        queries_served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  ledger.ExpectMonotone();
  EXPECT_GT(queries_served.load(), 0);
  EXPECT_EQ(system.PublishedEpoch(), max_epoch);
  auto final_snapshot = system.CurrentSnapshot();
  ASSERT_TRUE(final_snapshot.ok());
  EXPECT_EQ((*final_snapshot)->db().NumShapes(),
            6u + kNumWriters * kCommitsPerWriter);
}

TEST(ConcurrencyStressTest, BatchUnderConcurrentCommitsStaysConsistent) {
  Dess3System system(FastSystemOptions());
  ShapeDatabase seed_db = testing_util::BuildSyntheticFeatureDb(2, 4, 0);
  for (const ShapeRecord& rec : seed_db.records()) {
    ASSERT_TRUE(system.Ingest(rec, {}).ok());
  }
  ASSERT_TRUE(system.Commit().ok());
  QueryExecutor& executor = system.Executor();

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int c = 0; c < 8 && !done.load(); ++c) {
      ASSERT_TRUE(system.Ingest(SyntheticRecord(200 + c), {}).ok());
      ASSERT_TRUE(system.Commit().ok());
    }
  });

  std::vector<std::pair<ShapeSignature, QueryRequest>> queries;
  for (int id = 0; id < 4; ++id) {
    queries.emplace_back((*seed_db.Get(id))->signature,
                         QueryRequest::TopK(FeatureKind::kSpectral, 3));
  }
  for (int round = 0; round < 10; ++round) {
    auto batch = executor.QueryBatch(queries);
    ASSERT_EQ(batch.size(), queries.size());
    // All responses of one batch carry the same epoch: the batch acquired
    // one snapshot, even while the writer keeps publishing new ones.
    ASSERT_TRUE(batch[0].ok()) << batch[0].status().ToString();
    const uint64_t epoch = batch[0]->epoch;
    for (const auto& response : batch) {
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response->epoch, epoch);
      ASSERT_EQ(response->results.size(), 3u);
    }
  }
  done.store(true);
  writer.join();
}

}  // namespace
}  // namespace dess
