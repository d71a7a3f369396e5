// QueryExecutor contract: futures resolve with the same responses the
// synchronous snapshot path produces (bit-identical), batches are
// internally consistent, backpressure never deadlocks, and destruction
// drains the queue. Runs under the `tsan` ctest label.

#include <gtest/gtest.h>

#include <future>
#include <utility>
#include <vector>

#include "src/core/query_executor.h"
#include "src/core/system.h"
#include "tests/test_util.h"

namespace dess {
namespace {

SystemOptions FastSystemOptions() {
  SystemOptions opt;
  opt.hierarchy.max_leaf_size = 4;
  return opt;
}

class QueryExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    system_ = std::make_unique<Dess3System>(FastSystemOptions());
    db_ = testing_util::BuildSyntheticFeatureDb(3, 4, 2);
    for (const ShapeRecord& rec : db_.records()) {
      ASSERT_TRUE(system_->Ingest(rec, {}).ok());
    }
    ASSERT_TRUE(system_->Commit().ok());
  }

  const ShapeSignature& Signature(int id) {
    return (*db_.Get(id))->signature;
  }

  ShapeDatabase db_;
  std::unique_ptr<Dess3System> system_;
};

void ExpectSameResponse(const QueryResponse& a, const QueryResponse& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_TRUE(a.results[i] == b.results[i]) << "rank " << i;
  }
}

TEST_F(QueryExecutorTest, SubmitQueryMatchesSynchronousPath) {
  const QueryRequest request =
      QueryRequest::TopK(FeatureKind::kPrincipalMoments, 3);
  auto future = system_->Executor().SubmitQuery(Signature(0), request);
  auto async_response = future.get();
  ASSERT_TRUE(async_response.ok()) << async_response.status().ToString();
  auto sync_response = system_->QueryBySignature(Signature(0), request);
  ASSERT_TRUE(sync_response.ok());
  ExpectSameResponse(*async_response, *sync_response);
}

TEST_F(QueryExecutorTest, SubmitQueryByIdExcludesQueryShape) {
  auto future = system_->Executor().SubmitQueryById(
      2, QueryRequest::TopK(FeatureKind::kSpectral, 4));
  auto response = future.get();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->results.size(), 4u);
  for (const SearchResult& r : response->results) EXPECT_NE(r.id, 2);
}

TEST_F(QueryExecutorTest, UncommittedSystemFailsFuturesWithPrecondition) {
  Dess3System empty(FastSystemOptions());
  auto future = empty.Executor().SubmitQueryById(
      0, QueryRequest::TopK(FeatureKind::kPrincipalMoments, 2));
  auto response = future.get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(QueryExecutorTest, BatchIsBitIdenticalToSequentialExecution) {
  std::vector<std::pair<ShapeSignature, QueryRequest>> queries;
  for (int id = 0; id < 8; ++id) {
    const FeatureKind kind = (id % 2 == 0) ? FeatureKind::kPrincipalMoments
                                           : FeatureKind::kMomentInvariants;
    queries.emplace_back(Signature(id), QueryRequest::TopK(kind, 3));
  }
  auto batch = system_->Executor().QueryBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());

  // The whole batch ran against one snapshot, so replaying the requests
  // sequentially against the published snapshot gives the same bytes in
  // the same submission order.
  auto snapshot = system_->CurrentSnapshot();
  ASSERT_TRUE(snapshot.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
    auto sequential =
        (*snapshot)->Query(queries[i].first, queries[i].second);
    ASSERT_TRUE(sequential.ok());
    ExpectSameResponse(*batch[i], *sequential);
  }
}

TEST_F(QueryExecutorTest, BackpressureDrainsWithoutDeadlock) {
  // One worker, a 2-slot queue, and far more submissions than slots:
  // Submit* must block rather than drop, and every future must resolve.
  QueryExecutorOptions options;
  options.num_threads = 1;
  options.max_queue_depth = 2;
  QueryExecutor executor([this] { return system_->CurrentSnapshot(); },
                         options);
  const QueryRequest request =
      QueryRequest::TopK(FeatureKind::kPrincipalMoments, 2);
  std::vector<std::future<Result<QueryResponse>>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(executor.SubmitQueryById(i % 4, request));
  }
  for (auto& future : futures) {
    auto response = future.get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->results.size(), 2u);
  }
  EXPECT_EQ(executor.QueueDepth(), 0u);
}

TEST_F(QueryExecutorTest, DestructionDrainsSubmittedQueries) {
  std::vector<std::future<Result<QueryResponse>>> futures;
  {
    QueryExecutorOptions options;
    options.num_threads = 2;
    QueryExecutor executor([this] { return system_->CurrentSnapshot(); },
                           options);
    for (int i = 0; i < 12; ++i) {
      futures.push_back(executor.SubmitQueryById(
          i % 6, QueryRequest::TopK(FeatureKind::kSpectral, 2)));
    }
  }  // destructor joins only after the queue is empty
  for (auto& future : futures) {
    auto response = future.get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }
}

TEST_F(QueryExecutorTest, QueuedQueriesSeeNewestEpoch) {
  // Per-query snapshot acquisition: a query submitted after a new Commit()
  // must answer from the new epoch, not one pinned at executor creation.
  QueryExecutor& executor = system_->Executor();
  auto before = executor
                    .SubmitQueryById(
                        0, QueryRequest::TopK(FeatureKind::kSpectral, 2))
                    .get();
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->epoch, 1u);
  ShapeDatabase extra = testing_util::BuildSyntheticFeatureDb(1, 1, 0, 77);
  ASSERT_TRUE(system_->Ingest(**extra.Get(0), {}).ok());
  ASSERT_TRUE(system_->Commit().ok());
  auto after = executor
                   .SubmitQueryById(
                       0, QueryRequest::TopK(FeatureKind::kSpectral, 2))
                   .get();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->epoch, 2u);
}

}  // namespace
}  // namespace dess
