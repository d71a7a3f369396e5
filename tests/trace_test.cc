// Tracer contract: spans nest with correct parentage (including across
// QueryExecutor worker threads), sampling is deterministic in the trace
// id, disabled mode records nothing, Chrome-trace export is well-formed
// JSON, slow queries emit exactly one structured line, and
// QueryStats::MergeFrom sums every field. Runs under the `trace` and
// `tsan` ctest labels.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/trace.h"
#include "src/core/query_executor.h"
#include "src/core/system.h"
#include "src/index/multidim_index.h"
#include "tests/test_util.h"

namespace dess {
namespace {

using SpanRecord = Tracer::SpanRecord;

/// Restores the global tracer to its quiescent state around every test so
/// sampling/threshold changes cannot leak into other suites in the binary.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tracer_ = Tracer::Global();
    tracer_->SetSampleRate(0);
    tracer_->SetSlowQueryThresholdMs(-1.0);
    tracer_->SetSlowQuerySink(nullptr);
    tracer_->ResetForTest();
  }
  void TearDown() override {
    tracer_->SetSampleRate(0);
    tracer_->SetSlowQueryThresholdMs(-1.0);
    tracer_->SetSlowQuerySink(nullptr);
    tracer_->ResetForTest();
  }

  Tracer* tracer_ = nullptr;
};

/// Minimal structural JSON check: braces/brackets balance and close in
/// the right order, ignoring bracket characters inside string literals.
bool JsonStructureIsBalanced(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

size_t CountOccurrences(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST_F(TraceTest, DisabledModeRecordsNothingButStillAssignsTraceIds) {
  tracer_->SetSampleRate(0);
  uint64_t first_id = 0;
  {
    ScopedTraceRequest request(tracer_);
    first_id = request.trace_id();
    EXPECT_NE(first_id, 0u);
    EXPECT_FALSE(request.sampled());
    TraceSpanScope span("test.disabled");
    EXPECT_FALSE(span.active());
  }
  {
    ScopedTraceRequest request(tracer_);
    EXPECT_NE(request.trace_id(), first_id);
  }
  const Tracer::Stats stats = tracer_->GetStats();
  EXPECT_EQ(stats.traces_started, 2u);
  EXPECT_EQ(stats.traces_sampled, 0u);
  EXPECT_EQ(stats.spans_recorded, 0u);
  EXPECT_TRUE(tracer_->CollectSpans().empty());
}

TEST_F(TraceTest, SamplingIsDeterministicInTheTraceId) {
  tracer_->SetSampleRate(3);
  std::vector<bool> first_run;
  for (int i = 0; i < 9; ++i) {
    const TraceContext ctx = tracer_->StartTrace();
    // Ids 1, 4, 7 are sampled at rate 3: (id - 1) % 3 == 0.
    EXPECT_EQ(ctx.sampled, (ctx.trace_id - 1) % 3 == 0)
        << "trace id " << ctx.trace_id;
    first_run.push_back(ctx.sampled);
  }
  // Restarting the id counter replays the identical decision sequence.
  tracer_->ResetForTest();
  tracer_->SetSampleRate(3);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(tracer_->StartTrace().sampled, first_run[i]) << "trace " << i;
  }
  const Tracer::Stats stats = tracer_->GetStats();
  EXPECT_EQ(stats.traces_started, 9u);
  EXPECT_EQ(stats.traces_sampled, 3u);
  EXPECT_EQ(stats.sample_rate, 3u);
}

TEST_F(TraceTest, SpansNestWithCorrectParentageOnOneThread) {
  tracer_->SetSampleRate(1);
  ScopedTraceRequest request(tracer_);
  ASSERT_TRUE(request.sampled());
  {
    TraceSpanScope outer("test.outer");
    ASSERT_TRUE(outer.active());
    {
      TraceSpanScope inner("test.inner");
      ASSERT_TRUE(inner.active());
      inner.Annotate("rows", 42);
    }
    {
      TraceSpanScope sibling("test.sibling");
      ASSERT_TRUE(sibling.active());
    }
  }
  const std::vector<SpanRecord> spans = tracer_->CollectSpans();
  ASSERT_EQ(spans.size(), 3u);
  std::map<std::string, SpanRecord> by_name;
  for (const SpanRecord& s : spans) by_name[s.name] = s;
  ASSERT_TRUE(by_name.count("test.outer"));
  ASSERT_TRUE(by_name.count("test.inner"));
  ASSERT_TRUE(by_name.count("test.sibling"));
  const SpanRecord& outer = by_name["test.outer"];
  const SpanRecord& inner = by_name["test.inner"];
  const SpanRecord& sibling = by_name["test.sibling"];
  EXPECT_EQ(outer.trace_id, request.trace_id());
  EXPECT_EQ(outer.parent_span_id, 0u);  // root span of the request
  EXPECT_EQ(inner.parent_span_id, outer.span_id);
  EXPECT_EQ(sibling.parent_span_id, outer.span_id);
  EXPECT_NE(inner.span_id, sibling.span_id);
  // The annotation rode along on the inner span.
  ASSERT_STREQ(inner.arg_name[0], "rows");
  EXPECT_EQ(inner.arg_value[0], 42u);
  // Nesting is also temporal: the outer span covers the inner one.
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.start_ns + outer.duration_ns,
            inner.start_ns + inner.duration_ns);
}

TEST_F(TraceTest, ScopedContextCarriesTraceAcrossManualThreadBoundary) {
  tracer_->SetSampleRate(1);
  ScopedTraceRequest request(tracer_);
  const TraceContext ctx = CurrentTraceContext();
  std::thread worker([&] {
    EXPECT_FALSE(CurrentTraceContext().active());
    ScopedTraceContext install(ctx);
    EXPECT_EQ(CurrentTraceContext().trace_id, request.trace_id());
    TraceSpanScope span("test.worker");
    EXPECT_TRUE(span.active());
  });
  worker.join();
  const std::vector<SpanRecord> spans = tracer_->CollectSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].trace_id, request.trace_id());
}

/// End-to-end fixture: a committed system over synthetic features with a
/// linear-scan backend, so the index traversal invokes the batched SIMD
/// kernel (the deepest span of the acceptance tree).
class TraceSystemTest : public TraceTest {
 protected:
  void SetUp() override {
    TraceTest::SetUp();
    SystemOptions options;
    options.hierarchy.max_leaf_size = 4;
    options.search.use_rtree = false;
    options.search.backend = IndexBackend::kLinearScan;
    system_ = std::make_unique<Dess3System>(options);
    db_ = testing_util::BuildSyntheticFeatureDb(3, 4, 2);
    for (const ShapeRecord& rec : db_.records()) {
      ASSERT_TRUE(system_->Ingest(rec, {}).ok());
    }
    ASSERT_TRUE(system_->Commit().ok());
    // Drop the spans recorded during ingest/commit: the assertions below
    // are about the query path only.
    tracer_->ResetForTest();
  }

  const ShapeSignature& Signature(int id) {
    return (*db_.Get(id))->signature;
  }

  ShapeDatabase db_;
  std::unique_ptr<Dess3System> system_;
};

TEST_F(TraceSystemTest, ExecutorQuerySpanTreeReachesTheKernelBatches) {
  tracer_->SetSampleRate(1);
  auto future = system_->Executor().SubmitQuery(
      Signature(0), QueryRequest::TopK(FeatureKind::kPrincipalMoments, 3));
  auto response = future.get();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_NE(response->trace_id, 0u);
  // Join the executor threads: a future resolves inside the worker's
  // executor.query scope, so the root span lands only when the worker
  // finishes the task.
  system_.reset();

  std::vector<SpanRecord> spans;
  for (const SpanRecord& s : tracer_->CollectSpans()) {
    if (s.trace_id == response->trace_id) spans.push_back(s);
  }
  auto find = [&](const std::string& name) -> const SpanRecord* {
    for (const SpanRecord& s : spans) {
      if (name == s.name) return &s;
    }
    return nullptr;
  };
  // The acceptance tree: executor dispatch -> engine stage -> index
  // traversal -> kernel batch, all one parent chain in one trace.
  const SpanRecord* executor = find("executor.query");
  const SpanRecord* engine = find("search.query_topk");
  const SpanRecord* index = find("index.linear_scan.knearest");
  const SpanRecord* kernel = find("kernel.batch");
  ASSERT_NE(executor, nullptr);
  ASSERT_NE(engine, nullptr);
  ASSERT_NE(index, nullptr);
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(executor->parent_span_id, 0u);
  EXPECT_EQ(engine->parent_span_id, executor->span_id);
  EXPECT_EQ(index->parent_span_id, engine->span_id);
  EXPECT_EQ(kernel->parent_span_id, index->span_id);
  // The worker recorded the whole chain on one thread, with the trace id
  // the submitting thread allocated.
  EXPECT_EQ(executor->tid, kernel->tid);
  // Index spans carry their traversal counters as annotations.
  ASSERT_STREQ(kernel->arg_name[0], "rows");
  EXPECT_EQ(kernel->arg_value[0], db_.NumShapes());
}

TEST_F(TraceSystemTest, ConcurrentSubmissionsKeepTracesDisjoint) {
  tracer_->SetSampleRate(1);
  const QueryRequest request =
      QueryRequest::TopK(FeatureKind::kSpectral, 3);
  std::vector<std::future<Result<QueryResponse>>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(system_->Executor().SubmitQueryById(i % 4, request));
  }
  std::vector<uint64_t> ids;
  for (auto& future : futures) {
    auto response = future.get();
    ASSERT_TRUE(response.ok());
    ids.push_back(response->trace_id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end())
      << "every submission must get its own trace id";
  system_.reset();  // join workers so every root span is recorded
  // Every span belongs to exactly one of the submitted traces, and each
  // trace has exactly one executor root span.
  std::map<uint64_t, int> roots;
  for (const SpanRecord& s : tracer_->CollectSpans()) {
    EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), s.trace_id));
    if (s.parent_span_id == 0) roots[s.trace_id]++;
  }
  for (uint64_t id : ids) EXPECT_EQ(roots[id], 1) << "trace " << id;
}

TEST_F(TraceSystemTest, ChromeTraceExportIsWellFormed) {
  tracer_->SetSampleRate(1);
  auto response = system_->QueryBySignature(
      Signature(1), QueryRequest::TopK(FeatureKind::kPrincipalMoments, 3));
  ASSERT_TRUE(response.ok());
  const std::vector<SpanRecord> spans = tracer_->CollectSpans();
  ASSERT_FALSE(spans.empty());

  const std::string json = tracer_->ExportChromeTrace();
  EXPECT_TRUE(JsonStructureIsBalanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // WriteChromeTrace persists the same bytes.
  const std::string path =
      ::testing::TempDir() + "/dess_trace_export.json";
  ASSERT_TRUE(tracer_->WriteChromeTrace(path));
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), json);
  // One complete event per collected span, each carrying the trace id.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"X\""), spans.size());
  EXPECT_EQ(CountOccurrences(json, "\"trace_id\":"), spans.size());
  EXPECT_NE(json.find("\"name\":\"search.query_topk\""), std::string::npos);
}

TEST_F(TraceSystemTest, StageTimingsReportDeadlineSlack) {
  QueryRequest request = QueryRequest::TopK(FeatureKind::kSpectral, 3);
  auto response = system_->QueryBySignature(Signature(0), request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->stage_timings.size(), 1u);
  EXPECT_EQ(response->stage_timings[0].stage, "search.query_topk");
  EXPECT_GE(response->stage_timings[0].seconds, 0.0);
  EXPECT_FALSE(response->stage_timings[0].has_deadline);

  request.WithDeadlineAfter(std::chrono::seconds(30));
  response = system_->QueryBySignature(Signature(0), request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->stage_timings.size(), 1u);
  EXPECT_TRUE(response->stage_timings[0].has_deadline);
  EXPECT_GT(response->stage_timings[0].deadline_slack_seconds, 0.0);
  EXPECT_LE(response->stage_timings[0].deadline_slack_seconds, 30.0);
}

TEST_F(TraceSystemTest, MultiStepStageTimingsCoverEveryStage) {
  auto response = system_->QueryByShapeId(
      0, QueryRequest::MultiStep(MultiStepPlan::Standard(8, 4)));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->stage_timings.size(), 2u);
  EXPECT_EQ(response->stage_timings[0].stage, "search.query_topk");
  EXPECT_EQ(response->stage_timings[1].stage, "search.rerank");
}

TEST_F(TraceSystemTest, SlowQueryEmitsExactlyOneStructuredLine) {
  std::vector<std::string> lines;
  tracer_->SetSlowQuerySink([&lines](const std::string& line) {
    lines.push_back(line);
  });
  tracer_->SetSlowQueryThresholdMs(0.0);  // every query is "slow"

  auto response = system_->QueryBySignature(
      Signature(0), QueryRequest::TopK(FeatureKind::kPrincipalMoments, 3));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(lines.size(), 1u) << "exactly one line per offending query";
  const std::string& line = lines[0];
  EXPECT_TRUE(JsonStructureIsBalanced(line)) << line;
  EXPECT_NE(line.find("\"event\":\"slow_query\""), std::string::npos);
  EXPECT_NE(line.find("\"trace_id\":" +
                      std::to_string(response->trace_id)),
            std::string::npos);
  EXPECT_NE(line.find("\"mode\":\"topk\""), std::string::npos);
  EXPECT_NE(line.find("\"stages\":["), std::string::npos);
  EXPECT_NE(line.find("\"kernel_batches\""), std::string::npos);

  // Below the threshold nothing is emitted, even for the same query.
  tracer_->SetSlowQueryThresholdMs(1e9);
  ASSERT_TRUE(system_->QueryBySignature(
                  Signature(0),
                  QueryRequest::TopK(FeatureKind::kPrincipalMoments, 3))
                  .ok());
  EXPECT_EQ(lines.size(), 1u);
}

TEST_F(TraceSystemTest, ExecutorPathEmitsOneSlowQueryLinePerQuery) {
  std::vector<std::string> lines;
  tracer_->SetSlowQuerySink([&lines](const std::string& line) {
    lines.push_back(line);
  });
  tracer_->SetSlowQueryThresholdMs(0.0);
  std::vector<std::pair<ShapeSignature, QueryRequest>> queries;
  for (int id = 0; id < 4; ++id) {
    queries.emplace_back(Signature(id),
                         QueryRequest::TopK(FeatureKind::kSpectral, 2));
  }
  auto batch = system_->Executor().QueryBatch(queries);
  for (const auto& r : batch) ASSERT_TRUE(r.ok());
  EXPECT_EQ(lines.size(), queries.size());
}

TEST(QueryStatsTest, MergeFromSumsEveryField) {
  QueryStats a;
  a.nodes_visited = 3;
  a.leaves_scanned = 2;
  a.points_compared = 40;
  a.kernel_batches = 1;
  QueryStats b;
  b.nodes_visited = 10;
  b.leaves_scanned = 7;
  b.points_compared = 25;
  b.kernel_batches = 4;
  a.MergeFrom(b);
  EXPECT_EQ(a.nodes_visited, 13u);
  EXPECT_EQ(a.leaves_scanned, 9u);
  EXPECT_EQ(a.points_compared, 65u);
  EXPECT_EQ(a.kernel_batches, 5u);
  // Merging a default-constructed stats object is the identity.
  a.MergeFrom(QueryStats{});
  EXPECT_EQ(a.nodes_visited, 13u);
  EXPECT_EQ(a.leaves_scanned, 9u);
  EXPECT_EQ(a.points_compared, 65u);
  EXPECT_EQ(a.kernel_batches, 5u);
}

}  // namespace
}  // namespace dess
