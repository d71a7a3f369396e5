// The incremental ingest/commit contract: a delta commit layers a small
// side-index over the unchanged main indexes and must answer every query
// mode bit-identically to a frozen-calibration full rebuild of the same
// records; receipts describe what each publish covered; background
// compaction folds the side-index away without changing the epoch or any
// answer, builds beside the writers instead of blocking them, and yields to
// a full commit that lands first; and a durable home (Dess3System::Open)
// round-trips the whole state through the WAL.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/core/system.h"
#include "src/index/index_backend.h"
#include "src/modelgen/marching_cubes.h"
#include "src/modelgen/part_families.h"
#include "src/search/combined.h"
#include "src/search/relevance_feedback.h"
#include "tests/test_util.h"

namespace dess {
namespace {

namespace fs = std::filesystem;

SystemOptions FastSystemOptions() {
  SystemOptions opt;
  opt.hierarchy.max_leaf_size = 4;
  return opt;
}

/// How long a test waits for background work before declaring it stuck.
constexpr std::chrono::seconds kPatience(30);

/// Ends the test binary, rather than hanging ctest, when the scope it
/// guards outlives kPatience: a deadlocked writer can be neither joined
/// nor destroyed.
class Watchdog {
 public:
  explicit Watchdog(const char* what)
      : thread_([this, what] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, kPatience, [this] { return done_; })) {
            std::fprintf(stderr, "watchdog: %s did not finish in %llds\n",
                         what, static_cast<long long>(kPatience.count()));
            std::_Exit(EXIT_FAILURE);
          }
        }) {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts once the members above exist
};

/// Holds a background fold mid-build without a library hook. The
/// "latched_scan" backend (LatchedOptions) builds like linear_scan, but
/// while the latch is armed an index build off the arming thread blocks
/// until Release(); the arming (test) thread's own commits build freely.
/// The latch lets go by itself after kPatience, so a writer stuck behind a
/// held fold fails its test instead of hanging it.
class BuildLatch {
 public:
  BuildLatch() = default;
  BuildLatch(const BuildLatch&) = delete;
  BuildLatch& operator=(const BuildLatch&) = delete;
  ~BuildLatch() {
    Release();
    if (expiry_.joinable()) expiry_.join();
  }

  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    owner_ = std::this_thread::get_id();
    armed_ = true;
    expiry_ = std::thread([this] {
      std::unique_lock<std::mutex> expiry(mu_);
      cv_.wait_for(expiry, kPatience, [this] { return !armed_; });
      armed_ = false;
      cv_.notify_all();
    });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      armed_ = false;
    }
    cv_.notify_all();
  }

  /// True while builds off the arming thread are still held.
  bool Held() {
    std::lock_guard<std::mutex> lock(mu_);
    return armed_;
  }

  /// Waits until some build has blocked on the latch.
  bool WaitBlocked() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, kPatience, [this] { return blocked_; });
  }

  /// The backend factory's gate.
  void Pass() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!armed_ || std::this_thread::get_id() == owner_) return;
    blocked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return !armed_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::thread::id owner_;
  bool armed_ = false;
  bool blocked_ = false;
  std::thread expiry_;
};

/// FastSystemOptions with every space indexed by "latched_scan".
SystemOptions LatchedOptions(const std::shared_ptr<BuildLatch>& latch) {
  auto linear_scan = BuiltInIndexBackends()->Resolve(kLinearScanBackendId);
  DESS_CHECK(linear_scan.ok());
  IndexBackendDef def = **linear_scan;
  def.id = "latched_scan";
  auto build = def.factory;
  def.factory = [latch, build](const IndexBuildContext& ctx) {
    latch->Pass();
    return build(ctx);
  };
  auto backends = std::make_shared<IndexBackendRegistry>();
  DESS_CHECK(backends->Register(def).ok());
  SystemOptions options = FastSystemOptions();
  options.search.index_backend = def.id;
  options.search.index_backends = std::move(backends);
  return options;
}

uint64_t Counter(const std::string& name) {
  for (const CounterSample& c : MetricsRegistry::Global()->Snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

/// Polls a counter until it reaches `want`; false after kPatience.
bool WaitForCounter(const std::string& name, uint64_t want) {
  const auto deadline = std::chrono::steady_clock::now() + kPatience;
  while (Counter(name) < want) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

/// Exact (bitwise) equality of two result lists, with a readable diff.
void ExpectSameResults(const std::vector<SearchResult>& a,
                       const std::vector<SearchResult>& b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i])
        << what << " rank " << i << ": (" << a[i].id << ", " << a[i].distance
        << ") vs (" << b[i].id << ", " << b[i].distance << ")";
  }
}

void ExpectSameResponses(const Result<QueryResponse>& a,
                         const Result<QueryResponse>& b,
                         const std::string& what) {
  ASSERT_TRUE(a.ok()) << what << ": " << a.status().ToString();
  ASSERT_TRUE(b.ok()) << what << ": " << b.status().ToString();
  ExpectSameResults(a->results, b->results, what);
}

/// Runs every query mode against both snapshots and asserts bitwise
/// equality: per-space top-k, weighted top-k, threshold, multi-step,
/// combined-feature, and a relevance-feedback round. Query ids cover both
/// a base record and a record that lives in the delta side-index.
void ExpectBitIdenticalAcrossAllModes(const SystemSnapshot& layered,
                                      const SystemSnapshot& full,
                                      const std::vector<int>& query_ids) {
  for (const int id : query_ids) {
    for (FeatureKind kind : AllFeatureKinds()) {
      const std::string tag = "id " + std::to_string(id) + " space " +
                              std::string(FeatureKindName(kind));
      ExpectSameResponses(layered.QueryById(id, QueryRequest::TopK(kind, 8)),
                          full.QueryById(id, QueryRequest::TopK(kind, 8)),
                          "topk " + tag);
      ExpectSameResponses(
          layered.QueryById(id, QueryRequest::Threshold(kind, 0.2)),
          full.QueryById(id, QueryRequest::Threshold(kind, 0.2)),
          "threshold " + tag);
      QueryRequest weighted = QueryRequest::TopK(kind, 8);
      weighted.weights.assign(FeatureDim(kind), 1.0);
      weighted.weights[0] = 2.5;
      ExpectSameResponses(layered.QueryById(id, weighted),
                          full.QueryById(id, weighted), "weighted " + tag);
    }
    ExpectSameResponses(
        layered.QueryById(id,
                          QueryRequest::MultiStep(MultiStepPlan::Standard(8, 4))),
        full.QueryById(id,
                       QueryRequest::MultiStep(MultiStepPlan::Standard(8, 4))),
        "multistep id " + std::to_string(id));

    const CombinationWeights alphas = CombinationWeights::Uniform();
    auto combined_a = CombinedQueryById(layered.engine(), id, alphas, 8);
    auto combined_b = CombinedQueryById(full.engine(), id, alphas, 8);
    ASSERT_TRUE(combined_a.ok()) << combined_a.status().ToString();
    ASSERT_TRUE(combined_b.ok()) << combined_b.status().ToString();
    ExpectSameResults(*combined_a, *combined_b,
                      "combined id " + std::to_string(id));
  }

  // One relevance-feedback round, with a delta record marked relevant so
  // the feedback math reads side rows too.
  const FeatureKind kind = FeatureKind::kPrincipalMoments;
  auto probe = layered.db().Get(query_ids.front());
  ASSERT_TRUE(probe.ok());
  Feedback feedback;
  feedback.relevant_ids = {query_ids.front(), query_ids.back()};
  std::vector<double> raw_a = (*probe)->signature.Get(kind).values;
  std::vector<double> raw_b = raw_a;
  std::vector<double> weights_a, weights_b;
  const int ordinal = static_cast<int>(kind);
  auto round_a = FeedbackRound(layered.engine(), ordinal, &raw_a, &weights_a,
                               feedback, 8);
  auto round_b =
      FeedbackRound(full.engine(), ordinal, &raw_b, &weights_b, feedback, 8);
  ASSERT_TRUE(round_a.ok()) << round_a.status().ToString();
  ASSERT_TRUE(round_b.ok()) << round_b.status().ToString();
  EXPECT_EQ(raw_a, raw_b);
  EXPECT_EQ(weights_a, weights_b);
  ExpectSameResults(*round_a, *round_b, "feedback round");
}

class IncrementalCommitTest : public ::testing::Test {
 protected:
  static constexpr size_t kBase = 14;  // 3 groups x 4 + 2 noise
  void SetUp() override {
    all_ = testing_util::BuildSyntheticFeatureDb(5, 4, 4, /*seed=*/77);
    ASSERT_GT(all_.NumShapes(), kBase);
  }

  /// Record i of the synthetic corpus (ids are dense from 0).
  const ShapeRecord& RecordAt(size_t i) {
    auto rec = all_.Get(static_cast<int>(i));
    DESS_CHECK(rec.ok());
    return **rec;
  }

  /// Ingests records [begin, end) of the synthetic corpus.
  void IngestRange(Dess3System* system, size_t begin, size_t end) {
    for (size_t i = begin; i < end && i < all_.NumShapes(); ++i) {
      ASSERT_TRUE(system->Ingest(RecordAt(i), {}).ok());
    }
  }

  /// Waits for a background compaction to fold the side-index away and
  /// returns the republished snapshot; null if it never lands.
  static std::shared_ptr<const SystemSnapshot> WaitForFold(
      const Dess3System& system) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      auto current = system.CurrentSnapshot();
      if (current.ok() && (*current)->NumDeltaRecords() == 0) return *current;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return nullptr;
  }

  ShapeDatabase all_;
};

TEST_F(IncrementalCommitTest, DeltaCommitMatchesFrozenFullRebuild) {
  Dess3System system(FastSystemOptions());
  IngestRange(&system, 0, kBase);
  auto first = system.Commit();
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  IngestRange(&system, kBase, all_.NumShapes());
  auto delta = system.Commit(CommitOptions{.mode = CommitMode::kDelta});
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  auto layered = system.CurrentSnapshot();
  ASSERT_TRUE(layered.ok());
  EXPECT_EQ((*layered)->NumDeltaRecords(), all_.NumShapes() - kBase);

  // Frozen-calibration full rebuild of the same records: the reference the
  // layered snapshot must match bitwise. (A recalibrating rebuild would
  // shift every standardized distance — that comparison is meaningless.)
  auto full = system.Commit(
      CommitOptions{.mode = CommitMode::kFull, .recalibrate = false});
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  auto rebuilt = system.CurrentSnapshot();
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ((*rebuilt)->NumDeltaRecords(), 0u);

  // Query a base record and a delta record through every mode.
  const int delta_id = static_cast<int>(all_.NumShapes()) - 1;
  ExpectBitIdenticalAcrossAllModes(**layered, **rebuilt, {0, delta_id});
}

TEST_F(IncrementalCommitTest, DeltaOverHnswMatchesFrozenFullRebuild) {
  // Same contract with an approximate main index: the delta side-index is
  // always exact (linear-scan SoA blocks), layered over hnsw-served main
  // indexes. At this corpus size the oversampled candidate fetch covers
  // the whole graph, so merged answers must still match the frozen full
  // rebuild bitwise — the side overlay must not perturb rank, distance or
  // similarity of any mode.
  SystemOptions options = FastSystemOptions();
  options.search.index_backend = kHnswBackendId;
  Dess3System system(options);
  IngestRange(&system, 0, kBase);
  auto first = system.Commit();
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  IngestRange(&system, kBase, all_.NumShapes());
  auto delta = system.Commit(CommitOptions{.mode = CommitMode::kDelta});
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  auto layered = system.CurrentSnapshot();
  ASSERT_TRUE(layered.ok());
  EXPECT_EQ((*layered)->NumDeltaRecords(), all_.NumShapes() - kBase);
  EXPECT_EQ((*layered)->engine().BackendIdAt(0), kHnswBackendId);
  EXPECT_FALSE((*layered)->engine().IsExactAt(0));

  auto full = system.Commit(
      CommitOptions{.mode = CommitMode::kFull, .recalibrate = false});
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  auto rebuilt = system.CurrentSnapshot();
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ((*rebuilt)->NumDeltaRecords(), 0u);

  const int delta_id = static_cast<int>(all_.NumShapes()) - 1;
  ExpectBitIdenticalAcrossAllModes(**layered, **rebuilt, {0, delta_id});
}

TEST_F(IncrementalCommitTest, ReceiptsDescribeEachPublish) {
  Dess3System system(FastSystemOptions());
  IngestRange(&system, 0, kBase);
  auto first = system.Commit();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->epoch, 1u);
  EXPECT_EQ(first->mode, CommitMode::kFull);
  EXPECT_EQ(first->delta_records, kBase);
  EXPECT_EQ(first->wal_sequence, 0u);  // no durable home

  IngestRange(&system, kBase, all_.NumShapes());
  EXPECT_EQ(system.PendingRecords(), all_.NumShapes() - kBase);
  auto delta = system.Commit(CommitOptions{.mode = CommitMode::kDelta});
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->epoch, 2u);
  EXPECT_EQ(delta->mode, CommitMode::kDelta);
  EXPECT_EQ(delta->delta_records, all_.NumShapes() - kBase);
  EXPECT_EQ(system.PendingRecords(), 0u);

  // Nothing new to cover: the receipt says so.
  auto noop = system.Commit(CommitOptions{.mode = CommitMode::kDelta});
  ASSERT_TRUE(noop.ok());
  EXPECT_EQ(noop->delta_records, 0u);
}

TEST_F(IncrementalCommitTest, FirstDeltaCommitDegradesToFull) {
  Dess3System system(FastSystemOptions());
  IngestRange(&system, 0, kBase);
  auto receipt = system.Commit(CommitOptions{.mode = CommitMode::kDelta});
  ASSERT_TRUE(receipt.ok());
  // With nothing published to layer over, the commit is a full build and
  // honestly reports itself as one.
  EXPECT_EQ(receipt->mode, CommitMode::kFull);
  auto snapshot = system.CurrentSnapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ((*snapshot)->NumDeltaRecords(), 0u);
}

TEST_F(IncrementalCommitTest, EmptyCommitIsInvalidArgument) {
  Dess3System system(FastSystemOptions());
  auto receipt = system.Commit();
  ASSERT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IncrementalCommitTest,
       BackgroundCompactionKeepsEpochAndAnswersBitIdentical) {
  SystemOptions options = FastSystemOptions();
  options.compaction_min_delta_records = 1;
  options.compaction_delta_ratio = 0.0;
  Dess3System system(options);
  IngestRange(&system, 0, kBase);
  ASSERT_TRUE(system.Commit().ok());
  IngestRange(&system, kBase, all_.NumShapes());
  auto delta = system.Commit(CommitOptions{.mode = CommitMode::kDelta});
  ASSERT_TRUE(delta.ok());
  auto layered = system.CurrentSnapshot();
  ASSERT_TRUE(layered.ok());

  // The fold runs on the ingest pool; wait for the republish (same epoch,
  // side-index gone).
  const std::shared_ptr<const SystemSnapshot> compacted = WaitForFold(system);
  ASSERT_NE(compacted, nullptr) << "compaction never folded the side-index";
  EXPECT_EQ(compacted->epoch(), (*layered)->epoch());
  EXPECT_EQ(system.PublishedEpoch(), delta->epoch);

  const int delta_id = static_cast<int>(all_.NumShapes()) - 1;
  ExpectBitIdenticalAcrossAllModes(**layered, *compacted, {0, delta_id});

  // Compaction also refreshes the browsing hierarchies over the folded
  // records, where the layered snapshot still served the base's.
  EXPECT_EQ(
      compacted->db().NumShapes(),
      static_cast<size_t>(all_.NumShapes()));
}

TEST_F(IncrementalCommitTest, LayeredSnapshotReusesBaseHierarchies) {
  Dess3System system(FastSystemOptions());
  IngestRange(&system, 0, kBase);
  ASSERT_TRUE(system.Commit().ok());
  auto base = system.CurrentSnapshot();
  ASSERT_TRUE(base.ok());
  IngestRange(&system, kBase, all_.NumShapes());
  ASSERT_TRUE(
      system.Commit(CommitOptions{.mode = CommitMode::kDelta}).ok());
  auto layered = system.CurrentSnapshot();
  ASSERT_TRUE(layered.ok());
  // O(delta) means the hierarchies are shared, not rebuilt: the layered
  // snapshot serves the very same nodes until a full commit or compaction.
  for (FeatureKind kind : AllFeatureKinds()) {
    EXPECT_EQ(&(*layered)->Hierarchy(kind), &(*base)->Hierarchy(kind))
        << FeatureKindName(kind);
  }
}

TEST_F(IncrementalCommitTest, WritersCommitWhileAFoldBuilds) {
  auto latch = std::make_shared<BuildLatch>();
  SystemOptions options = LatchedOptions(latch);
  options.compaction_min_delta_records = 4;
  options.compaction_delta_ratio = 0.0;
  Dess3System system(options);
  const size_t total = all_.NumShapes();
  const size_t folded = total - 2;  // the two left over stay below 4
  ASSERT_GE(folded, kBase + 4);
  IngestRange(&system, 0, kBase);
  ASSERT_TRUE(system.Commit().ok());
  const uint64_t compactions = Counter("system.compactions");
  const uint64_t relayered = Counter("system.compaction_relayered_records");

  latch->Arm();
  IngestRange(&system, kBase, folded);
  ASSERT_TRUE(system.Commit(CommitOptions{.mode = CommitMode::kDelta}).ok());
  ASSERT_TRUE(latch->WaitBlocked()) << "no fold started building";

  // The fold is held mid-build; the writer must not wait for it.
  IngestRange(&system, folded, total);
  auto last = system.Commit(CommitOptions{.mode = CommitMode::kDelta});
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_TRUE(latch->Held()) << "Ingest/Commit waited for the fold's build";
  latch->Release();

  ASSERT_TRUE(WaitForCounter("system.compactions", compactions + 1));
  auto served = system.CurrentSnapshot();
  ASSERT_TRUE(served.ok());
  // The folded base covers the fold's prefix (its hierarchies too), the
  // records committed during the build are layered over it, and the epoch
  // is the last delta commit's.
  EXPECT_EQ((*served)->NumDeltaRecords(), total - folded);
  EXPECT_EQ((*served)->Hierarchy(FeatureKind::kPrincipalMoments)
                .members.size(),
            folded);
  EXPECT_EQ((*served)->epoch(), last->epoch);
  EXPECT_EQ(system.PublishedEpoch(), last->epoch);
  EXPECT_EQ(Counter("system.compaction_relayered_records"),
            relayered + (total - folded));

  auto full = system.Commit(
      CommitOptions{.mode = CommitMode::kFull, .recalibrate = false});
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  auto rebuilt = system.CurrentSnapshot();
  ASSERT_TRUE(rebuilt.ok());
  // A base record, a folded record and a relayered record.
  ExpectBitIdenticalAcrossAllModes(
      **served, **rebuilt,
      {0, static_cast<int>(kBase), static_cast<int>(total) - 1});
}

TEST_F(IncrementalCommitTest, FoldReschedulesWhenTheDeltaGrewDuringItsBuild) {
  auto latch = std::make_shared<BuildLatch>();
  SystemOptions options = LatchedOptions(latch);
  options.compaction_min_delta_records = 1;
  options.compaction_delta_ratio = 0.0;
  Dess3System system(options);
  IngestRange(&system, 0, kBase);
  ASSERT_TRUE(system.Commit().ok());
  const uint64_t compactions = Counter("system.compactions");

  latch->Arm();
  IngestRange(&system, kBase, kBase + 2);
  ASSERT_TRUE(system.Commit(CommitOptions{.mode = CommitMode::kDelta}).ok());
  ASSERT_TRUE(latch->WaitBlocked()) << "no fold started building";
  IngestRange(&system, kBase + 2, all_.NumShapes());
  auto last = system.Commit(CommitOptions{.mode = CommitMode::kDelta});
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  latch->Release();

  // The first fold layers the late records over its base and schedules a
  // second fold, which folds them too.
  const std::shared_ptr<const SystemSnapshot> compacted = WaitForFold(system);
  ASSERT_NE(compacted, nullptr) << "the late records were never folded";
  EXPECT_EQ(compacted->epoch(), last->epoch);
  EXPECT_EQ(compacted->db().NumShapes(), all_.NumShapes());
  EXPECT_TRUE(WaitForCounter("system.compactions", compactions + 2));
}

TEST_F(IncrementalCommitTest, FullCommitDuringAFoldSupersedesIt) {
  auto latch = std::make_shared<BuildLatch>();
  SystemOptions options = LatchedOptions(latch);
  options.compaction_min_delta_records = 1;
  options.compaction_delta_ratio = 0.0;
  Dess3System system(options);
  IngestRange(&system, 0, kBase);
  ASSERT_TRUE(system.Commit().ok());
  const uint64_t compactions = Counter("system.compactions");
  const uint64_t superseded = Counter("system.compactions_superseded");

  latch->Arm();
  IngestRange(&system, kBase, kBase + 3);
  ASSERT_TRUE(system.Commit(CommitOptions{.mode = CommitMode::kDelta}).ok());
  ASSERT_TRUE(latch->WaitBlocked()) << "no fold started building";
  IngestRange(&system, kBase + 3, all_.NumShapes());
  auto full = system.Commit();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_TRUE(latch->Held()) << "the full commit waited for the fold's build";
  latch->Release();

  // The fold finishes after the full commit: its result is dropped and
  // counted, and the full commit's snapshot keeps serving.
  ASSERT_TRUE(
      WaitForCounter("system.compactions_superseded", superseded + 1));
  EXPECT_EQ(Counter("system.compactions"), compactions);
  auto served = system.CurrentSnapshot();
  ASSERT_TRUE(served.ok());
  EXPECT_EQ((*served)->epoch(), full->epoch);
  EXPECT_EQ((*served)->NumDeltaRecords(), 0u);
  EXPECT_EQ((*served)->db().NumShapes(), all_.NumShapes());
}

TEST_F(IncrementalCommitTest, DestroyingTheSystemWaitsForALatchedFold) {
  auto latch = std::make_shared<BuildLatch>();
  SystemOptions options = LatchedOptions(latch);
  options.compaction_min_delta_records = 1;
  options.compaction_delta_ratio = 0.0;
  auto system = std::make_unique<Dess3System>(options);
  IngestRange(system.get(), 0, kBase);
  ASSERT_TRUE(system->Commit().ok());
  latch->Arm();
  IngestRange(system.get(), kBase, all_.NumShapes());
  ASSERT_TRUE(
      system->Commit(CommitOptions{.mode = CommitMode::kDelta}).ok());
  ASSERT_TRUE(latch->WaitBlocked()) << "no fold started building";

  Watchdog watchdog("destroying the system during a fold");
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    latch->Release();
  });
  system.reset();  // joins the fold once the releaser lets it finish
  releaser.join();
}

TEST_F(IncrementalCommitTest, ReplacingTheIngestPoolBesideAFoldDoesNotDeadlock) {
  // A writer that resizes the ingest pool joins the old pool's workers
  // under the writer lock; no fold may be one of them, waiting for that
  // lock.
  SystemOptions options = FastSystemOptions();
  options.extraction.voxelization.resolution = 20;
  options.compaction_min_delta_records = 1;
  options.compaction_delta_ratio = 0.0;
  Dess3System system(options);
  Rng rng(3);
  auto mesh = MeshSolid(*StandardPartFamilies()[0].build(&rng),
                        {.resolution = 28});
  ASSERT_TRUE(mesh.ok()) << mesh.status().ToString();
  Watchdog watchdog("an ingest beside a fold");
  // Width 3 first, so the resize below happens on any host.
  ASSERT_TRUE(
      system.IngestMesh(*mesh, "wide", kUngrouped, {.num_threads = 3}).ok());
  IngestRange(&system, 0, kBase);
  ASSERT_TRUE(system.Commit().ok());
  IngestRange(&system, kBase, kBase + 6);
  ASSERT_TRUE(system.Commit(CommitOptions{.mode = CommitMode::kDelta}).ok());
  ASSERT_TRUE(
      system.IngestMesh(*mesh, "narrow", kUngrouped, {.num_threads = 2})
          .ok());
  EXPECT_EQ(system.db().NumShapes(), kBase + 8);
}

class DurableHomeTest : public IncrementalCommitTest {
 protected:
  void SetUp() override {
    IncrementalCommitTest::SetUp();
    dir_ = (fs::temp_directory_path() /
            ("dess_home_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(DurableHomeTest, OpenIngestCommitReopenRoundTripsBitIdentically) {
  std::vector<Result<QueryResponse>> before;
  uint64_t epoch = 0;
  {
    auto system = Dess3System::Open(dir_, {}, FastSystemOptions());
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    IngestOptions durable;
    durable.durability = WriteAheadLog::Durability::kFsync;
    for (size_t i = 0; i < kBase; ++i) {
      ASSERT_TRUE((*system)->Ingest(RecordAt(i), durable).ok());
    }
    auto full = (*system)->Commit();
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    EXPECT_GT(full->wal_sequence, 0u);

    for (size_t i = kBase; i < all_.NumShapes(); ++i) {
      ASSERT_TRUE((*system)->Ingest(RecordAt(i), durable).ok());
    }
    auto delta =
        (*system)->Commit(CommitOptions{.mode = CommitMode::kDelta});
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    EXPECT_GT(delta->wal_sequence, 0u);
    EXPECT_EQ((*system)->WalSequence(), delta->wal_sequence);
    epoch = delta->epoch;

    const int delta_id = static_cast<int>(all_.NumShapes()) - 1;
    for (FeatureKind kind : AllFeatureKinds()) {
      before.push_back(
          (*system)->QueryByShapeId(0, QueryRequest::TopK(kind, 8)));
      before.push_back(
          (*system)->QueryByShapeId(delta_id, QueryRequest::TopK(kind, 8)));
    }
    before.push_back((*system)->QueryByShapeId(
        0, QueryRequest::MultiStep(MultiStepPlan::Standard(8, 4))));
  }

  // Recovery: checkpoint + WAL tail must reproduce the delta-layered
  // publish exactly — same epoch, nothing pending, same answers.
  auto reopened = Dess3System::Open(dir_, {}, FastSystemOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->PublishedEpoch(), epoch);
  EXPECT_EQ((*reopened)->PendingRecords(), 0u);
  EXPECT_TRUE((*reopened)->IsCommitted());
  auto snapshot = (*reopened)->CurrentSnapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ((*snapshot)->NumDeltaRecords(), all_.NumShapes() - kBase);

  size_t i = 0;
  const int delta_id = static_cast<int>(all_.NumShapes()) - 1;
  for (FeatureKind kind : AllFeatureKinds()) {
    ExpectSameResponses(
        before[i++],
        (*reopened)->QueryByShapeId(0, QueryRequest::TopK(kind, 8)),
        "reopen topk base");
    ExpectSameResponses(
        before[i++],
        (*reopened)->QueryByShapeId(delta_id, QueryRequest::TopK(kind, 8)),
        "reopen topk delta");
  }
  ExpectSameResponses(before[i++],
                      (*reopened)->QueryByShapeId(
                          0, QueryRequest::MultiStep(
                                 MultiStepPlan::Standard(8, 4))),
                      "reopen multistep");
}

TEST_F(DurableHomeTest, UncommittedIngestsReplayAsPending) {
  uint64_t epoch = 0;
  {
    auto system = Dess3System::Open(dir_, {}, FastSystemOptions());
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    for (size_t i = 0; i < kBase; ++i) {
      ASSERT_TRUE((*system)->Ingest(RecordAt(i), {}).ok());
    }
    auto full = (*system)->Commit();
    ASSERT_TRUE(full.ok());
    epoch = full->epoch;
    // Two ingests after the commit: durable in the WAL, never published.
    ASSERT_TRUE((*system)->Ingest(RecordAt(kBase), {}).ok());
    ASSERT_TRUE((*system)->Ingest(RecordAt(kBase + 1), {}).ok());
  }

  auto reopened = Dess3System::Open(dir_, {}, FastSystemOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // The published state is the last durable commit; the tail records are
  // back as pending ingests, ready for the next Commit().
  EXPECT_EQ((*reopened)->PublishedEpoch(), epoch);
  EXPECT_EQ((*reopened)->PendingRecords(), 2u);
  EXPECT_FALSE((*reopened)->IsCommitted());
  EXPECT_EQ((*reopened)->db().NumShapes(), kBase + 2);
  auto next = (*reopened)->Commit(CommitOptions{.mode = CommitMode::kDelta});
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->delta_records, 2u);
  EXPECT_EQ((*reopened)->PendingRecords(), 0u);
}

TEST_F(DurableHomeTest, FoldAfterReopenKeepsTheCheckpointCalibration) {
  // A frozen-calibration checkpoint (16 records, spaces calibrated over
  // the first 12) is reopened; a delta commit is folded past it and a
  // later delta commit is recovered. Recovery rebuilds the folded base,
  // and must do so under the checkpoint's calibration, not one taken over
  // the checkpoint's 16 records.
  SystemOptions options = FastSystemOptions();
  options.compaction_min_delta_records = 1;
  options.compaction_delta_ratio = 0.0;
  {
    auto system = Dess3System::Open(dir_, {}, options);
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    IngestRange(system->get(), 0, 12);
    ASSERT_TRUE((*system)->Commit().ok());
    IngestRange(system->get(), 12, 16);
    ASSERT_TRUE((*system)->Commit(CommitOptions{.recalibrate = false}).ok());
  }
  std::vector<Result<QueryResponse>> before;
  uint64_t epoch = 0;
  {
    auto system = Dess3System::Open(dir_, {}, options);
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    IngestRange(system->get(), 16, 20);
    ASSERT_TRUE(
        (*system)->Commit(CommitOptions{.mode = CommitMode::kDelta}).ok());
    ASSERT_NE(WaitForFold(**system), nullptr);
    IngestRange(system->get(), 20, 24);
    auto delta = (*system)->Commit(CommitOptions{.mode = CommitMode::kDelta});
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    epoch = delta->epoch;
    for (FeatureKind kind : AllFeatureKinds()) {
      before.push_back(
          (*system)->QueryByShapeId(0, QueryRequest::TopK(kind, 8)));
    }
  }

  auto reopened = Dess3System::Open(dir_, {}, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->PublishedEpoch(), epoch);
  EXPECT_EQ((*reopened)->PendingRecords(), 0u);
  size_t i = 0;
  for (FeatureKind kind : AllFeatureKinds()) {
    ExpectSameResponses(
        before[i++],
        (*reopened)->QueryByShapeId(0, QueryRequest::TopK(kind, 8)),
        "recovered topk " + std::string(FeatureKindName(kind)));
  }
}

TEST_F(DurableHomeTest, MarkersWrittenBesideAFoldRecoverBitIdentically) {
  // A fold writes no marker. Delta commits that land during its build
  // write markers naming the old base, those after its publish name the
  // folded one; recovery rebuilds either split to the same answers.
  for (const bool commit_after_fold : {false, true}) {
    SCOPED_TRACE(commit_after_fold ? "last marker after the fold"
                                   : "last marker during the fold");
    fs::remove_all(dir_);
    auto latch = std::make_shared<BuildLatch>();
    SystemOptions options = LatchedOptions(latch);
    options.compaction_min_delta_records = 4;
    options.compaction_delta_ratio = 0.0;
    const size_t committed = kBase + (commit_after_fold ? 8 : 7);
    std::vector<Result<QueryResponse>> before;
    uint64_t epoch = 0;
    {
      auto system = Dess3System::Open(dir_, {}, options);
      ASSERT_TRUE(system.ok()) << system.status().ToString();
      IngestRange(system->get(), 0, kBase);
      ASSERT_TRUE((*system)->Commit().ok());
      const uint64_t compactions = Counter("system.compactions");
      latch->Arm();
      IngestRange(system->get(), kBase, kBase + 6);
      ASSERT_TRUE(
          (*system)->Commit(CommitOptions{.mode = CommitMode::kDelta}).ok());
      ASSERT_TRUE(latch->WaitBlocked()) << "no fold started building";
      for (size_t end = kBase + 7; end <= committed; ++end) {
        IngestRange(system->get(), end - 1, end);
        auto delta =
            (*system)->Commit(CommitOptions{.mode = CommitMode::kDelta});
        ASSERT_TRUE(delta.ok()) << delta.status().ToString();
        epoch = delta->epoch;
        if (end == kBase + 7) {
          latch->Release();
          ASSERT_TRUE(WaitForCounter("system.compactions", compactions + 1));
        }
      }
      for (FeatureKind kind : AllFeatureKinds()) {
        for (const int id : {0, static_cast<int>(committed) - 1}) {
          before.push_back(
              (*system)->QueryByShapeId(id, QueryRequest::TopK(kind, 8)));
        }
      }
    }

    auto reopened = Dess3System::Open(dir_, {}, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->PublishedEpoch(), epoch);
    EXPECT_EQ((*reopened)->PendingRecords(), 0u);
    size_t i = 0;
    for (FeatureKind kind : AllFeatureKinds()) {
      for (const int id : {0, static_cast<int>(committed) - 1}) {
        ExpectSameResponses(
            before[i++],
            (*reopened)->QueryByShapeId(id, QueryRequest::TopK(kind, 8)),
            "recovered topk " + std::string(FeatureKindName(kind)));
      }
    }
  }
}

TEST_F(DurableHomeTest, FreshHomeStartsEmpty) {
  auto system = Dess3System::Open(dir_, {}, FastSystemOptions());
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  EXPECT_EQ((*system)->db().NumShapes(), 0u);
  EXPECT_EQ((*system)->PublishedEpoch(), 0u);
  EXPECT_EQ((*system)->PendingRecords(), 0u);
  // The WAL exists (header only) once the home is opened.
  EXPECT_TRUE(fs::exists(fs::path(dir_) / "wal.log"));
}

}  // namespace
}  // namespace dess
