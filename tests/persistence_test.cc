// Round-trip tests of the snapshot persistence layer: a committed system
// is saved as a versioned directory and reopened cold, and the reopened
// system must answer every query mode bit-identically at the saved epoch.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>

#include "src/common/metrics.h"
#include "src/core/persistence.h"
#include "src/core/system.h"
#include "src/index/index_backend.h"
#include "tests/test_util.h"

namespace dess {
namespace {

namespace fs = std::filesystem;

uint64_t GlobalCounter(const std::string& name) {
  for (const auto& counter : MetricsRegistry::Global()->Snapshot().counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dess_persist_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    ShapeDatabase db = testing_util::BuildSyntheticFeatureDb(4, 4, 3);
    for (const ShapeRecord& rec : db.records()) {
      ASSERT_TRUE(system_.Ingest(rec, {}).ok());
    }
    auto receipt = system_.Commit();
    ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
    epoch_ = receipt->epoch;
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string SnapDir(const std::string& name) const {
    return (dir_ / name).string();
  }

  static void ExpectSameAnswers(const QueryResponse& a,
                                const QueryResponse& b) {
    ASSERT_EQ(a.results.size(), b.results.size());
    for (size_t i = 0; i < a.results.size(); ++i) {
      EXPECT_TRUE(a.results[i] == b.results[i])
          << "result " << i << ": (" << a.results[i].id << ", "
          << a.results[i].distance << ") vs (" << b.results[i].id << ", "
          << b.results[i].distance << ")";
    }
    // A reopened engine serves through the backends that served before the
    // save, so it does the same index work, not just the same ranking.
    EXPECT_EQ(a.stats.nodes_visited, b.stats.nodes_visited);
    EXPECT_EQ(a.stats.leaves_scanned, b.stats.leaves_scanned);
    EXPECT_EQ(a.stats.points_compared, b.stats.points_compared);
    EXPECT_EQ(a.stats.kernel_batches, b.stats.kernel_batches);
  }

  fs::path dir_;
  Dess3System system_;
  uint64_t epoch_ = 0;
};

TEST_F(PersistenceTest, CommitReturnsTheEpochItPublished) {
  EXPECT_EQ(epoch_, 1u);
  EXPECT_EQ(system_.PublishedEpoch(), epoch_);
  ShapeRecord extra;
  extra.name = "late";
  for (FeatureKind kind : AllFeatureKinds()) {
    FeatureVector& fv = extra.signature.Mutable(kind);
    fv.kind = kind;
    fv.values.assign(FeatureDim(kind), 0.25);
  }
  ASSERT_TRUE(system_.Ingest(extra, {}).ok());
  auto next = system_.Commit();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->epoch, epoch_ + 1);
  EXPECT_EQ(system_.PublishedEpoch(), epoch_ + 1);
}

TEST_F(PersistenceTest, SaveBeforeCommitIsFailedPrecondition) {
  Dess3System fresh;
  EXPECT_EQ(fresh.SaveSnapshot(SnapDir("none")).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PersistenceTest, ReopenedSystemAnswersTopKBitIdentically) {
  // The fixture's system serves every space by R-tree; a second one is
  // configured to serve every space by linear scan, and its reopened copy
  // must scan too.
  SystemOptions scan_options;
  scan_options.search.index_backend = kLinearScanBackendId;
  Dess3System scanning(scan_options);
  for (const ShapeRecord& rec : system_.db().records()) {
    ASSERT_TRUE(scanning.Ingest(rec, {}).ok());
  }
  ASSERT_TRUE(scanning.Commit().ok());

  struct Input {
    Dess3System* system;
    SystemOptions options;
    std::string dir;
  };
  for (const Input& input :
       {Input{&system_, {}, "snap"}, Input{&scanning, scan_options, "scan"}}) {
    ASSERT_TRUE(input.system->SaveSnapshot(SnapDir(input.dir)).ok());
    auto reopened =
        Dess3System::OpenFromSnapshot(SnapDir(input.dir), {}, input.options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->PublishedEpoch(), epoch_);
    EXPECT_EQ((*reopened)->db().NumShapes(), system_.db().NumShapes());
    for (FeatureKind kind : AllFeatureKinds()) {
      for (int query_id : {0, 5, 11}) {
        const QueryRequest request = QueryRequest::TopK(kind, 6);
        auto original = input.system->QueryByShapeId(query_id, request);
        const uint64_t scans = GlobalCounter("index.linear_scan.queries");
        auto restored = (*reopened)->QueryByShapeId(query_id, request);
        ASSERT_TRUE(original.ok() && restored.ok())
            << input.dir << " " << FeatureKindName(kind) << " id "
            << query_id;
        EXPECT_EQ(restored->epoch, epoch_);
        ExpectSameAnswers(*original, *restored);
        if (input.system == &scanning) {
          EXPECT_GT(GlobalCounter("index.linear_scan.queries"), scans)
              << FeatureKindName(kind) << " id " << query_id;
        }
      }
    }
  }
}

TEST_F(PersistenceTest, ThresholdAndMultiStepSurviveTheRoundTrip) {
  ASSERT_TRUE(system_.SaveSnapshot(SnapDir("snap")).ok());
  auto reopened = Dess3System::OpenFromSnapshot(SnapDir("snap"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const QueryRequest threshold =
      QueryRequest::Threshold(FeatureKind::kGeometricParams, 0.6);
  const QueryRequest multistep =
      QueryRequest::MultiStep(MultiStepPlan::Standard(10, 5));
  for (const QueryRequest& request : {threshold, multistep}) {
    for (int query_id : {1, 8}) {
      auto original = system_.QueryByShapeId(query_id, request);
      auto restored = (*reopened)->QueryByShapeId(query_id, request);
      ASSERT_TRUE(original.ok() && restored.ok());
      ExpectSameAnswers(*original, *restored);
    }
  }
}

TEST_F(PersistenceTest, ExternalSignatureQueriesMatchAfterReopen) {
  ASSERT_TRUE(system_.SaveSnapshot(SnapDir("snap")).ok());
  auto reopened = Dess3System::OpenFromSnapshot(SnapDir("snap"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // A signature the database has never seen: the snapshot's similarity
  // spaces, not the records, decide its distances.
  auto probe = system_.db().Get(3);
  ASSERT_TRUE(probe.ok());
  ShapeSignature signature = (*probe)->signature;
  signature.Mutable(FeatureKind::kSpectral).values[0] += 0.125;
  const QueryRequest request =
      QueryRequest::TopK(FeatureKind::kSpectral, 4);
  auto original = system_.QueryBySignature(signature, request);
  auto restored = (*reopened)->QueryBySignature(signature, request);
  ASSERT_TRUE(original.ok() && restored.ok());
  ExpectSameAnswers(*original, *restored);
}

TEST_F(PersistenceTest, HierarchiesSurviveTheRoundTrip) {
  ASSERT_TRUE(system_.SaveSnapshot(SnapDir("snap")).ok());
  auto reopened = Dess3System::OpenFromSnapshot(SnapDir("snap"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (FeatureKind kind : AllFeatureKinds()) {
    auto original = system_.Hierarchy(kind);
    auto restored = (*reopened)->Hierarchy(kind);
    ASSERT_TRUE(original.ok() && restored.ok());
    EXPECT_EQ((*original)->SubtreeSize(), (*restored)->SubtreeSize());
    EXPECT_EQ((*original)->Depth(), (*restored)->Depth());
    EXPECT_EQ((*original)->members, (*restored)->members);
    EXPECT_EQ((*original)->centroid, (*restored)->centroid);
  }
}

TEST_F(PersistenceTest, IngestAndCommitContinueFromTheSavedEpoch) {
  ASSERT_TRUE(system_.SaveSnapshot(SnapDir("snap")).ok());
  auto reopened = Dess3System::OpenFromSnapshot(SnapDir("snap"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->IsCommitted());
  ShapeRecord extra;
  extra.name = "post-reopen";
  for (FeatureKind kind : AllFeatureKinds()) {
    FeatureVector& fv = extra.signature.Mutable(kind);
    fv.kind = kind;
    fv.values.assign(FeatureDim(kind), -0.5);
  }
  auto id = (*reopened)->Ingest(extra, {});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, static_cast<int>(system_.db().NumShapes()));
  auto next = (*reopened)->Commit();
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->epoch, epoch_ + 1);
}

TEST_F(PersistenceTest, ReopenRestoresNamesGroupsMeshesAndTheNextId) {
  // The record store comes back whole: names, groups (ungrouped noise
  // included), geometry, and the id the next ingest is assigned.
  ShapeRecord meshed;
  meshed.name = "tetrahedron";
  meshed.group = kUngrouped;
  meshed.mesh.AddVertex({0, 0, 0});
  meshed.mesh.AddVertex({1.5, 0, 0});
  meshed.mesh.AddVertex({0, 2.5, 0});
  meshed.mesh.AddVertex({0, 0, -3.5});
  meshed.mesh.AddTriangle(0, 2, 1);
  meshed.mesh.AddTriangle(0, 1, 3);
  meshed.mesh.AddTriangle(0, 3, 2);
  meshed.mesh.AddTriangle(1, 2, 3);
  meshed.signature = (*system_.db().Get(0))->signature;
  ASSERT_TRUE(system_.Ingest(meshed, {}).ok());
  ASSERT_TRUE(system_.Commit().ok());
  ASSERT_TRUE(system_.SaveSnapshot(SnapDir("catalog")).ok());

  auto reopened = Dess3System::OpenFromSnapshot(SnapDir("catalog"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const ShapeDatabase& db = (*reopened)->db();
  ASSERT_EQ(db.NumShapes(), system_.db().NumShapes());
  for (const ShapeRecord& rec : system_.db().records()) {
    auto restored = db.Get(rec.id);
    ASSERT_TRUE(restored.ok()) << "id " << rec.id;
    EXPECT_EQ((*restored)->name, rec.name);
    EXPECT_EQ((*restored)->group, rec.group);
    const TriMesh& mesh = (*restored)->mesh;
    ASSERT_EQ(mesh.NumVertices(), rec.mesh.NumVertices()) << "id " << rec.id;
    for (size_t v = 0; v < mesh.NumVertices(); ++v) {
      EXPECT_EQ(mesh.vertices()[v].x, rec.mesh.vertices()[v].x);
      EXPECT_EQ(mesh.vertices()[v].y, rec.mesh.vertices()[v].y);
      EXPECT_EQ(mesh.vertices()[v].z, rec.mesh.vertices()[v].z);
    }
    EXPECT_EQ(mesh.triangles(), rec.mesh.triangles()) << "id " << rec.id;
  }
  const int last = static_cast<int>(db.NumShapes()) - 1;
  EXPECT_EQ((*db.Get(last))->mesh.NumTriangles(), 4u);
  auto next = (*reopened)->Ingest(meshed, {});
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(*next, last + 1);
}

TEST_F(PersistenceTest, MeshlessSnapshotStillServesEveryQueryPath) {
  SaveOptions save;
  save.include_meshes = false;
  ASSERT_TRUE(system_.SaveSnapshot(SnapDir("lean"), save).ok());
  auto reopened = Dess3System::OpenFromSnapshot(SnapDir("lean"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto rec = (*reopened)->db().Get(0);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ((*rec)->name, "g0_m0");
  EXPECT_EQ((*rec)->mesh.NumVertices(), 0u);
  auto response = (*reopened)->QueryByShapeId(
      0, QueryRequest::TopK(FeatureKind::kMomentInvariants, 5));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->results.size(), 5u);
}

TEST_F(PersistenceTest, SavingOverAnExistingSnapshotNeedsOverwrite) {
  ASSERT_TRUE(system_.SaveSnapshot(SnapDir("snap")).ok());
  EXPECT_EQ(system_.SaveSnapshot(SnapDir("snap")).code(),
            StatusCode::kAlreadyExists);
  SaveOptions replace;
  replace.overwrite = true;
  EXPECT_TRUE(system_.SaveSnapshot(SnapDir("snap"), replace).ok());
  auto reopened = Dess3System::OpenFromSnapshot(SnapDir("snap"));
  EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
}

TEST_F(PersistenceTest, OpeningANonSnapshotIsNotFound) {
  EXPECT_EQ(Dess3System::OpenFromSnapshot(SnapDir("missing")).status().code(),
            StatusCode::kNotFound);
  fs::create_directories(dir_ / "empty");
  EXPECT_EQ(Dess3System::OpenFromSnapshot(SnapDir("empty")).status().code(),
            StatusCode::kNotFound);
}

// --- Registry-aware persistence -------------------------------------------
//
// The manifest's space table makes a snapshot self-describing:
// a snapshot round-trips through any registry that serves the same spaces,
// and registry/snapshot disagreement is a deployment-configuration error —
// FailedPrecondition — never DataLoss (the bytes are fine).

namespace {

constexpr char kSynthId[] = "synth";
constexpr int kSynthDim = 6;

std::unique_ptr<Dess3System> MakeExtendedSystem() {
  SystemOptions options;
  options.hierarchy.max_leaf_size = 4;
  options.feature_spaces =
      testing_util::MakeSyntheticRegistry({{kSynthId, kSynthDim}});
  auto system = std::make_unique<Dess3System>(options);
  ShapeDatabase db = testing_util::BuildSyntheticFeatureDb(
      4, 4, 3, /*seed=*/123, 0.05, 1.0, {{kSynthId, kSynthDim}});
  for (const ShapeRecord& rec : db.records()) {
    EXPECT_TRUE(system->Ingest(rec, {}).ok());
  }
  return system;
}

}  // namespace

TEST_F(PersistenceTest, ExtendedRegistryRoundTripsThroughSnapshot) {
  auto extended = MakeExtendedSystem();
  ASSERT_TRUE(extended->Commit().ok());
  ASSERT_TRUE(extended->SaveSnapshot(SnapDir("ext")).ok());

  SystemOptions reopen_options;
  reopen_options.feature_spaces =
      testing_util::MakeSyntheticRegistry({{kSynthId, kSynthDim}});
  auto reopened =
      Dess3System::OpenFromSnapshot(SnapDir("ext"), {}, reopen_options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

  // The registered fifth space answers identically after the round trip,
  // in both one-shot modes, alongside a canonical space.
  const QueryRequest by_id = QueryRequest::TopK(std::string(kSynthId), 6);
  const QueryRequest floor =
      QueryRequest::Threshold(std::string(kSynthId), 0.5);
  const QueryRequest canonical =
      QueryRequest::TopK(FeatureKind::kSpectral, 6);
  for (const QueryRequest& request : {by_id, floor, canonical}) {
    for (int query_id : {0, 5, 11}) {
      auto original = extended->QueryByShapeId(query_id, request);
      auto restored = (*reopened)->QueryByShapeId(query_id, request);
      ASSERT_TRUE(original.ok()) << original.status().ToString();
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      ExpectSameAnswers(*original, *restored);
    }
  }

  // The extra space's browsing hierarchy was persisted and reopened too.
  auto original_h = extended->Hierarchy(std::string(kSynthId));
  auto restored_h = (*reopened)->Hierarchy(std::string(kSynthId));
  ASSERT_TRUE(original_h.ok() && restored_h.ok());
  EXPECT_EQ((*original_h)->SubtreeSize(), (*restored_h)->SubtreeSize());
  EXPECT_EQ((*original_h)->members, (*restored_h)->members);
}

TEST_F(PersistenceTest, RegistryMismatchIsFailedPreconditionNotDataLoss) {
  // Extended snapshot opened by a canonical process: the canonical process
  // cannot serve the fifth space, so the open is refused up front.
  auto extended = MakeExtendedSystem();
  ASSERT_TRUE(extended->Commit().ok());
  ASSERT_TRUE(extended->SaveSnapshot(SnapDir("ext")).ok());
  auto canonical_open = Dess3System::OpenFromSnapshot(SnapDir("ext"));
  ASSERT_FALSE(canonical_open.ok());
  EXPECT_EQ(canonical_open.status().code(), StatusCode::kFailedPrecondition);

  // Canonical snapshot opened by an extended process: same refusal, the
  // snapshot has no data for the fifth space.
  ASSERT_TRUE(system_.SaveSnapshot(SnapDir("canon")).ok());
  SystemOptions extended_options;
  extended_options.feature_spaces =
      testing_util::MakeSyntheticRegistry({{kSynthId, kSynthDim}});
  auto extended_open =
      Dess3System::OpenFromSnapshot(SnapDir("canon"), {}, extended_options);
  ASSERT_FALSE(extended_open.ok());
  EXPECT_EQ(extended_open.status().code(), StatusCode::kFailedPrecondition);

  // A registry with the right count but a different id is also refused.
  SystemOptions renamed_options;
  renamed_options.feature_spaces =
      testing_util::MakeSyntheticRegistry({{"other_space", kSynthDim}});
  auto renamed_open =
      Dess3System::OpenFromSnapshot(SnapDir("ext"), {}, renamed_options);
  ASSERT_FALSE(renamed_open.ok());
  EXPECT_EQ(renamed_open.status().code(), StatusCode::kFailedPrecondition);
}

// --- Graph sections --------------------------------------------------------
//
// A space served by an approximate backend persists its graph topology as
// an optional manifest section. Graph sections are pure accelerators: a
// reopened system answers bit-identically whether the graph was restored
// from its section or rebuilt from the packed rows (the build is
// deterministic), so stripped sections stay readable.

namespace {

std::unique_ptr<Dess3System> MakeHnswSystem() {
  SystemOptions options;
  options.hierarchy.max_leaf_size = 4;
  options.feature_spaces = testing_util::MakeSyntheticRegistry(
      {{kSynthId, kSynthDim, kHnswBackendId}});
  auto system = std::make_unique<Dess3System>(options);
  ShapeDatabase db = testing_util::BuildSyntheticFeatureDb(
      4, 4, 3, /*seed=*/123, 0.05, 1.0, {{kSynthId, kSynthDim}});
  for (const ShapeRecord& rec : db.records()) {
    EXPECT_TRUE(system->Ingest(rec, {}).ok());
  }
  return system;
}

Result<std::unique_ptr<Dess3System>> OpenHnswSnapshot(
    const std::string& dir) {
  SystemOptions options;
  options.feature_spaces = testing_util::MakeSyntheticRegistry(
      {{kSynthId, kSynthDim, kHnswBackendId}});
  return Dess3System::OpenFromSnapshot(dir, {}, options);
}

}  // namespace

TEST_F(PersistenceTest, HnswGraphSectionRoundTripsBitIdentically) {
  auto hnsw = MakeHnswSystem();
  ASSERT_TRUE(hnsw->Commit().ok());
  ASSERT_TRUE(hnsw->SaveSnapshot(SnapDir("v3")).ok());

  // The snapshot carries the graph topology of the hnsw-pinned space (and
  // only that space — a reopen builds exact indexes from the records).
  EXPECT_TRUE(fs::exists(fs::path(SnapDir("v3")) /
                         SnapshotGraphFile(kSynthId)));
  EXPECT_FALSE(fs::exists(fs::path(SnapDir("v3")) /
                          SnapshotGraphFile("moment_invariants")));

  MetricsRegistry::Global()->Reset();
  auto reopened = OpenHnswSnapshot(SnapDir("v3"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GE(GlobalCounter("persist.graphs_restored"), 1u);
  EXPECT_EQ(GlobalCounter("persist.graphs_rebuilt"), 0u);

  const QueryRequest topk = QueryRequest::TopK(std::string(kSynthId), 8);
  const QueryRequest floor =
      QueryRequest::Threshold(std::string(kSynthId), 0.5);
  for (const QueryRequest& request : {topk, floor}) {
    for (int query_id : {0, 5, 11}) {
      auto original = hnsw->QueryByShapeId(query_id, request);
      auto restored = (*reopened)->QueryByShapeId(query_id, request);
      ASSERT_TRUE(original.ok()) << original.status().ToString();
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      ExpectSameAnswers(*original, *restored);
    }
  }
}

TEST_F(PersistenceTest, StrippedGraphSectionFallsBackToRebuild) {
  // Deleting the graph section from a snapshot must not brick it: the
  // manifest entry is optional, so the opener rebuilds (counted as a
  // rebuild, never a restore) and answers identically. (Checksum
  // verification is skipped because the deliberate strip would otherwise
  // read as corruption.)
  auto hnsw = MakeHnswSystem();
  ASSERT_TRUE(hnsw->Commit().ok());
  ASSERT_TRUE(hnsw->SaveSnapshot(SnapDir("strip")).ok());
  fs::remove(fs::path(SnapDir("strip")) / SnapshotGraphFile(kSynthId));

  SystemOptions options;
  options.feature_spaces = testing_util::MakeSyntheticRegistry(
      {{kSynthId, kSynthDim, kHnswBackendId}});
  OpenOptions trusting;
  trusting.verify_checksums = false;
  MetricsRegistry::Global()->Reset();
  auto reopened =
      Dess3System::OpenFromSnapshot(SnapDir("strip"), trusting, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GE(GlobalCounter("persist.graphs_rebuilt"), 1u);
  EXPECT_EQ(GlobalCounter("persist.graphs_restored"), 0u);

  const QueryRequest topk = QueryRequest::TopK(std::string(kSynthId), 8);
  auto original = hnsw->QueryByShapeId(3, topk);
  auto restored = (*reopened)->QueryByShapeId(3, topk);
  ASSERT_TRUE(original.ok() && restored.ok());
  ExpectSameAnswers(*original, *restored);
}

TEST_F(PersistenceTest, SkippingChecksumVerificationStillRoundTrips) {
  ASSERT_TRUE(system_.SaveSnapshot(SnapDir("snap")).ok());
  OpenOptions trusting;
  trusting.verify_checksums = false;
  auto reopened = Dess3System::OpenFromSnapshot(SnapDir("snap"), trusting);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto original = system_.QueryByShapeId(
      7, QueryRequest::TopK(FeatureKind::kPrincipalMoments, 5));
  auto restored = (*reopened)->QueryByShapeId(
      7, QueryRequest::TopK(FeatureKind::kPrincipalMoments, 5));
  ASSERT_TRUE(original.ok() && restored.ok());
  ExpectSameAnswers(*original, *restored);
}

}  // namespace
}  // namespace dess
