// SystemSnapshot lifecycle: build → publish → (concurrent ingest) → drain
// → reclaim. A snapshot is an immutable view, so a caller holding one must
// see the exact committed state no matter what the owning system does
// afterwards.

#include <gtest/gtest.h>

#include "src/core/snapshot.h"
#include "src/core/system.h"
#include "tests/test_util.h"

namespace dess {
namespace {

SystemOptions FastSystemOptions() {
  SystemOptions opt;
  opt.hierarchy.max_leaf_size = 4;
  return opt;
}

ShapeRecord SyntheticRecord(uint64_t seed) {
  ShapeDatabase db = testing_util::BuildSyntheticFeatureDb(1, 1, 0, seed);
  return **db.Get(0);
}

TEST(SnapshotTest, BuildRejectsEmptyDatabase) {
  auto db = std::make_shared<const ShapeDatabase>();
  auto snapshot = SystemSnapshot::Build(db, 1, {}, {});
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, BuildStampsEpochAndServesQueries) {
  ShapeDatabase db = testing_util::BuildSyntheticFeatureDb(2, 3, 0);
  auto snapshot = SystemSnapshot::Build(db.SnapshotView(), 7, {}, {});
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ((*snapshot)->epoch(), 7u);
  EXPECT_EQ((*snapshot)->db().NumShapes(), db.NumShapes());
  auto response = (*snapshot)->QueryById(
      0, QueryRequest::TopK(FeatureKind::kPrincipalMoments, 2));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->epoch, 7u);
  EXPECT_EQ(response->results.size(), 2u);
  for (FeatureKind kind : AllFeatureKinds()) {
    EXPECT_EQ((*snapshot)->Hierarchy(kind).members.size(), db.NumShapes());
  }
}

TEST(SnapshotTest, HeldSnapshotSurvivesLaterIngestAndCommit) {
  Dess3System system(FastSystemOptions());
  for (uint64_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(system.Ingest(SyntheticRecord(s), {}).ok());
  }
  ASSERT_TRUE(system.Commit().ok());

  auto old_snapshot = system.CurrentSnapshot();
  ASSERT_TRUE(old_snapshot.ok());
  const size_t old_size = (*old_snapshot)->db().NumShapes();

  // Mutate and republish: the held snapshot must not move.
  ASSERT_TRUE(system.Ingest(SyntheticRecord(99), {}).ok());
  ASSERT_TRUE(system.Commit().ok());
  EXPECT_EQ(system.PublishedEpoch(), 2u);
  EXPECT_EQ((*old_snapshot)->epoch(), 1u);
  EXPECT_EQ((*old_snapshot)->db().NumShapes(), old_size);
  auto stale = (*old_snapshot)->QueryById(
      0, QueryRequest::TopK(FeatureKind::kPrincipalMoments, 2));
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->epoch, 1u);
  for (const SearchResult& r : stale->results) {
    EXPECT_LT(r.id, static_cast<int>(old_size));
  }

  auto fresh = system.CurrentSnapshot();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)->epoch(), 2u);
  EXPECT_EQ((*fresh)->db().NumShapes(), old_size + 1);
}

TEST(SnapshotTest, SnapshotOutlivesOwningSystem) {
  std::shared_ptr<const SystemSnapshot> snapshot;
  {
    Dess3System system(FastSystemOptions());
    for (uint64_t s = 0; s < 3; ++s) {
      ASSERT_TRUE(system.Ingest(SyntheticRecord(s), {}).ok());
    }
    ASSERT_TRUE(system.Commit().ok());
    auto acquired = system.CurrentSnapshot();
    ASSERT_TRUE(acquired.ok());
    snapshot = *acquired;
  }  // system destroyed; the snapshot's shared ownership keeps it alive
  auto response = snapshot->QueryById(
      0, QueryRequest::TopK(FeatureKind::kPrincipalMoments, 2));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->results.size(), 2u);
}

TEST(SnapshotTest, RepublishReclaimsSupersededSnapshot) {
  Dess3System system(FastSystemOptions());
  for (uint64_t s = 0; s < 3; ++s) {
    ASSERT_TRUE(system.Ingest(SyntheticRecord(s), {}).ok());
  }
  ASSERT_TRUE(system.Commit().ok());
  std::weak_ptr<const SystemSnapshot> superseded;
  {
    auto held = system.CurrentSnapshot();
    ASSERT_TRUE(held.ok());
    superseded = *held;
    ASSERT_TRUE(system.Ingest(SyntheticRecord(50), {}).ok());
    ASSERT_TRUE(system.Commit().ok());
    EXPECT_FALSE(superseded.expired());  // still held by `held`
  }
  // Last reference dropped: the shared_ptr count reclaims the old epoch.
  EXPECT_TRUE(superseded.expired());
}

TEST(SnapshotTest, RepeatedQueriesOnOneSnapshotAreBitIdentical) {
  Dess3System system(FastSystemOptions());
  for (uint64_t s = 0; s < 5; ++s) {
    ASSERT_TRUE(system.Ingest(SyntheticRecord(s), {}).ok());
  }
  ASSERT_TRUE(system.Commit().ok());
  auto snapshot = system.CurrentSnapshot();
  ASSERT_TRUE(snapshot.ok());
  const QueryRequest request =
      QueryRequest::TopK(FeatureKind::kSpectral, 3);
  auto first = (*snapshot)->QueryById(1, request);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 3; ++i) {
    auto again = (*snapshot)->QueryById(1, request);
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again->results.size(), first->results.size());
    for (size_t r = 0; r < first->results.size(); ++r) {
      EXPECT_TRUE(again->results[r] == first->results[r]);
    }
  }
}

}  // namespace
}  // namespace dess
