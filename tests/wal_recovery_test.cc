// Kill-point and damage fuzzing of WAL recovery, in the
// serialization_fuzz_test idiom (label persist, run under the asan
// preset): a durable home is built with a checkpoint, a delta commit in
// the log, and pending tail records; then the log is truncated at every
// byte offset, bit-flipped at random positions, and re-sealed with skewed
// version/type fields. Every open must either recover bit-identically to
// the state the surviving commit marker describes or fail with the pinned
// taxonomy (DataLoss for real damage, FailedPrecondition for version
// skew) — never crash, hang, or silently serve lost data.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/crc32c.h"
#include "src/common/rng.h"
#include "src/core/system.h"
#include "src/core/wal.h"
#include "tests/test_util.h"

namespace dess {
namespace {

namespace fs = std::filesystem;

// On-disk WAL layout constants, mirrored from wal.cc (the test pins the
// format: if these drift, recovery of existing logs breaks).
constexpr size_t kWalHeaderSize = 20;       // magic, version, base_seq, crc
constexpr size_t kWalEntryHeaderSize = 21;  // magic, type, seq, len, crc
constexpr size_t kEntryTypeOffset = 4;      // within an entry
constexpr size_t kEntryLenOffset = 13;
constexpr size_t kEntryCrcOffset = 17;

SystemOptions FastSystemOptions() {
  SystemOptions opt;
  opt.hierarchy.max_leaf_size = 4;
  return opt;
}

std::vector<uint8_t> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  return bytes;
}

void WriteFile(const fs::path& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// Offsets (from the start of the file) at which WAL entries begin, walked
/// with the same arithmetic as the recovery scan.
std::vector<size_t> EntryOffsets(const std::vector<uint8_t>& wal) {
  std::vector<size_t> offsets;
  size_t offset = kWalHeaderSize;
  while (offset + kWalEntryHeaderSize <= wal.size()) {
    offsets.push_back(offset);
    uint32_t len;
    std::memcpy(&len, &wal[offset + kEntryLenOffset], 4);
    offset += kWalEntryHeaderSize + len;
  }
  return offsets;
}

/// Recomputes and stores an entry's CRC after its fields were edited —
/// forging "written by different code", not damage.
void ResealEntry(std::vector<uint8_t>* wal, size_t offset) {
  uint32_t len;
  std::memcpy(&len, &(*wal)[offset + kEntryLenOffset], 4);
  uint32_t crc = Crc32c(&(*wal)[offset + kEntryTypeOffset], 13);
  crc = Crc32cExtend(crc, &(*wal)[offset + kWalEntryHeaderSize], len);
  std::memcpy(&(*wal)[offset + kEntryCrcOffset], &crc, 4);
}

class WalRecoveryTest : public ::testing::Test {
 protected:
  static constexpr size_t kCheckpointed = 6, kDelta = 3, kPending = 2;
  static constexpr uint64_t kCommittedEpoch = 2;

  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("dess_wal_fuzz_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
    home_ = root_ / "home";

    // A home whose WAL carries all three entry classes: records layered by
    // the delta commit, the commit marker, and pending tail records.
    db_ = testing_util::BuildSyntheticFeatureDb(3, 3, 2, /*seed=*/99);
    ASSERT_EQ(db_.NumShapes(), kCheckpointed + kDelta + kPending);
    auto system = Dess3System::Open(home_.string(), {}, FastSystemOptions());
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    size_t next = 0;
    for (; next < kCheckpointed; ++next) Ingest(system->get(), next);
    ASSERT_TRUE((*system)->Commit().ok());  // checkpoint, WAL reset
    for (; next < kCheckpointed + kDelta; ++next) Ingest(system->get(), next);
    ASSERT_TRUE(
        (*system)->Commit(CommitOptions{.mode = CommitMode::kDelta}).ok());
    for (; next < db_.NumShapes(); ++next) Ingest(system->get(), next);

    // Reference answers of the committed state, captured before teardown.
    for (FeatureKind kind : AllFeatureKinds()) {
      auto response =
          (*system)->QueryByShapeId(0, QueryRequest::TopK(kind, 6));
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      reference_.push_back(response->results);
    }
    system->reset();  // close the WAL fd

    wal_ = ReadFile(home_ / "wal.log");
    ASSERT_GT(wal_.size(), kWalHeaderSize);
    entry_offsets_ = EntryOffsets(wal_);
    // header + kDelta records + marker + kPending records
    ASSERT_EQ(entry_offsets_.size(), kDelta + 1 + kPending);
  }

  void TearDown() override { fs::remove_all(root_); }

  void Ingest(Dess3System* system, size_t i) {
    auto rec = db_.Get(static_cast<int>(i));
    ASSERT_TRUE(rec.ok());
    IngestOptions options;
    options.durability = WriteAheadLog::Durability::kFsync;
    ASSERT_TRUE(system->Ingest(**rec, options).ok());
  }

  /// A fresh copy of the home with `wal` as its log (Open mutates the log,
  /// so every case gets its own copy).
  fs::path CloneHome(const std::vector<uint8_t>& wal, const std::string& tag) {
    const fs::path clone = root_ / tag;
    fs::remove_all(clone);
    fs::create_directories(clone);
    fs::copy(home_ / "snapshot", clone / "snapshot",
             fs::copy_options::recursive);
    WriteFile(clone / "wal.log", wal);
    return clone;
  }

  /// Asserts a recovered system serves the reference answers bitwise.
  void ExpectReferenceAnswers(Dess3System* system, const std::string& what) {
    size_t k = 0;
    for (FeatureKind kind : AllFeatureKinds()) {
      auto response = system->QueryByShapeId(0, QueryRequest::TopK(kind, 6));
      ASSERT_TRUE(response.ok()) << what << ": " << response.status().ToString();
      const std::vector<SearchResult>& expected = reference_[k++];
      ASSERT_EQ(response->results.size(), expected.size()) << what;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_TRUE(response->results[i] == expected[i])
            << what << " " << FeatureKindName(kind) << " rank " << i;
      }
    }
  }

  fs::path root_, home_;
  ShapeDatabase db_;
  std::vector<uint8_t> wal_;
  std::vector<size_t> entry_offsets_;
  std::vector<std::vector<SearchResult>> reference_;
};

TEST_F(WalRecoveryTest, CleanReopenRecoversCommittedStateExactly) {
  const fs::path clone = CloneHome(wal_, "clean");
  auto system = Dess3System::Open(clone.string(), {}, FastSystemOptions());
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  EXPECT_EQ((*system)->PublishedEpoch(), kCommittedEpoch);
  EXPECT_EQ((*system)->PendingRecords(), kPending);
  EXPECT_EQ((*system)->db().NumShapes(), db_.NumShapes());
  ExpectReferenceAnswers(system->get(), "clean reopen");
}

TEST_F(WalRecoveryTest, TruncationAtEveryOffsetIsATornTail) {
  // A crash can cut an append anywhere. Every prefix must open: the scan
  // truncates the torn tail and recovery republishes the last marker that
  // survived (or falls back to the checkpoint when the marker is gone).
  const size_t marker_end = entry_offsets_[kDelta + 1];
  for (size_t cut = 0; cut < wal_.size(); ++cut) {
    std::vector<uint8_t> torn(wal_.begin(), wal_.begin() + cut);
    const fs::path clone = CloneHome(torn, "cut");
    auto system = Dess3System::Open(clone.string(), {}, FastSystemOptions());
    ASSERT_TRUE(system.ok())
        << "cut at " << cut << ": " << system.status().ToString();
    if (cut >= marker_end) {
      // The marker survived: the committed state must be exactly the
      // reference, whatever happened to the pending tail.
      EXPECT_EQ((*system)->PublishedEpoch(), kCommittedEpoch)
          << "cut at " << cut;
      ExpectReferenceAnswers(system->get(),
                             "cut at " + std::to_string(cut));
    } else {
      // Marker lost: recovery stands on the checkpoint, and replayed
      // records beyond it are pending, never silently published.
      EXPECT_EQ((*system)->PublishedEpoch(), 1u) << "cut at " << cut;
      EXPECT_EQ((*system)->db().NumShapes() - (*system)->PendingRecords(),
                kCheckpointed)
          << "cut at " << cut;
    }
  }
}

TEST_F(WalRecoveryTest, BitFlipsRecoverOrFailCleanlyNeverCrash) {
  Rng rng(20260809);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> flipped = wal_;
    const size_t pos = static_cast<size_t>(
        rng.NextInt(0, static_cast<int>(wal_.size()) - 1));
    flipped[pos] ^= static_cast<uint8_t>(1 << rng.NextInt(0, 7));
    const fs::path clone = CloneHome(flipped, "flip");
    auto system = Dess3System::Open(clone.string(), {}, FastSystemOptions());
    if (system.ok()) {
      // A flip in the tail truncates like a torn append; whatever opened
      // must serve a consistent prefix state, never garbage.
      const uint64_t epoch = (*system)->PublishedEpoch();
      EXPECT_TRUE(epoch == 1u || epoch == kCommittedEpoch)
          << "flip at " << pos;
      if (epoch == kCommittedEpoch) {
        ExpectReferenceAnswers(system->get(),
                               "flip at " + std::to_string(pos));
      }
    } else {
      const StatusCode code = system.status().code();
      EXPECT_TRUE(code == StatusCode::kDataLoss ||
                  code == StatusCode::kFailedPrecondition)
          << "flip at " << pos << ": " << system.status().ToString();
    }
  }
}

TEST_F(WalRecoveryTest, ResealedHeaderVersionSkewIsFailedPrecondition) {
  // A verifying header with an unknown format version was written by
  // different code — refusing to guess is the contract, and it must not
  // be mistaken for damage (DataLoss) or a torn tail (silent truncation).
  std::vector<uint8_t> skewed = wal_;
  const uint32_t future = 99;
  std::memcpy(&skewed[4], &future, 4);
  const uint32_t crc = Crc32c(skewed.data(), 16);
  std::memcpy(&skewed[16], &crc, 4);
  const fs::path clone = CloneHome(skewed, "version");
  auto system = Dess3System::Open(clone.string(), {}, FastSystemOptions());
  ASSERT_FALSE(system.ok());
  EXPECT_EQ(system.status().code(), StatusCode::kFailedPrecondition)
      << system.status().ToString();
}

TEST_F(WalRecoveryTest, ResealedUnknownEntryTypeIsFailedPrecondition) {
  // Same tier for entries — including the very last one, where truncation
  // would otherwise be plausible: a checksum-valid frame is never torn.
  for (const size_t offset : {entry_offsets_.front(), entry_offsets_.back()}) {
    std::vector<uint8_t> skewed = wal_;
    skewed[offset + kEntryTypeOffset] = 0x7F;
    ResealEntry(&skewed, offset);
    const fs::path clone = CloneHome(skewed, "entry_type");
    auto system = Dess3System::Open(clone.string(), {}, FastSystemOptions());
    ASSERT_FALSE(system.ok()) << "entry at " << offset;
    EXPECT_EQ(system.status().code(), StatusCode::kFailedPrecondition)
        << system.status().ToString();
  }
}

TEST_F(WalRecoveryTest, MidLogDamageFollowedByValidEntriesIsDataLoss) {
  // Damage in the first record entry with the marker and tail intact
  // behind it cannot be a torn append: opening as truncation would lose
  // committed records silently. DataLoss, loudly.
  std::vector<uint8_t> damaged = wal_;
  damaged[entry_offsets_.front() + kWalEntryHeaderSize + 2] ^= 0xFF;
  const fs::path clone = CloneHome(damaged, "midlog");
  auto system = Dess3System::Open(clone.string(), {}, FastSystemOptions());
  ASSERT_FALSE(system.ok());
  EXPECT_EQ(system.status().code(), StatusCode::kDataLoss)
      << system.status().ToString();
}

TEST_F(WalRecoveryTest, TornFinalAppendDropsOnlyThePendingTail) {
  // Cut halfway into the last pending record: the classic torn append.
  // Recovery keeps every committed record and all-but-one pending.
  const size_t last = entry_offsets_.back();
  const size_t cut = last + kWalEntryHeaderSize + 3;
  ASSERT_LT(cut, wal_.size());
  std::vector<uint8_t> torn(wal_.begin(), wal_.begin() + cut);
  const fs::path clone = CloneHome(torn, "torn_tail");
  auto system = Dess3System::Open(clone.string(), {}, FastSystemOptions());
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  EXPECT_EQ((*system)->PublishedEpoch(), kCommittedEpoch);
  EXPECT_EQ((*system)->PendingRecords(), kPending - 1);
  ExpectReferenceAnswers(system->get(), "torn tail");
}

TEST_F(WalRecoveryTest, CrashWhileACheckpointIsSwappedInRecovers) {
  // A full commit fsyncs its marker, then swaps its checkpoint in for the
  // previous one. A crash inside the swap can leave the new snapshot
  // complete in snapshot.tmp (its MANIFEST is written last) and none at
  // snapshot/. The WAL then holds the marker but not the records the
  // checkpoint covers, so the open must finish the swap, not start empty.
  const fs::path live = root_ / "swap_live";
  const fs::path crashed = root_ / "swap_crashed";
  auto system = Dess3System::Open(live.string(), {}, FastSystemOptions());
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  size_t next = 0;
  for (; next < kCheckpointed; ++next) Ingest(system->get(), next);
  ASSERT_TRUE((*system)->Commit().ok());  // first checkpoint, WAL reset
  for (; next < kCheckpointed + kDelta; ++next) Ingest(system->get(), next);
  fs::copy(live, crashed, fs::copy_options::recursive);
  // Marker, checkpoint, WAL reset. Keeping the first checkpoint's
  // calibration makes the answers those of the fixture's delta publish.
  auto receipt = (*system)->Commit(
      CommitOptions{.mode = CommitMode::kFull, .recalibrate = false});
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  ASSERT_EQ(receipt->epoch, kCommittedEpoch);
  system->reset();

  // Forge the crash on the copy taken before that commit: append the
  // marker the commit fsynced (a full commit under the frozen calibration
  // of the first checkpoint), drop the old checkpoint, and stage the new.
  {
    WriteAheadLog::Replay replay;
    auto wal = WriteAheadLog::Open((crashed / "wal.log").string(),
                                   *RegistryOrCanonical(nullptr), &replay);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_EQ(replay.records.size(), kDelta);
    WriteAheadLog::CommitMarker marker;
    marker.epoch = kCommittedEpoch;
    marker.mode = static_cast<uint8_t>(CommitMode::kFull);
    marker.calibration_records = kCheckpointed;
    marker.base_records = kCheckpointed + kDelta;
    marker.committed_records = kCheckpointed + kDelta;
    ASSERT_TRUE((*wal)->AppendCommit(marker).ok());
  }
  fs::remove_all(crashed / "snapshot");
  fs::copy(live / "snapshot", crashed / "snapshot.tmp",
           fs::copy_options::recursive);

  auto recovered =
      Dess3System::Open(crashed.string(), {}, FastSystemOptions());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->PublishedEpoch(), kCommittedEpoch);
  EXPECT_EQ((*recovered)->PendingRecords(), 0u);
  EXPECT_EQ((*recovered)->db().NumShapes(), kCheckpointed + kDelta);
  EXPECT_TRUE(fs::exists(crashed / "snapshot" / "MANIFEST"));
  EXPECT_FALSE(fs::exists(crashed / "snapshot.tmp"));
  ExpectReferenceAnswers(recovered->get(), "swap crash");
}

}  // namespace
}  // namespace dess
