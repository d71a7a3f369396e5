// Corruption-injection tests: a persisted database (and, below, a full
// snapshot directory) is truncated and bit-flipped at many offsets; every
// load attempt must either succeed (a flip may land in a don't-care byte or
// produce an equally valid file) or fail with a clean error — never crash,
// hang, or publish a partially-loaded system.

#include <gtest/gtest.h>

#include <filesystem>
#include <cstring>
#include <fstream>
#include <unistd.h>

#include "src/common/crc32c.h"
#include "src/common/rng.h"
#include "src/core/persistence.h"
#include "src/core/system.h"
#include "src/db/shape_database.h"
#include "tests/test_util.h"

namespace dess {
namespace {

class SerializationFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dess_fuzz_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    db_ = testing_util::BuildSyntheticFeatureDb(3, 3, 2);
    // Give the records some mesh payload too.
    path_ = (dir_ / "base.bin").string();
    ASSERT_TRUE(db_.Save(path_).ok());
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    ASSERT_GT(bytes_.size(), 100u);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string WriteVariant(const std::vector<char>& data) {
    const std::string p = (dir_ / "variant.bin").string();
    std::ofstream out(p, std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    return p;
  }

  std::filesystem::path dir_;
  ShapeDatabase db_;
  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(SerializationFuzzTest, TruncationAtEveryStrideFailsCleanly) {
  for (size_t cut = 0; cut < bytes_.size(); cut += 41) {
    std::vector<char> truncated(bytes_.begin(), bytes_.begin() + cut);
    auto result = ShapeDatabase::Load(WriteVariant(truncated));
    EXPECT_FALSE(result.ok()) << "cut at " << cut;
    const StatusCode code = result.status().code();
    EXPECT_TRUE(code == StatusCode::kCorruption ||
                code == StatusCode::kIOError)
        << "cut at " << cut << ": " << result.status().ToString();
  }
}

TEST_F(SerializationFuzzTest, BitFlipsNeverCrash) {
  Rng rng(2024);
  int clean_failures = 0, surprising_successes = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<char> flipped = bytes_;
    const size_t pos = rng.NextBounded(flipped.size());
    flipped[pos] ^= static_cast<char>(1 << rng.NextBounded(8));
    auto result = ShapeDatabase::Load(WriteVariant(flipped));
    if (result.ok()) {
      // A flip inside a double payload yields a valid (different) DB.
      ++surprising_successes;
      EXPECT_EQ(result->NumShapes(), db_.NumShapes());
    } else {
      ++clean_failures;
      const StatusCode code = result.status().code();
      EXPECT_TRUE(code == StatusCode::kCorruption ||
                  code == StatusCode::kIOError)
          << result.status().ToString();
    }
  }
  // Both outcomes occur on real files; mostly successes since most bytes
  // are geometry payload.
  EXPECT_GT(clean_failures + surprising_successes, 0);
}

TEST_F(SerializationFuzzTest, GiantLengthPrefixRejectedWithoutAllocation) {
  // Overwrite the record-count field (offset 8) with a huge value; the
  // loader must fail on truncation, not attempt a 2^60-entry reserve.
  std::vector<char> evil = bytes_;
  const uint64_t huge = 1ull << 60;
  std::memcpy(evil.data() + 8, &huge, sizeof(huge));
  auto result = ShapeDatabase::Load(WriteVariant(evil));
  EXPECT_FALSE(result.ok());
}

TEST_F(SerializationFuzzTest, EmptyFileRejected) {
  auto result = ShapeDatabase::Load(WriteVariant({}));
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST_F(SerializationFuzzTest, AppendedGarbageIsHarmless) {
  // Trailing bytes after a complete database are ignored by the reader
  // (it reads exactly the declared records).
  std::vector<char> padded = bytes_;
  for (int i = 0; i < 64; ++i) padded.push_back(static_cast<char>(i));
  auto result = ShapeDatabase::Load(WriteVariant(padded));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->NumShapes(), db_.NumShapes());
}

/// Snapshot-directory corruption: a golden snapshot is copied per trial,
/// one file is damaged, and OpenFromSnapshot must fail with the pinned
/// taxonomy — DataLoss for corruption, FailedPrecondition for version
/// skew, NotFound for no-snapshot — and never crash or half-open.
class SnapshotFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dess_snapfuzz_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    golden_ = dir_ / "golden";
    Dess3System system;
    ShapeDatabase db = testing_util::BuildSyntheticFeatureDb(3, 3, 2);
    for (const ShapeRecord& rec : db.records()) {
      ASSERT_TRUE(system.Ingest(rec, {}).ok());
    }
    ASSERT_TRUE(system.Commit().ok());
    ASSERT_TRUE(system.SaveSnapshot(golden_.string()).ok());
    baseline_ = system.QueryByShapeId(
        0, QueryRequest::TopK(FeatureKind::kMomentInvariants, 5));
    ASSERT_TRUE(baseline_.ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Fresh copy of the golden snapshot to damage.
  std::filesystem::path MakeVariant() {
    const std::filesystem::path variant = dir_ / "variant";
    std::filesystem::remove_all(variant);
    std::filesystem::copy(golden_, variant,
                          std::filesystem::copy_options::recursive);
    return variant;
  }

  static std::vector<char> ReadFile(const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  static void WriteFile(const std::filesystem::path& p,
                        const std::vector<char>& data) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }

  std::filesystem::path dir_;
  std::filesystem::path golden_;
  Result<QueryResponse> baseline_{QueryResponse{}};
};

TEST_F(SnapshotFuzzTest, GoldenSnapshotReopensAndAnswersIdentically) {
  auto reopened = Dess3System::OpenFromSnapshot(golden_.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto response = (*reopened)->QueryByShapeId(
      0, QueryRequest::TopK(FeatureKind::kMomentInvariants, 5));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->results.size(), baseline_->results.size());
  for (size_t i = 0; i < response->results.size(); ++i) {
    EXPECT_TRUE(response->results[i] == baseline_->results[i]);
  }
}

TEST_F(SnapshotFuzzTest, TruncatedSectionsFailAsDataLoss) {
  for (const char* file :
       {kSnapshotRecordsFile, kSnapshotSpacesFile,
        "hierarchy_eigenvalues.bin", "hierarchy_geometric_params.bin"}) {
    const std::filesystem::path variant = MakeVariant();
    std::vector<char> bytes = ReadFile(variant / file);
    ASSERT_GT(bytes.size(), 8u) << file;
    bytes.resize(bytes.size() / 2);
    WriteFile(variant / file, bytes);
    auto result = Dess3System::OpenFromSnapshot(variant.string());
    ASSERT_FALSE(result.ok()) << file;
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
        << file << ": " << result.status().ToString();
  }
}

TEST_F(SnapshotFuzzTest, BitFlippedSectionsFailAsDataLoss) {
  Rng rng(77);
  const char* files[] = {kSnapshotRecordsFile, kSnapshotSpacesFile,
                         kSnapshotMeshesFile,
                         "hierarchy_moment_invariants.bin",
                         "hierarchy_principal_moments.bin"};
  for (const char* file : files) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::filesystem::path variant = MakeVariant();
      std::vector<char> bytes = ReadFile(variant / file);
      ASSERT_FALSE(bytes.empty()) << file;
      bytes[rng.NextBounded(bytes.size())] ^=
          static_cast<char>(1 << rng.NextBounded(8));
      WriteFile(variant / file, bytes);
      auto result = Dess3System::OpenFromSnapshot(variant.string());
      // Every section is CRC-verified against the manifest before parsing,
      // so any flip — even in a don't-care byte — is DataLoss.
      ASSERT_FALSE(result.ok()) << file << " trial " << trial;
      EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
          << file << ": " << result.status().ToString();
    }
  }
}

TEST_F(SnapshotFuzzTest, BitFlippedManifestFailsCleanly) {
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    const std::filesystem::path variant = MakeVariant();
    std::vector<char> bytes = ReadFile(variant / kSnapshotManifestFile);
    ASSERT_GT(bytes.size(), 36u);
    bytes[rng.NextBounded(bytes.size())] ^=
        static_cast<char>(1 << rng.NextBounded(8));
    WriteFile(variant / kSnapshotManifestFile, bytes);
    auto result = Dess3System::OpenFromSnapshot(variant.string());
    // The manifest is self-checksummed, so a flip anywhere (including the
    // version field or the trailing CRC itself) reads as DataLoss.
    ASSERT_FALSE(result.ok()) << "trial " << trial;
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
        << result.status().ToString();
  }
}

TEST_F(SnapshotFuzzTest, TruncatedManifestFailsCleanly) {
  std::vector<char> bytes = ReadFile(golden_ / kSnapshotManifestFile);
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    const std::filesystem::path variant = MakeVariant();
    std::vector<char> truncated(bytes.begin(), bytes.begin() + cut);
    WriteFile(variant / kSnapshotManifestFile, truncated);
    auto result = Dess3System::OpenFromSnapshot(variant.string());
    ASSERT_FALSE(result.ok()) << "cut at " << cut;
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
        << "cut at " << cut << ": " << result.status().ToString();
  }
}

TEST_F(SnapshotFuzzTest, VersionSkewWithValidChecksumIsFailedPrecondition) {
  // A future writer bumps the version and re-seals the manifest: the CRC is
  // valid, so the reader must report skew, not corruption. The same holds
  // for the retired older versions: this build reads exactly one format.
  // Rebuild the manifest tail CRC after patching the version field
  // (offset 4).
  for (const uint32_t version : {kSnapshotFormatVersion + 1, 1u, 2u, 3u}) {
    const std::filesystem::path variant = MakeVariant();
    std::vector<char> bytes = ReadFile(variant / kSnapshotManifestFile);
    ASSERT_GT(bytes.size(), 36u);
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    const uint32_t crc = Crc32c(bytes.data(), bytes.size() - 4);
    std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
    WriteFile(variant / kSnapshotManifestFile, bytes);
    auto result = Dess3System::OpenFromSnapshot(variant.string());
    ASSERT_FALSE(result.ok()) << "version " << version;
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
        << "version " << version << ": " << result.status().ToString();
  }
}

TEST_F(SnapshotFuzzTest, MissingManifestIsNotFound) {
  const std::filesystem::path variant = MakeVariant();
  std::filesystem::remove(variant / kSnapshotManifestFile);
  auto result = Dess3System::OpenFromSnapshot(variant.string());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotFuzzTest, MissingSectionIsDataLoss) {
  for (const char* file :
       {kSnapshotRecordsFile, kSnapshotSpacesFile,
        "hierarchy_eigenvalues.bin"}) {
    const std::filesystem::path variant = MakeVariant();
    std::filesystem::remove(variant / file);
    auto result = Dess3System::OpenFromSnapshot(variant.string());
    ASSERT_FALSE(result.ok()) << file;
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss) << file;
  }
}

}  // namespace
}  // namespace dess
