// Corruption-injection tests. The record codec (src/db/serialization.h)
// is fed truncated, bit-flipped, padded and giant-count inputs; every
// decode must either succeed (a flip may land in a value byte) or fail
// with DataLoss — never crash, hang or allocate for a count the input
// cannot hold. Below, a full snapshot directory is damaged the same ways
// and OpenFromSnapshot must keep the pinned taxonomy.

#include <gtest/gtest.h>

#include <filesystem>
#include <cstring>
#include <fstream>
#include <unistd.h>

#include "src/common/crc32c.h"
#include "src/common/rng.h"
#include "src/core/persistence.h"
#include "src/core/system.h"
#include "src/db/serialization.h"
#include "src/db/shape_database.h"
#include "tests/test_util.h"

namespace dess {
namespace {

/// Encoded records for the codec cases: a synthetic feature database whose
/// records also carry a small mesh, as records.bin, meshes.bin and one
/// write-ahead-log record payload.
class SerializationFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ShapeDatabase synthetic =
        testing_util::BuildSyntheticFeatureDb(3, 3, 2);
    for (const ShapeRecord& rec : synthetic.records()) {
      ShapeRecord copy = rec;
      copy.mesh.AddVertex({0, 0, 0});
      copy.mesh.AddVertex({1, 0, 0});
      copy.mesh.AddVertex({0, 1, 0});
      copy.mesh.AddVertex({0, 0, 1});
      copy.mesh.AddTriangle(0, 2, 1);
      copy.mesh.AddTriangle(0, 1, 3);
      copy.mesh.AddTriangle(0, 3, 2);
      copy.mesh.AddTriangle(1, 2, 3);
      db_.Insert(std::move(copy));
    }
    records_ = EncodeRecordsSection(db_);
    meshes_ = EncodeMeshesSection(db_);
    payload_ = EncodeRecordPayload(**db_.Get(4));
    ASSERT_GT(payload_.size(), 100u);
  }

  /// Decodes `bytes` as the layout `layout` names (0 records.bin, 1
  /// meshes.bin over the intact records, 2 record payload).
  Status Decode(int layout, const std::string& bytes) const {
    switch (layout) {
      case 0:
        return DecodeRecordsSection(bytes, *registry_, "records").status();
      case 1: {
        auto records = DecodeRecordsSection(records_, *registry_, "records");
        if (!records.ok()) return records.status();
        return DecodeMeshesSection(bytes, "meshes", &*records);
      }
      default: {
        ShapeRecord rec;
        return DecodeRecordPayload(bytes, *registry_, "payload", &rec);
      }
    }
  }

  const std::string& Encoded(int layout) const {
    return layout == 0 ? records_ : layout == 1 ? meshes_ : payload_;
  }

  static constexpr int kLayouts = 3;
  const std::shared_ptr<const FeatureSpaceRegistry> registry_ =
      FeatureSpaceRegistry::Canonical();
  ShapeDatabase db_;
  std::string records_, meshes_, payload_;
};

TEST_F(SerializationFuzzTest, TruncationAtEveryStrideFailsCleanly) {
  for (int layout = 0; layout < kLayouts; ++layout) {
    ASSERT_TRUE(Decode(layout, Encoded(layout)).ok()) << "layout " << layout;
    // Every prefix of the record payload; every 7th of the sections.
    const size_t stride = layout == 2 ? 1 : 7;
    for (size_t cut = 0; cut < Encoded(layout).size(); cut += stride) {
      const Status st = Decode(layout, Encoded(layout).substr(0, cut));
      EXPECT_EQ(st.code(), StatusCode::kDataLoss)
          << "layout " << layout << " cut at " << cut << ": " << st.ToString();
    }
  }
}

TEST_F(SerializationFuzzTest, BitFlipsNeverCrash) {
  Rng rng(2024);
  int failures = 0, successes = 0;
  for (int layout = 0; layout < kLayouts; ++layout) {
    for (int trial = 0; trial < 300; ++trial) {
      std::string flipped = Encoded(layout);
      flipped[rng.NextBounded(flipped.size())] ^=
          static_cast<char>(1 << rng.NextBounded(8));
      const Status st = Decode(layout, flipped);
      if (st.ok()) {
        ++successes;  // a flip inside a value yields a valid encoding
      } else {
        ++failures;
        EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
      }
    }
  }
  // Both outcomes occur: most bytes are values, the rest are structure.
  EXPECT_GT(failures, 0);
  EXPECT_GT(successes, 0);
}

TEST_F(SerializationFuzzTest, GiantLengthPrefixRejectedWithoutAllocation) {
  // A 2^60 count must fail against the bytes left, not reserve 2^60
  // entries. Offsets: the record count of records.bin; the name length
  // and, in the mesh part, the vertex count of a record payload.
  const uint64_t huge = 1ull << 60;
  const ShapeRecord& rec = **db_.Get(4);
  size_t catalog = 4 + 8 + rec.name.size() + 4 + 4;
  for (const FeatureVector& fv : rec.signature.features) {
    catalog += 4 + 8 + fv.values.size() * sizeof(double);
  }
  const std::pair<int, size_t> targets[] = {{0, 0}, {2, 4}, {2, catalog}};
  for (const auto& [layout, offset] : targets) {
    std::string evil = Encoded(layout);
    ASSERT_LE(offset + sizeof(huge), evil.size());
    std::memcpy(evil.data() + offset, &huge, sizeof(huge));
    EXPECT_EQ(Decode(layout, evil).code(), StatusCode::kDataLoss)
        << "layout " << layout << " offset " << offset;
  }
}

TEST_F(SerializationFuzzTest, EmptyFileRejected) {
  for (int layout = 0; layout < kLayouts; ++layout) {
    EXPECT_EQ(Decode(layout, "").code(), StatusCode::kDataLoss)
        << "layout " << layout;
  }
}

TEST_F(SerializationFuzzTest, AppendedBytesAreDataLoss) {
  // A decoder consumes its input exactly: bytes past the last record are
  // damage, not padding.
  for (int layout = 0; layout < kLayouts; ++layout) {
    for (const size_t extra : {1, 4, 64}) {
      std::string padded = Encoded(layout);
      for (size_t i = 0; i < extra; ++i) padded.push_back(static_cast<char>(i));
      EXPECT_EQ(Decode(layout, padded).code(), StatusCode::kDataLoss)
          << "layout " << layout << " +" << extra << " bytes";
    }
  }
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
  // With checksums off the size check is skipped too, so the decoders
  // alone must catch the missing bytes.
  for (const bool verify : {true, false}) {
    for (const char* file :
         {kSnapshotRecordsFile, kSnapshotSpacesFile, kSnapshotMeshesFile,
          "hierarchy_eigenvalues.bin", "hierarchy_geometric_params.bin"}) {
      const std::filesystem::path variant = MakeVariant();
      std::vector<char> bytes = ReadFile(variant / file);
      ASSERT_GT(bytes.size(), 8u) << file;
      bytes.resize(bytes.size() / 2);
      WriteFile(variant / file, bytes);
      auto result = Dess3System::OpenFromSnapshot(
          variant.string(), OpenOptions{.verify_checksums = verify});
      ASSERT_FALSE(result.ok()) << file << " verify " << verify;
      EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
          << file << " verify " << verify << ": "
          << result.status().ToString();
    }
  }
}

TEST_F(SnapshotFuzzTest, AppendedBytesFailAsDataLoss) {
  // Bytes past a section's last field are damage in both modes: the size
  // check catches them with checksums on, the decoders with checksums off.
  for (const bool verify : {true, false}) {
    for (const char* file :
         {kSnapshotRecordsFile, kSnapshotSpacesFile, kSnapshotMeshesFile,
          "hierarchy_moment_invariants.bin", "hierarchy_eigenvalues.bin"}) {
      const std::filesystem::path variant = MakeVariant();
      std::vector<char> bytes = ReadFile(variant / file);
      for (int i = 0; i < 16; ++i) bytes.push_back(static_cast<char>(i));
      WriteFile(variant / file, bytes);
      auto result = Dess3System::OpenFromSnapshot(
          variant.string(), OpenOptions{.verify_checksums = verify});
      ASSERT_FALSE(result.ok()) << file << " verify " << verify;
      EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
          << file << " verify " << verify << ": "
          << result.status().ToString();
    }
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

TEST_F(SnapshotFuzzTest, BitFlippedSectionsWithoutChecksumsFailCleanly) {
  // With checksums off a flip reaches the decoders: each open either
  // succeeds (the flip landed in a value) or is DataLoss — never another
  // code, never a crash.
  Rng rng(78);
  const char* files[] = {kSnapshotRecordsFile, kSnapshotSpacesFile,
                         kSnapshotMeshesFile,
                         "hierarchy_moment_invariants.bin",
                         "hierarchy_principal_moments.bin"};
  int failures = 0;
  for (const char* file : files) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::filesystem::path variant = MakeVariant();
      std::vector<char> bytes = ReadFile(variant / file);
      ASSERT_FALSE(bytes.empty()) << file;
      bytes[rng.NextBounded(bytes.size())] ^=
          static_cast<char>(1 << rng.NextBounded(8));
      WriteFile(variant / file, bytes);
      auto result = Dess3System::OpenFromSnapshot(
          variant.string(), OpenOptions{.verify_checksums = false});
      if (result.ok()) continue;
      ++failures;
      EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
          << file << " trial " << trial << ": "
          << result.status().ToString();
    }
  }
  EXPECT_GT(failures, 0);
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
