#ifndef DESS_CORE_WAL_H_
#define DESS_CORE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/db/shape_database.h"
#include "src/features/feature_space.h"

namespace dess {

/// Write-ahead log for ingests: the durability half of the incremental
/// commit design (DESIGN.md "WAL & delta commits"). Every ingested
/// ShapeRecord is appended as a CRC-32C-framed entry before it becomes
/// visible to Commit(); a commit marker entry — fsynced unconditionally —
/// records how far the published state reaches, so crash recovery is
/// "open last snapshot, replay the WAL tail, republish up to the last
/// marker".
///
/// File layout (host byte order, written with the ByteWriter that encodes
/// every persisted byte; a record entry's payload is the record codec's
/// record-with-mesh layout, src/db/serialization.h):
///
///   header   [u32 magic][u32 version][u64 base_sequence][u32 crc32c]
///   entry*   [u32 entry magic][u8 type][u64 sequence][u32 payload len]
///            [u32 crc32c][payload...]
///
/// The entry checksum covers the type/sequence/length fields and the
/// payload, so a flipped bit anywhere in a frame is detected. Sequences
/// are dense: entry i carries base_sequence + i + 1, and a valid frame
/// with the wrong sequence is corruption, not a torn write.
///
/// Failure taxonomy at open (the PR 4/5 tiers):
///  - A bad frame with nothing but garbage after it is a torn tail from a
///    crashed append: the log is truncated at the last good entry and
///    replay succeeds (clean truncation, reported via
///    WalReplay::truncated_bytes).
///  - A bad frame *followed by another valid frame* cannot be a torn
///    append — that is mid-file damage and opens as DataLoss.
///  - A header or frame whose checksum verifies but which carries an
///    unknown format version or entry type was written by different code,
///    not damaged: FailedPrecondition (version skew), never truncation.
class WriteAheadLog {
 public:
  /// How an ingest waits on the log. kOff skips the append entirely (the
  /// record is expendable until the next full checkpoint); kAsync appends
  /// but lets the OS flush on its own schedule; kFsync fsyncs before the
  /// ingest returns. Commit markers always fsync regardless of mode —
  /// a receipt's wal_sequence is durable by the time the caller sees it.
  enum class Durability : uint8_t { kOff = 0, kAsync = 1, kFsync = 2 };

  /// Entry types. Values are pinned in the on-disk format.
  enum class EntryType : uint8_t { kRecord = 1, kCommit = 2 };

  /// Payload of a commit marker: enough to reconstruct the published
  /// snapshot bit-identically from the record stream alone. The three
  /// counts are prefix lengths of the insertion-ordered record sequence:
  /// `calibration_records` is how many records the published similarity
  /// spaces were calibrated over (lags `base_records` after a
  /// frozen-calibration compaction), `base_records` is how many the main
  /// per-space indexes cover, and `committed_records` is how many the
  /// published epoch serves (the tail beyond base_records is the delta
  /// side-index).
  struct CommitMarker {
    uint64_t epoch = 0;
    uint8_t mode = 0;  // CommitMode pinned value (0 full, 1 delta)
    uint64_t calibration_records = 0;
    uint64_t base_records = 0;
    uint64_t committed_records = 0;
  };

  /// What Open() recovered from an existing log.
  struct Replay {
    /// Every durable record, in log (= insertion) order.
    std::vector<ShapeRecord> records;
    /// Last commit marker, if any survived.
    bool has_marker = false;
    CommitMarker marker;
    /// Sequence of the last surviving entry (base_sequence when empty).
    uint64_t last_sequence = 0;
    /// Bytes dropped from a torn tail (0 for a clean log).
    uint64_t truncated_bytes = 0;
  };

  /// Opens (creating if missing) the log at `path`, validating every frame
  /// and replaying surviving entries into *replay. Record payloads are
  /// decoded by the same codec as snapshot records, against `registry`
  /// (feature count, ordinals, dims), so a replayed record is as
  /// trustworthy as a loaded one. See the class comment for the failure
  /// taxonomy.
  static Result<std::unique_ptr<WriteAheadLog>> Open(
      const std::string& path, const FeatureSpaceRegistry& registry,
      Replay* replay);

  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends one record entry; fsyncs before returning iff `sync`.
  /// Returns the entry's sequence number.
  Result<uint64_t> AppendRecord(const ShapeRecord& record, bool sync);

  /// Appends a commit marker and fsyncs (fsync-on-commit). Returns the
  /// marker's sequence number — the receipt's wal_sequence.
  Result<uint64_t> AppendCommit(const CommitMarker& marker);

  /// Flushes appended entries to stable storage.
  Status Sync();

  /// Empties the log after a checkpoint made its contents durable
  /// elsewhere. Sequence numbers continue monotonically (the fresh header
  /// records the current sequence as its base).
  Status Reset();

  /// Sequence of the last appended entry.
  uint64_t last_sequence() const { return sequence_; }

  const std::string& path() const { return path_; }

 private:
  WriteAheadLog(std::string path, int fd, uint64_t sequence)
      : path_(std::move(path)), fd_(fd), sequence_(sequence) {}

  Result<uint64_t> AppendEntry(EntryType type, std::string_view payload,
                               bool sync);

  std::string path_;
  int fd_;
  uint64_t sequence_;
};

}  // namespace dess

#endif  // DESS_CORE_WAL_H_
