#include "src/core/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <utility>

#include "src/common/byte_codec.h"
#include "src/common/crc32c.h"
#include "src/db/serialization.h"

namespace dess {
namespace {

constexpr uint32_t kWalMagic = 0x4C415744;       // "DWAL"
constexpr uint32_t kWalFormatVersion = 1;
constexpr uint32_t kWalEntryMagic = 0x52544E45;  // "ENTR"
constexpr size_t kWalHeaderSize = 4 + 4 + 8 + 4;
constexpr size_t kWalEntryHeaderSize = 4 + 1 + 8 + 4 + 4;

std::string EncodeHeader(uint64_t base_sequence) {
  ByteWriter w;
  w.WriteU32(kWalMagic);
  w.WriteU32(kWalFormatVersion);
  w.WriteU64(base_sequence);
  w.WriteU32(Crc32c(w.bytes().data(), w.bytes().size()));
  return w.Take();
}

std::string EncodeCommitPayload(const WriteAheadLog::CommitMarker& marker) {
  ByteWriter w;
  w.WriteU64(marker.epoch);
  w.WriteU8(marker.mode);
  w.WriteU64(marker.calibration_records);
  w.WriteU64(marker.base_records);
  w.WriteU64(marker.committed_records);
  return w.Take();
}

Status DecodeCommitPayload(std::string_view payload, const std::string& path,
                           WriteAheadLog::CommitMarker* marker) {
  ByteReader r(payload);
  if (!r.ReadU64(&marker->epoch) || !r.ReadU8(&marker->mode) ||
      !r.ReadU64(&marker->calibration_records) ||
      !r.ReadU64(&marker->base_records) ||
      !r.ReadU64(&marker->committed_records) || !r.AtEnd()) {
    return Status::DataLoss("bad WAL commit marker: " + path);
  }
  if (marker->calibration_records > marker->base_records ||
      marker->base_records > marker->committed_records) {
    return Status::DataLoss("inconsistent WAL commit marker: " + path);
  }
  return Status::OK();
}

/// True when a structurally valid frame (magic, length bounds, checksum)
/// starts at `offset`. Payload semantics are not checked.
bool FrameValidAt(std::string_view bytes, size_t offset, uint8_t* type,
                  uint64_t* seq, uint32_t* len) {
  if (offset > bytes.size()) return false;
  ByteReader r(bytes.substr(offset));
  uint32_t magic = 0, stored = 0;
  if (!r.ReadU32(&magic) || magic != kWalEntryMagic || !r.ReadU8(type) ||
      !r.ReadU64(seq) || !r.ReadU32(len) || !r.ReadU32(&stored) ||
      *len > r.Remaining()) {
    return false;
  }
  uint32_t crc = Crc32c(bytes.data() + offset + 4, 13);
  crc = Crc32cExtend(crc, bytes.data() + offset + kWalEntryHeaderSize, *len);
  return crc == stored;
}

}  // namespace

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path, const FeatureSpaceRegistry& registry,
    Replay* replay) {
  *replay = Replay();
  Result<std::string> read = ReadFileBytes(path);
  if (!read.ok() && read.status().code() != StatusCode::kNotFound) {
    return read.status();
  }
  const std::string bytes = read.ok() ? std::move(read).value() : "";

  if (bytes.size() < kWalHeaderSize) {
    // Missing, empty, or torn before the header landed (the header is
    // fsynced at creation before any entry append, so a short file can
    // hold no committed entries): start fresh.
    replay->truncated_bytes = bytes.size();
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) return Status::IOError("cannot open WAL for write: " + path);
    Status st = WriteAndSync(fd, EncodeHeader(0), /*sync=*/true, path);
    // The log's directory entry must be as durable as its header, or a
    // power loss can take the log and every record fsynced into it.
    if (st.ok()) {
      const std::filesystem::path dir =
          std::filesystem::path(path).parent_path();
      st = SyncDirectory(dir.empty() ? "." : dir.string());
    }
    if (!st.ok()) {
      ::close(fd);
      return st;
    }
    return std::unique_ptr<WriteAheadLog>(new WriteAheadLog(path, fd, 0));
  }

  uint32_t magic = 0, version = 0, stored_crc = 0;
  uint64_t base_sequence = 0;
  ByteReader header(bytes);
  header.ReadU32(&magic);
  header.ReadU32(&version);
  header.ReadU64(&base_sequence);
  header.ReadU32(&stored_crc);
  if (magic != kWalMagic) {
    return Status::DataLoss("not a write-ahead log: " + path);
  }
  if (Crc32c(bytes.data(), 16) != stored_crc) {
    return Status::DataLoss("WAL header checksum mismatch: " + path);
  }
  if (version != kWalFormatVersion) {
    return Status::FailedPrecondition(
        "WAL format version " + std::to_string(version) +
        " not supported (this build reads " +
        std::to_string(kWalFormatVersion) + "): " + path);
  }

  size_t offset = kWalHeaderSize;
  uint64_t seq = base_sequence;
  while (offset < bytes.size()) {
    uint8_t type;
    uint64_t entry_seq;
    uint32_t len;
    if (!FrameValidAt(bytes, offset, &type, &entry_seq, &len)) break;
    // The frame's checksum verified, so what it says is what was written:
    // anything wrong from here on is damage or skew, never a torn append.
    if (entry_seq != seq + 1) {
      return Status::DataLoss("WAL sequence discontinuity: " + path);
    }
    const std::string_view payload(bytes.data() + offset + kWalEntryHeaderSize,
                                   len);
    switch (static_cast<EntryType>(type)) {
      case EntryType::kRecord: {
        ShapeRecord rec;
        DESS_RETURN_NOT_OK(DecodeRecordPayload(
            payload, registry, "WAL record entry of " + path, &rec));
        replay->records.push_back(std::move(rec));
        break;
      }
      case EntryType::kCommit: {
        CommitMarker marker;
        DESS_RETURN_NOT_OK(DecodeCommitPayload(payload, path, &marker));
        replay->has_marker = true;
        replay->marker = marker;
        break;
      }
      default:
        return Status::FailedPrecondition(
            "unknown WAL entry type " + std::to_string(type) +
            " (written by a newer build?): " + path);
    }
    seq = entry_seq;
    offset += kWalEntryHeaderSize + len;
  }

  if (offset < bytes.size()) {
    // Bad frame at `offset`. A torn append damages only the tail; if any
    // structurally valid frame exists beyond this point the damage is
    // mid-file — that lost data.
    for (size_t probe = offset + 1;
         probe + kWalEntryHeaderSize <= bytes.size(); ++probe) {
      uint8_t t;
      uint64_t s;
      uint32_t l;
      if (FrameValidAt(bytes, probe, &t, &s, &l)) {
        return Status::DataLoss(
            "corrupt WAL entry followed by valid entries: " + path);
      }
    }
    replay->truncated_bytes = bytes.size() - offset;
  }

  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open WAL for append: " + path);
  if (replay->truncated_bytes > 0) {
    if (::ftruncate(fd, static_cast<off_t>(offset)) != 0 ||
        ::fsync(fd) != 0) {
      ::close(fd);
      return Status::IOError("cannot truncate torn WAL tail: " + path);
    }
  }
  replay->last_sequence = seq;
  return std::unique_ptr<WriteAheadLog>(new WriteAheadLog(path, fd, seq));
}

Result<uint64_t> WriteAheadLog::AppendEntry(EntryType type,
                                            std::string_view payload,
                                            bool sync) {
  const uint64_t seq = sequence_ + 1;
  ByteWriter frame;
  frame.WriteU32(kWalEntryMagic);
  frame.WriteU8(static_cast<uint8_t>(type));
  frame.WriteU64(seq);
  frame.WriteU32(static_cast<uint32_t>(payload.size()));
  // The checksum covers the type, sequence and length fields (everything
  // after the magic) and the payload.
  uint32_t crc = Crc32c(frame.bytes().data() + 4, frame.bytes().size() - 4);
  crc = Crc32cExtend(crc, payload.data(), payload.size());
  frame.WriteU32(crc);
  frame.WriteBytes(payload.data(), payload.size());
  DESS_RETURN_NOT_OK(WriteAndSync(fd_, frame.bytes(), sync, path_));
  sequence_ = seq;
  return seq;
}

Result<uint64_t> WriteAheadLog::AppendRecord(const ShapeRecord& record,
                                             bool sync) {
  return AppendEntry(EntryType::kRecord, EncodeRecordPayload(record), sync);
}

Result<uint64_t> WriteAheadLog::AppendCommit(const CommitMarker& marker) {
  return AppendEntry(EntryType::kCommit, EncodeCommitPayload(marker),
                     /*sync=*/true);
}

Status WriteAheadLog::Sync() {
  return WriteAndSync(fd_, {}, /*sync=*/true, path_);
}

Status WriteAheadLog::Reset() {
  if (::ftruncate(fd_, 0) != 0) {
    return Status::IOError("cannot truncate WAL: " + path_);
  }
  // The fd is not necessarily O_APPEND (fresh creation opens plain
  // O_WRONLY): without the seek the header would land at the stale offset,
  // leaving a zero-filled prefix where the magic belongs.
  if (::lseek(fd_, 0, SEEK_SET) < 0) {
    return Status::IOError("cannot rewind WAL: " + path_);
  }
  return WriteAndSync(fd_, EncodeHeader(sequence_), /*sync=*/true, path_);
}

}  // namespace dess
