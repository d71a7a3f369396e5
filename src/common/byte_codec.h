#ifndef DESS_COMMON_BYTE_CODEC_H_
#define DESS_COMMON_BYTE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"

namespace dess {

/// Binary writer over an in-memory buffer: the one encoder of every
/// persisted byte (snapshot sections and MANIFEST, write-ahead-log frames,
/// HNSW graphs). Fixed-width values are written in host byte order;
/// strings and vectors carry a u64 count prefix. Callers encode a whole
/// unit in memory, checksum that buffer, and write it with one call, so no
/// file is ever read back to learn what was written.
class ByteWriter {
 public:
  void WriteU8(uint8_t v) { Append(&v, sizeof(v)); }
  void WriteU32(uint32_t v) { Append(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { Append(&v, sizeof(v)); }
  void WriteI32(int32_t v) { Append(&v, sizeof(v)); }
  void WriteF64(double v) { Append(&v, sizeof(v)); }
  void WriteString(const std::string& s) {
    WriteU64(s.size());
    Append(s.data(), s.size());
  }
  void WriteF64Vector(const std::vector<double>& v) {
    WriteU64(v.size());
    Append(v.data(), v.size() * sizeof(double));
  }
  /// A u64 count, then one i32 per entry.
  void WriteI32Vector(const std::vector<int>& v) {
    WriteU64(v.size());
    for (int x : v) WriteI32(x);
  }
  /// Raw bytes, no length prefix (for splicing pre-encoded payloads).
  void WriteBytes(const void* data, size_t n) { Append(data, n); }

  /// Sizes the buffer for `n` bytes up front, so a large encoding is one
  /// allocation rather than a chain of doublings.
  void Reserve(size_t n) { bytes_.reserve(n); }

  const std::string& bytes() const { return bytes_; }
  std::string Take() { return std::move(bytes_); }

 private:
  void Append(const void* data, size_t n) {
    bytes_.append(static_cast<const char*>(data), n);
  }

  std::string bytes_;
};

/// Bounds-checked reader over a byte span, the inverse of ByteWriter.
/// Read methods return false, and the reader stays failed, on truncation
/// or on a count prefix larger than the bytes left, so a corrupt count is
/// rejected before anything is allocated for it. A decoder that is done
/// checks AtEnd(): bytes it did not consume are damage too.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool ReadU8(uint8_t* v) { return Extract(v, sizeof(*v)); }
  bool ReadU32(uint32_t* v) { return Extract(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return Extract(v, sizeof(*v)); }
  bool ReadI32(int32_t* v) { return Extract(v, sizeof(*v)); }
  bool ReadF64(double* v) { return Extract(v, sizeof(*v)); }
  bool ReadString(std::string* s);
  bool ReadF64Vector(std::vector<double>* v);
  bool ReadI32Vector(std::vector<int>* v);

  /// Reads a u64 count of entries at least `entry_bytes` long each; fails
  /// when that many entries cannot fit in the bytes left.
  bool ReadCount(size_t entry_bytes, uint64_t* count);

  bool ok() const { return ok_; }
  size_t Remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return ok_ && pos_ == bytes_.size(); }

 private:
  bool Extract(void* out, size_t n) {
    if (!ok_ || n > Remaining()) {
      ok_ = false;
      return false;
    }
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// The whole contents of the file at `path`: NotFound when it does not
/// exist, IOError when it cannot be read.
Result<std::string> ReadFileBytes(const std::string& path);

/// Writes all of `bytes` to `fd`, retrying short writes, then fsyncs it
/// when `sync`. The one write path of persisted bytes: the write-ahead log
/// appends through it, and WriteFileSynced writes whole files through it.
/// IOError naming `path` on failure.
Status WriteAndSync(int fd, std::string_view bytes, bool sync,
                    const std::string& path);

/// Creates or truncates `path`, writes `bytes` and fsyncs the file before
/// returning.
Status WriteFileSynced(const std::string& path, std::string_view bytes);

/// Fsyncs the directory at `path`, making the creations and renames of
/// its entries durable.
Status SyncDirectory(const std::string& path);

}  // namespace dess

#endif  // DESS_COMMON_BYTE_CODEC_H_
