#include "src/common/byte_codec.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

namespace dess {

bool ByteReader::ReadCount(size_t entry_bytes, uint64_t* count) {
  if (!ReadU64(count) || *count > Remaining() / entry_bytes) {
    ok_ = false;
    return false;
  }
  return true;
}

bool ByteReader::ReadString(std::string* s) {
  uint64_t n = 0;
  if (!ReadCount(1, &n)) return false;
  s->assign(bytes_.data() + pos_, static_cast<size_t>(n));
  pos_ += static_cast<size_t>(n);
  return true;
}

bool ByteReader::ReadF64Vector(std::vector<double>* v) {
  uint64_t n = 0;
  if (!ReadCount(sizeof(double), &n)) return false;
  v->resize(static_cast<size_t>(n));
  return n == 0 || Extract(v->data(), v->size() * sizeof(double));
}

bool ByteReader::ReadI32Vector(std::vector<int>* v) {
  uint64_t n = 0;
  if (!ReadCount(sizeof(int32_t), &n)) return false;
  v->resize(static_cast<size_t>(n));
  for (int& x : *v) {
    int32_t value = 0;
    if (!ReadI32(&value)) return false;
    x = value;
  }
  return true;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::IOError("cannot open for read: " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat: " + path);
  }
  std::string bytes(static_cast<size_t>(st.st_size), '\0');
  size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  if (got != bytes.size()) return Status::IOError("read failed: " + path);
  return bytes;
}

Status WriteAndSync(int fd, std::string_view bytes, bool sync,
                    const std::string& path) {
  const char* data = bytes.data();
  size_t n = bytes.size();
  while (n > 0) {
    const ssize_t wrote = ::write(fd, data, n);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("write failed: " + path);
    }
    data += wrote;
    n -= static_cast<size_t>(wrote);
  }
  if (sync && ::fsync(fd) != 0) return Status::IOError("fsync failed: " + path);
  return Status::OK();
}

Status WriteFileSynced(const std::string& path, std::string_view bytes) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IOError("cannot open for write: " + path);
  Status st = WriteAndSync(fd, bytes, /*sync=*/true, path);
  if (::close(fd) != 0 && st.ok()) {
    st = Status::IOError("close failed: " + path);
  }
  return st;
}

Status SyncDirectory(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open directory: " + path);
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) return Status::IOError("directory fsync failed: " + path);
  return Status::OK();
}

}  // namespace dess
