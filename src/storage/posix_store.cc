#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "storage/storage.h"
#include "util/macros.h"
#include "util/string_util.h"

namespace dl::storage {

namespace fs = std::filesystem;

namespace {

/// Maps an `fopen`-style errno to a Status. Only a genuinely missing path
/// is NotFound; everything else (EACCES, EMFILE, EIO, EISDIR, ...) is an
/// environment problem reported as IOError — which Status::IsRetryable
/// classifies as transient, so a RetryingStore re-attempts it instead of
/// callers treating a momentary fd-limit or I/O hiccup as "no such object".
Status ErrnoStatus(int err, const std::string& context) {
  std::string msg = context + ": " + std::strerror(err);
  if (err == ENOENT || err == ENOTDIR) return Status::NotFound(std::move(msg));
  return Status::IOError(std::move(msg));
}

/// `fopen(dir, "rb")` succeeds on Linux and fseek/ftell then report a
/// garbage size — reject non-regular-file paths up front instead.
Status CheckRegularFile(const std::string& path) {
  std::error_code ec;
  fs::file_status st = fs::status(path, ec);
  if (ec) return ErrnoStatus(ec.value(), "posix: cannot stat '" + path + "'");
  if (!fs::exists(st)) {
    return Status::NotFound("posix: no file '" + path + "'");
  }
  if (!fs::is_regular_file(st)) {
    return Status::IOError("posix: not a regular file '" + path + "'");
  }
  return Status::OK();
}

/// Syncs the directory containing `path` so a just-renamed entry survives a
/// crash (rename alone only orders the metadata in memory). Best effort:
/// some filesystems reject O_DIRECTORY fsync; the file data itself was
/// already fsync'd.
void SyncParentDir(const std::string& path) {
  std::string dir = fs::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::fsync(fd);
  (void)::close(fd);
}

/// Monotonic suffix so concurrent writers to the same key never share a
/// temp file (the losing rename simply overwrites, which is fine — both
/// writers hold complete values).
std::string NextTempSuffix() {
  static std::atomic<uint64_t> counter{0};
  return ".dltmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

PosixStore::PosixStore(std::string root) : root_(std::move(root)) {
  std::error_code ec;
  fs::create_directories(root_, ec);
}

std::string PosixStore::FilePath(std::string_view key) const {
  return PathJoin(root_, key);
}

Result<Slice> PosixStore::Get(std::string_view key) {
  std::string path = FilePath(key);
  DL_RETURN_IF_ERROR(CheckRegularFile(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return ErrnoStatus(errno, "posix: cannot open '" + path + "'");
  }
  long size = -1;
  if (std::fseek(f, 0, SEEK_END) == 0) size = std::ftell(f);
  if (size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    std::fclose(f);
    return Status::IOError("posix: cannot size '" + path + "'");
  }
  ByteBuffer buf(static_cast<size_t>(size));
  size_t n = size > 0 ? std::fread(buf.data(), 1, buf.size(), f) : 0;
  std::fclose(f);
  if (n != buf.size()) {
    return Status::IOError("posix: short read on '" + path + "'");
  }
  return Slice(std::move(buf));  // adopts the allocation, no copy
}

Result<Slice> PosixStore::GetRange(std::string_view key, uint64_t offset,
                                   uint64_t length) {
  std::string path = FilePath(key);
  DL_RETURN_IF_ERROR(CheckRegularFile(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return ErrnoStatus(errno, "posix: cannot open '" + path + "'");
  }
  long end = -1;
  if (std::fseek(f, 0, SEEK_END) == 0) end = std::ftell(f);
  if (end < 0) {
    std::fclose(f);
    return Status::IOError("posix: cannot size '" + path + "'");
  }
  uint64_t size = static_cast<uint64_t>(end);
  if (offset > size) {
    std::fclose(f);
    return Status::OutOfRange("posix: range start past file end");
  }
  uint64_t len = std::min<uint64_t>(length, size - offset);
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) {
    std::fclose(f);
    return Status::IOError("posix: cannot seek in '" + path + "'");
  }
  ByteBuffer buf(static_cast<size_t>(len));
  size_t n = len > 0 ? std::fread(buf.data(), 1, buf.size(), f) : 0;
  std::fclose(f);
  if (n != buf.size()) {
    return Status::IOError("posix: short range read on '" + path + "'");
  }
  return Slice(std::move(buf));
}

Status PosixStore::WriteAtomic(std::string_view key, ByteView value,
                               bool sync) {
  std::string path = FilePath(key);
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  // Write-to-temp + rename: a reader (or a crash) never observes a partial
  // object under the final name — rename(2) is atomic within a filesystem.
  std::string tmp = path + NextTempSuffix();
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("posix: cannot create '" + tmp +
                           "': " + std::strerror(errno));
  }
  size_t n = value.size() > 0 ? std::fwrite(value.data(), 1, value.size(), f)
                              : 0;
  bool write_ok = n == value.size();
  if (write_ok && sync) {
    write_ok = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  }
  // fclose can surface the real write error (delayed ENOSPC/EIO from
  // buffered data) — ignoring it turns a failed write into silent success.
  if (std::fclose(f) != 0) write_ok = false;
  if (!write_ok) {
    int err = errno;
    fs::remove(tmp, ec);
    return Status::IOError("posix: write failed on '" + tmp +
                           "': " + std::strerror(err));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    int err = errno;
    fs::remove(tmp, ec);
    return Status::IOError("posix: cannot rename '" + tmp + "' -> '" + path +
                           "': " + std::strerror(err));
  }
  if (sync) SyncParentDir(path);
  return Status::OK();
}

Status PosixStore::Put(std::string_view key, ByteView value) {
  return WriteAtomic(key, value, /*sync=*/false);
}

Status PosixStore::PutDurable(std::string_view key, ByteView value) {
  return WriteAtomic(key, value, /*sync=*/true);
}

Status PosixStore::Delete(std::string_view key) {
  std::string path = FilePath(key);
  std::error_code ec;
  fs::remove(path, ec);
  // Deleting an absent key is success (idempotent); any other failure —
  // permission, EISDIR on a non-empty directory — must not be swallowed.
  if (ec && ec != std::errc::no_such_file_or_directory &&
      ec != std::errc::not_a_directory) {
    return Status::IOError("posix: cannot delete '" + path +
                           "': " + ec.message());
  }
  return Status::OK();
}

Result<bool> PosixStore::Exists(std::string_view key) {
  std::error_code ec;
  return fs::is_regular_file(FilePath(key), ec);
}

Result<uint64_t> PosixStore::SizeOf(std::string_view key) {
  std::error_code ec;
  uint64_t size = fs::file_size(FilePath(key), ec);
  if (ec) {
    if (ec == std::errc::no_such_file_or_directory ||
        ec == std::errc::not_a_directory) {
      return Status::NotFound("posix: no file '" + FilePath(key) + "'");
    }
    return Status::IOError("posix: cannot stat '" + FilePath(key) +
                           "': " + ec.message());
  }
  return size;
}

Result<std::vector<std::string>> PosixStore::ListPrefix(
    std::string_view prefix) {
  std::vector<std::string> keys;
  std::error_code ec;
  fs::recursive_directory_iterator it(root_, ec);
  if (ec) return keys;
  for (const auto& entry : it) {
    if (!entry.is_regular_file()) continue;
    std::string rel =
        fs::relative(entry.path(), root_).generic_string();
    if (StartsWith(rel, prefix)) keys.push_back(rel);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace dl::storage
