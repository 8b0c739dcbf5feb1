#ifndef GQLITE_STORAGE_IO_FILE_H_
#define GQLITE_STORAGE_IO_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/common/status.h"

namespace gqlite {

/// POSIX file primitives with the durability discipline the WAL and
/// checkpoint writers rely on. Everything here reports failures as
/// Status — the storage layer treats any IO error as "the commit is not
/// durable" and surfaces it to the caller instead of pretending.

/// Creates `path` (and missing parents) as a directory; ok if it
/// already exists as one.
Status EnsureDirectory(const std::string& path);

/// Whole-file read. NotFound when the file does not exist.
Result<std::string> ReadFileToString(const std::string& path);

/// Crash-atomic replace: writes `data` to `path + ".tmp"`, fsyncs it,
/// renames over `path`, then fsyncs the parent directory so the rename
/// itself is durable. After a crash the file holds either the old or
/// the new contents, never a mix.
Status AtomicWriteFile(const std::string& path, std::string_view data);

/// An append-only file handle with an explicitly tracked end offset —
/// the WAL's backing file. Opening an existing file resumes at its
/// current size.
class AppendFile {
 public:
  static Result<std::unique_ptr<AppendFile>> Open(const std::string& path);
  ~AppendFile();
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Bytes in the file (tracked; equals the on-disk size while this
  /// handle is the only writer, which the engine's single-writer
  /// transaction slot guarantees).
  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// Appends all of `data` at the end (retrying short writes).
  Status Append(std::string_view data);
  /// Flushes file data to stable storage (fdatasync).
  Status Sync();
  /// Shrinks the file to `new_size` bytes and syncs the truncation.
  Status TruncateTo(uint64_t new_size);

 private:
  AppendFile(int fd, uint64_t size, std::string path)
      : fd_(fd), size_(size), path_(std::move(path)) {}

  int fd_ = -1;
  uint64_t size_ = 0;
  std::string path_;
};

}  // namespace gqlite

#endif  // GQLITE_STORAGE_IO_FILE_H_
