#include "src/storage/io_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace gqlite {

namespace {

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::Internal(what + " " + path + ": " + std::strerror(errno));
}

/// Directory of `path` ("." when it has no slash).
std::string ParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// fsync on a directory makes preceding renames/unlinks in it durable.
Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open dir", dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoStatus("fsync dir", dir);
  return Status::OK();
}

}  // namespace

Status EnsureDirectory(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("empty directory path");
  // Walk the components, creating each missing prefix.
  for (size_t i = 1; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') continue;
    std::string prefix = path.substr(0, i);
    if (::mkdir(prefix.c_str(), 0755) == 0 || errno == EEXIST) continue;
    return ErrnoStatus("mkdir", prefix);
  }
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument("not a directory: " + path);
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return ErrnoStatus("open", path);
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return ErrnoStatus("read", path);
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

namespace {

Status WriteAll(int fd, std::string_view data, const std::string& path) {
  while (!data.empty()) {
    ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", path);
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

}  // namespace

Status AtomicWriteFile(const std::string& path, std::string_view data) {
  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("open", tmp);
  Status st = WriteAll(fd, data, tmp);
  if (st.ok() && ::fsync(fd) != 0) st = ErrnoStatus("fsync", tmp);
  ::close(fd);
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status err = ErrnoStatus("rename", tmp);
    ::unlink(tmp.c_str());
    return err;
  }
  return SyncDir(ParentDir(path));
}

Result<std::unique_ptr<AppendFile>> AppendFile::Open(const std::string& path) {
  int fd =
      ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status err = ErrnoStatus("fstat", path);
    ::close(fd);
    return err;
  }
  return std::unique_ptr<AppendFile>(
      new AppendFile(fd, static_cast<uint64_t>(st.st_size), path));
}

AppendFile::~AppendFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status AppendFile::Append(std::string_view data) {
  GQL_RETURN_IF_ERROR(WriteAll(fd_, data, path_));
  size_ += data.size();
  return Status::OK();
}

Status AppendFile::Sync() {
  if (::fdatasync(fd_) != 0) return ErrnoStatus("fdatasync", path_);
  return Status::OK();
}

Status AppendFile::TruncateTo(uint64_t new_size) {
  if (::ftruncate(fd_, static_cast<off_t>(new_size)) != 0) {
    return ErrnoStatus("ftruncate", path_);
  }
  size_ = new_size;
  return Sync();
}

}  // namespace gqlite
