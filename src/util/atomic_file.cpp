#include "util/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/error.hpp"

namespace craysim::util {

namespace {

[[noreturn]] void throw_io(const std::string& path, const char* op, int err) {
  throw Error("atomic write: " + std::string(op) + " failed for " + path + ": " +
              std::strerror(err));
}

/// fsyncs the directory holding `path`, which makes a rename into it (or
/// the creation of `path`) durable.
void sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  std::string dir = ".";
  if (slash != std::string::npos) dir = slash == 0 ? "/" : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw_io(dir, "open", errno);
  // Some filesystems cannot sync a directory and say so with EINVAL; there
  // the rename is as durable as that filesystem makes it.
  if (::fsync(fd) != 0 && errno != EINVAL) {
    const int err = errno;
    ::close(fd);
    throw_io(dir, "fsync", err);
  }
  ::close(fd);
}

}  // namespace

void write_file_atomic(const std::string& path, std::string_view contents, bool sync) {
  // The temp file lives next to the destination so rename(2) cannot cross a
  // filesystem boundary; the pid suffix keeps concurrent writers (e.g. a
  // crash drill's parent and child) from clobbering each other's temp.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw_io(tmp, "open", errno);

  const char* data = contents.data();
  std::size_t remaining = contents.size();
  while (remaining > 0) {
    const ::ssize_t wrote = ::write(fd, data, remaining);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw_io(tmp, "write", err);
    }
    data += wrote;
    remaining -= static_cast<std::size_t>(wrote);
  }
  if (sync && ::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    throw_io(tmp, "fsync", err);
  }
  if (::close(fd) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw_io(tmp, "close", err);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw_io(path, "rename", err);
  }
  if (sync) sync_parent_dir(path);
}

}  // namespace craysim::util
