#include "trace/mapped_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

namespace craysim::trace {

std::optional<MappedFile> MappedFile::open(const std::string& path) {
  // Gate on stat() BEFORE opening: open(2) on a FIFO blocks until a writer
  // appears (and would consume the reader/writer rendezvous the fallback
  // path needs), so non-regular files must be rejected without ever opening
  // them. Zero-size reports (/proc, empty files) also take the chunked read.
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode) || st.st_size <= 0) {
    return std::nullopt;
  }

  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;

  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode) || st.st_size <= 0) {
    ::close(fd);  // replaced between stat and open; fall back
    return std::nullopt;
  }

  const auto size = static_cast<std::size_t>(st.st_size);
  void* data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference to the file
  if (data == MAP_FAILED) return std::nullopt;
  return MappedFile(data, size);
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      released_(std::exchange(other.released_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    released_ = std::exchange(other.released_, 0);
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

void MappedFile::advise_sequential() const {
  if (data_ != nullptr) (void)::madvise(data_, size_, MADV_SEQUENTIAL);
}

void MappedFile::release_prefix(std::size_t bytes) {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t end = std::min(bytes, size_) / page * page;
  if (data_ == nullptr || end <= released_) return;
  (void)::madvise(static_cast<char*>(data_) + released_, end - released_, MADV_DONTNEED);
  released_ = end;
}

}  // namespace craysim::trace
