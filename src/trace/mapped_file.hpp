// Read-only memory-mapped files for zero-copy trace ingestion.
//
// A multi-gigabyte text trace costs one mmap(2) instead of a full read into
// a heap string: cold start is near-free (pages fault in lazily, the parse
// walks string_views straight over the mapping) and concurrent readers —
// e.g. runner workers replaying shards of one trace — share the OS page
// cache instead of holding per-worker heap copies.
//
// Mapping only works for regular files with a real size. FIFOs, /dev/stdin,
// and /proc entries that report size 0 cannot be mapped; callers fall back
// to the chunked read path (see stream.cpp read_file), which is why
// MappedFile::open returns nullopt instead of throwing for those.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace craysim::trace {

/// An immutable byte range backed by a private read-only mmap. Movable, not
/// copyable; the mapping is released on destruction. The view stays valid
/// for the lifetime of the object (share it with std::shared_ptr to fan one
/// mapping out across threads).
class MappedFile {
 public:
  /// Maps `path` read-only. Returns nullopt when the file cannot be mapped
  /// — it does not exist, is not a regular file (FIFO, device), reports
  /// size 0 (empty, or a /proc pseudo-file), or mmap itself fails. Callers
  /// are expected to fall back to streamed reads; this function never
  /// throws.
  [[nodiscard]] static std::optional<MappedFile> open(const std::string& path);

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  /// The file contents as text. Valid while this object lives.
  [[nodiscard]] std::string_view view() const {
    return {static_cast<const char*>(data_), size_};
  }

  /// The file contents as bytes (for the binary codec).
  [[nodiscard]] std::span<const std::byte> bytes() const {
    return {static_cast<const std::byte*>(data_), size_};
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Hints the kernel that the mapping will be read front to back
  /// (readahead up, page retention down). Advisory; errors are ignored.
  void advise_sequential() const;

  /// Drops the pages that lie wholly inside the first `bytes` bytes, and
  /// that no earlier call dropped, from this process's resident set
  /// (madvise MADV_DONTNEED). The mapping is private and read-only, so a
  /// dropped page that is read again faults back in from the file,
  /// unchanged; the view stays valid. Advisory; errors are ignored.
  void release_prefix(std::size_t bytes);

 private:
  MappedFile(void* data, std::size_t size) : data_(data), size_(size) {}

  void* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t released_ = 0;  ///< page-aligned prefix already dropped
};

}  // namespace craysim::trace
