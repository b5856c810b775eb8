// ASCII encoding/decoding of trace records with the appendix's relative-field
// compression.
//
// Wire format: one record per line, space-separated variable-length decimal
// integers, fields in declaration order (recordType, compression, [offset],
// [length], startTime, completionTime, [operationId], [fileId], [processId],
// processTime). Compression flags in the second field say which bracketed
// fields are omitted and how to reconstruct them:
//   - processId:  previous record in the trace
//   - fileId:     previous record by this process
//   - operationId previous record of this file
//   - offset:     sequential with previous access to this file
//   - length:     previous record of this file
// Time fields are always present and always deltas: startTime is relative to
// the previous record's start, completionTime is the duration of this I/O,
// processTime is process CPU time since the process's previous I/O. All in
// 10 us ticks. Comment records are encoded as "255 <free text>".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "trace/record.hpp"

namespace craysim::trace {

/// The relative-field state the compression flags refer back to, kept the
/// same way by encoder and decoder: the previous record's start time and
/// process, each process's last file, and per (process, file) the next
/// sequential offset, last length and last operation id.
///
/// The previous process's last file is kept beside the map, and commit()
/// reuses the entry file() found, so a record by the previous record's
/// process, to a file it has used before, costs one hash lookup.
class CompressionState {
 public:
  struct File {
    Bytes next_sequential_offset = 0;
    Bytes last_length = -1;
    std::uint32_t last_operation_id = 0;
    bool has_operation = false;
  };

  /// False until the first record is committed.
  [[nodiscard]] bool has_previous() const { return has_previous_; }
  [[nodiscard]] Ticks previous_start() const { return previous_start_; }
  [[nodiscard]] std::uint32_t previous_process() const { return previous_process_; }

  /// The file of `pid`'s last record, or null if `pid` has none.
  [[nodiscard]] const std::uint32_t* last_file_of(std::uint32_t pid) const;

  /// The state of `file_id` as opened by `pid`, or null before its first
  /// record.
  [[nodiscard]] File* file(std::uint32_t pid, std::uint32_t file_id);

  /// How an encoder writes a record against this state: its compression
  /// flags, the offset and length it stores (in 512-byte blocks where the
  /// flags say so), its start-time delta, and what file() returned for it.
  struct Choice {
    std::uint16_t compression = 0;
    Bytes offset = 0;
    Bytes length = 0;
    Ticks start_delta;
    File* file = nullptr;
  };

  /// The tightest compression this state permits for `record`. Throws
  /// TraceFormatError when `record` starts before the previous record.
  [[nodiscard]] Choice choose(const TraceRecord& record);

  /// Makes `record` the previous record. `state` is what file() returned for
  /// its process and file; null creates the entry.
  void commit(const TraceRecord& record, File* state);

  void reset();

 private:
  bool has_previous_ = false;
  Ticks previous_start_;
  std::uint32_t previous_process_ = 0;
  std::uint32_t previous_file_ = 0;
  /// Exact for every process but the previous one, whose last file is
  /// previous_file_; commit() writes it back when the process changes.
  std::unordered_map<std::uint32_t, std::uint32_t> last_file_by_process_;
  std::unordered_map<std::uint64_t, File> files_;  // key: pid<<32|fileId
};

/// Stateful encoder: feed records carrying ABSOLUTE start times; emits
/// compressed wire lines. The same instance must encode an entire trace in
/// order, since compression is relative to earlier records.
class AsciiTraceEncoder {
 public:
  /// Encodes one record to a wire line (no trailing newline). Chooses the
  /// tightest compression the decoder state permits. Throws TraceFormatError
  /// on invalid records or non-monotonic start times.
  [[nodiscard]] std::string encode(const TraceRecord& record);

  /// Encodes a TRACE_COMMENT record carrying free text (newlines stripped).
  [[nodiscard]] std::string encode_comment(std::string_view text) const;

  /// Forgets all relative-field state (e.g. between independent traces).
  void reset() { state_.reset(); }

 private:
  CompressionState state_;
};

/// Stateful decoder: feed wire lines in order; produces records with
/// ABSOLUTE start times reconstructed. Mirrors the encoder's state machine.
class AsciiTraceDecoder {
 public:
  /// Decodes one line in a single left-to-right scan that never reads past
  /// the line's last byte. Returns nullopt for comments and blank lines (the
  /// comment text is retrievable via last_comment()). Throws
  /// TraceFormatError when a compression flag references missing state or
  /// the line is malformed; state changes only when a line decodes.
  [[nodiscard]] std::optional<TraceRecord> decode_line(std::string_view line);

  /// Text of the most recent comment record (empty if none seen yet).
  [[nodiscard]] const std::string& last_comment() const { return last_comment_; }

  /// Count of comment records seen.
  [[nodiscard]] std::int64_t comment_count() const { return comment_count_; }

  void reset();

 private:
  CompressionState state_;
  std::string last_comment_;
  std::int64_t comment_count_ = 0;
};

}  // namespace craysim::trace
