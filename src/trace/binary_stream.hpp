// Streaming (record-at-a-time) binary trace I/O.
//
// The whole-trace codec in binary.hpp encodes/decodes one std::vector at a
// time — cold-start cost and peak RSS both scale with trace size. This
// module provides the same compressed fixed-width record format behind a
// framed, incremental interface:
//
//   frame header   4-byte magic, u16 version, u16 flags (reserved, zero)
//   record stream  exactly the bytes encode_binary() would produce
//
// BinaryRecordEncoder/BinaryRecordDecoder are the per-record state machines
// both layers share, so the streamed payload is byte-identical to the
// whole-trace codec by construction: what a BinaryTraceWriter writes for a
// trace is the frame header + encode_binary(trace), bit for bit.
//
// BinaryTraceWriter writes records one at a time to a stream, and
// BinaryTraceReader reads them one at a time from a byte span (a mapped
// file, say) behind the same next() interface (RecordSource) as
// TraceTextReader, so simulation can replay a multi-GB binary trace without
// ever materializing the record vector (sim::StreamingReplaySource).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "trace/codec.hpp"
#include "trace/record.hpp"
#include "trace/stream.hpp"

namespace craysim::trace {

/// First bytes of a framed binary trace. The leading byte is deliberately
/// non-ASCII: no text trace line can start with it, so format sniffing needs
/// only one byte.
inline constexpr std::array<std::byte, 4> kBinaryTraceMagic = {
    std::byte{0xCB}, std::byte{'T'}, std::byte{'R'}, std::byte{'C'}};
inline constexpr std::uint16_t kBinaryTraceVersion = 1;
inline constexpr std::size_t kBinaryFrameHeaderBytes = 8;

/// True when `data` begins with the framed-trace magic.
[[nodiscard]] bool starts_with_binary_magic(std::span<const std::byte> data);
[[nodiscard]] bool starts_with_binary_magic(std::string_view text);

/// Stateful record-at-a-time encoder for the compressed fixed-width format.
/// Feeding it an entire trace in order appends exactly the bytes
/// encode_binary() returns. Comments are dropped (binary dumps carried
/// none). Throws TraceFormatError on invalid records, non-monotonic start
/// times, or fields that overflow their fixed width.
class BinaryRecordEncoder {
 public:
  /// Appends one record's wire bytes to `out`. Returns false (and appends
  /// nothing) for comment records.
  bool encode_to(const TraceRecord& record, std::vector<std::byte>& out);

  /// Forgets all relative-field state (e.g. between independent traces).
  void reset() { state_.reset(); }

 private:
  CompressionState state_;
};

/// Stateful record-at-a-time decoder mirroring BinaryRecordEncoder. Feeding
/// it encode_binary() output record by record reproduces decode_binary()
/// exactly.
class BinaryRecordDecoder {
 public:
  /// Decoded record plus the bytes it occupied on the wire.
  struct Decoded {
    TraceRecord record;
    std::size_t consumed = 0;
  };

  /// Decodes the record starting at data[0]. Throws TraceFormatError when
  /// the data ends mid-record ("binary trace truncated") or a compression
  /// flag references state no prior record established.
  [[nodiscard]] Decoded decode(std::span<const std::byte> data);

  /// Forgets all relative-field state: the next record's start time reads
  /// as absolute, and a field it leaves out fails to resolve.
  void reset() { state_.reset(); }

 private:
  CompressionState state_;
};

/// Writes a framed binary trace one record at a time. The frame header goes
/// out in the constructor; each write() appends one record's bytes. Memory
/// use is one small scratch buffer regardless of trace length.
class BinaryTraceWriter {
 public:
  /// Emits the frame header. Throws Error when the stream is bad.
  explicit BinaryTraceWriter(std::ostream& out);

  /// Encodes and writes one record (comments are dropped, matching
  /// encode_binary). Throws TraceFormatError on invalid input, Error when
  /// the stream write fails.
  void write(const TraceRecord& record);

  [[nodiscard]] std::int64_t records_written() const { return records_written_; }

 private:
  std::ostream* out_;
  BinaryRecordEncoder encoder_;
  std::vector<std::byte> scratch_;
  std::int64_t records_written_ = 0;
};

/// Reads a framed binary trace one record at a time, zero-copy, from a byte
/// span (e.g. MappedFile::bytes()) behind the RecordSource next()
/// interface. Validates the frame header eagerly in the constructor and
/// throws TraceFormatError on bad magic/version or truncation mid-record.
class BinaryTraceReader final : public RecordSource {
 public:
  explicit BinaryTraceReader(std::span<const std::byte> data);

  /// Next record, or nullopt at a clean end of stream.
  [[nodiscard]] std::optional<TraceRecord> next() override;

  [[nodiscard]] std::int64_t records_read() const { return records_read_; }
  /// Bytes of the span decoded so far, header included.
  [[nodiscard]] std::size_t consumed() const { return pos_; }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = kBinaryFrameHeaderBytes;
  BinaryRecordDecoder decoder_;
  std::int64_t records_read_ = 0;
};

/// Writes `trace` to `path` as a framed binary stream (header + the exact
/// encode_binary payload). Throws Error on I/O failure.
void save_trace_binary(const Trace& trace, const std::string& path);

/// Loads a framed binary trace from `path`: mmap when possible, chunked
/// read otherwise. Throws Error on I/O failure, TraceFormatError on bad
/// frames.
[[nodiscard]] Trace load_trace_binary(const std::string& path);

}  // namespace craysim::trace
