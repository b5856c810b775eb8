// Stream-level trace I/O: whole traces to/from iostreams or files, plus the
// record-at-a-time RecordSource interface streaming readers share.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/codec.hpp"
#include "trace/record.hpp"

namespace craysim::obs {
class MetricsRegistry;
}

namespace craysim::trace {

/// An in-memory trace: records in start-time order with absolute times.
using Trace = std::vector<TraceRecord>;

/// A pull-based stream of trace records: the common next() interface of
/// TraceTextReader, BinaryTraceReader (binary_stream.hpp), and
/// MemoryRecordSource.
/// Consumers that only need one record at a time (sim::StreamingReplaySource,
/// trace statistics over traces larger than RAM) take this instead of a
/// materialized Trace.
class RecordSource {
 public:
  virtual ~RecordSource() = default;

  /// Next record, or nullopt at end of stream.
  [[nodiscard]] virtual std::optional<TraceRecord> next() = 0;
};

/// A RecordSource over an in-memory trace shared immutably: parse once, and
/// every reader (one per sweep point, on any thread) walks its own cursor
/// over the same records without copying the vector.
class MemoryRecordSource final : public RecordSource {
 public:
  explicit MemoryRecordSource(std::shared_ptr<const Trace> trace) : trace_(std::move(trace)) {}

  [[nodiscard]] std::optional<TraceRecord> next() override {
    if (pos_ >= trace_->size()) return std::nullopt;
    return (*trace_)[pos_++];
  }

 private:
  std::shared_ptr<const Trace> trace_;
  std::size_t pos_ = 0;
};

/// Writes records (and comments) to a text stream in the wire format.
class TraceWriter {
 public:
  explicit TraceWriter(std::ostream& out) : out_(&out) {}

  void write(const TraceRecord& record);
  void comment(std::string_view text);

  [[nodiscard]] std::int64_t records_written() const { return records_written_; }

 private:
  void write_line(const std::string& line);

  std::ostream* out_;
  AsciiTraceEncoder encoder_;
  std::int64_t records_written_ = 0;
};

/// One malformed line tolerated by recoverable parsing.
struct ParseDefect {
  std::int64_t line = 0;  ///< 1-based line number in the input
  std::string message;    ///< the TraceFormatError text
};

/// Accumulated by a TraceTextReader running in recoverable mode.
struct ParseReport {
  static constexpr std::int64_t kMaxRecordedDefects = 64;

  std::int64_t records_parsed = 0;
  std::int64_t lines_skipped = 0;        ///< malformed lines tolerated
  std::vector<ParseDefect> defects;      ///< first kMaxRecordedDefects, in order

  [[nodiscard]] bool clean() const { return lines_skipped == 0; }

  /// One human-readable line for run summaries, e.g.
  /// "parse: 1200 records, 3 malformed lines skipped (first: line 17)".
  [[nodiscard]] std::string summary() const;

  /// Publishes `<prefix>.records_parsed` / `.lines_skipped` /
  /// `.defects_recorded` counters (schema pinned by tests/obs_golden_test).
  void publish_metrics(obs::MetricsRegistry& registry,
                       std::string_view prefix = "trace.parse") const;
};

/// Knobs for recoverable parsing.
struct RecoveryOptions {
  /// Malformed lines tolerated before the reader gives up with FaultError.
  /// Negative = unlimited.
  std::int64_t error_budget = 100;
};

/// Reads records straight out of in-memory trace text, skipping comments:
/// lines are walked as string_views into the caller's buffer, with no
/// per-line copy. The text must outlive the reader.
///
/// The default (strict) mode throws TraceFormatError, with the line number
/// in the message, on the first malformed line. Recoverable mode — enabled
/// by constructing with RecoveryOptions — skips malformed lines instead,
/// accumulating a ParseReport, until the error budget is exhausted (then
/// FaultError). A skipped line can strand later compression references; such
/// lines are themselves skipped and counted, so recovery resynchronizes on
/// the first line that decodes against the surviving state.
class TraceTextReader final : public RecordSource {
 public:
  explicit TraceTextReader(std::string_view text) : text_(text) {}
  TraceTextReader(std::string_view text, const RecoveryOptions& recovery)
      : text_(text), recovery_(recovery) {}

  /// Next record, or nullopt at end of text.
  [[nodiscard]] std::optional<TraceRecord> next() override;

  [[nodiscard]] std::int64_t line_number() const { return line_number_; }
  /// Bytes of the text read so far.
  [[nodiscard]] std::size_t consumed() const { return pos_; }
  [[nodiscard]] const AsciiTraceDecoder& decoder() const { return decoder_; }
  [[nodiscard]] bool recovering() const { return recovery_.has_value(); }
  /// Defect log so far (meaningful in recoverable mode only).
  [[nodiscard]] const ParseReport& report() const { return report_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  AsciiTraceDecoder decoder_;
  std::int64_t line_number_ = 0;
  std::optional<RecoveryOptions> recovery_;
  ParseReport report_;
};

/// Serializes a whole trace (optionally with a leading identification
/// comment, as the paper recommends) and returns the text.
[[nodiscard]] std::string serialize_trace(const Trace& trace, std::string_view header_comment = {});

/// Parses a whole trace from text.
[[nodiscard]] Trace parse_trace(std::string_view text);

/// A recovered trace plus the defect log describing what was skipped.
struct RecoveredTrace {
  Trace trace;
  ParseReport report;
};

/// Parses a whole trace in recoverable mode: malformed lines are skipped and
/// reported rather than fatal, until the error budget runs out (FaultError).
[[nodiscard]] RecoveredTrace parse_trace_lossy(std::string_view text,
                                               const RecoveryOptions& recovery = {});

/// File variant of parse_trace_lossy. Throws craysim::Error on I/O failure.
[[nodiscard]] RecoveredTrace load_trace_lossy(const std::string& path,
                                              const RecoveryOptions& recovery = {});

/// File variants. Throw craysim::Error on I/O failure.
///
/// load_trace (and load_trace_lossy above) route through a read-only mmap of
/// the file when possible — cold start on a multi-GB trace costs one
/// mmap(2) and the parse walks string_views over shared page-cache pages —
/// falling back to read_file below for FIFOs, /dev/stdin, and size-0 /proc
/// inputs.
void save_trace(const Trace& trace, const std::string& path,
                std::string_view header_comment = {});
[[nodiscard]] Trace load_trace(const std::string& path);

/// Reads a whole file into memory, coping with non-seekable inputs (FIFOs,
/// /dev/stdin) and special files that report size 0 (/proc) by reading in
/// chunks. It opens the file once, so a FIFO's writer is met only once.
/// The fallback for inputs that cannot be mapped; exposed for callers that
/// need the raw text. Throws craysim::Error on I/O failure.
[[nodiscard]] std::string read_file(const std::string& path);

/// Opens `path` as a record-at-a-time stream that owns what it reads. A
/// regular file is mapped and read as a framed binary trace
/// (binary_stream.hpp) if it starts with the binary magic, as text
/// otherwise; the stream drops the pages it has read a few MB at a time, so
/// its resident set stays within a few MB of the read position whatever the
/// trace size. Whatever MappedFile::open refuses (a FIFO, /dev/stdin, an
/// empty or size-0 special file) is read whole with read_file and sniffed
/// the same way. Throws craysim::Error on I/O failure, TraceFormatError on a
/// bad binary frame header.
[[nodiscard]] std::unique_ptr<RecordSource> open_record_stream(const std::string& path);

}  // namespace craysim::trace
