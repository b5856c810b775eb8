#include "trace/stream.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <type_traits>
#include <utility>

#include "obs/metrics.hpp"
#include "trace/binary_stream.hpp"
#include "trace/mapped_file.hpp"
#include "util/error.hpp"

namespace craysim::trace {

std::string ParseReport::summary() const {
  char buf[160];
  if (clean()) {
    std::snprintf(buf, sizeof buf, "parse: %lld records, no malformed lines",
                  static_cast<long long>(records_parsed));
  } else {
    std::snprintf(buf, sizeof buf,
                  "parse: %lld records, %lld malformed lines skipped (first: line %lld)",
                  static_cast<long long>(records_parsed), static_cast<long long>(lines_skipped),
                  static_cast<long long>(defects.empty() ? 0 : defects.front().line));
  }
  return buf;
}

void ParseReport::publish_metrics(obs::MetricsRegistry& registry,
                                  std::string_view prefix) const {
  const std::string p(prefix);
  registry.counter(p + ".records_parsed").add(records_parsed);
  registry.counter(p + ".lines_skipped").add(lines_skipped);
  registry.counter(p + ".defects_recorded").add(static_cast<std::int64_t>(defects.size()));
}

namespace {

/// Upper bound on the records in `text`, to reserve a whole trace up front:
/// one per line, and no record line is shorter than 10 bytes with its
/// newline, so a run of blank lines cannot inflate the reservation.
std::size_t record_capacity(std::string_view text) {
  const auto lines = static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
  return std::min(lines, text.size() / 10 + 1);
}

}  // namespace

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open for reading: " + path);
  std::string text;
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  if (size > 0) {
    text.resize(static_cast<std::size_t>(size));
    in.seekg(0);
    in.read(text.data(), size);
  } else {
    // Unknown or zero reported size: non-seekable input (FIFO, /dev/stdin)
    // makes the end-seek fail with tellg() == -1, and some special files
    // (/proc) report size 0 despite having content. Rewind (a no-op failure
    // on pipes, which the seek never consumes from) and read in chunks.
    in.clear();
    in.seekg(0);
    in.clear();
    char chunk[1 << 16];
    while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
      text.append(chunk, static_cast<std::size_t>(in.gcount()));
    }
  }
  if (in.bad()) throw Error("read failed: " + path);
  return text;
}

void TraceWriter::write_line(const std::string& line) {
  out_->write(line.data(), static_cast<std::streamsize>(line.size()));
  out_->put('\n');
}

void TraceWriter::write(const TraceRecord& record) {
  write_line(encoder_.encode(record));
  ++records_written_;
}

void TraceWriter::comment(std::string_view text) { write_line(encoder_.encode_comment(text)); }

std::optional<TraceRecord> TraceTextReader::next() {
  while (pos_ < text_.size()) {
    const std::size_t newline = text_.find('\n', pos_);
    const std::string_view line = newline == std::string_view::npos
                                      ? text_.substr(pos_)
                                      : text_.substr(pos_, newline - pos_);
    pos_ = newline == std::string_view::npos ? text_.size() : newline + 1;
    ++line_number_;
    try {
      if (auto record = decoder_.decode_line(line)) {
        ++report_.records_parsed;
        return record;
      }
    } catch (const TraceFormatError& e) {
      if (!recovery_) {
        // The rethrow puts the line number after e.what()'s prefix, which the
        // new error adds again.
        const std::string_view detail =
            std::string_view(e.what()).substr(TraceFormatError::kPrefix.size());
        throw TraceFormatError("line " + std::to_string(line_number_) + ": " +
                               std::string(detail));
      }
      // decode_line only commits decoder state after a full successful
      // decode, so a thrown line leaves the relative-field state at the last
      // good record and the next well-formed line resynchronizes.
      ++report_.lines_skipped;
      if (static_cast<std::int64_t>(report_.defects.size()) < ParseReport::kMaxRecordedDefects) {
        report_.defects.push_back({line_number_, e.what()});
      }
      if (recovery_->error_budget >= 0 && report_.lines_skipped > recovery_->error_budget) {
        throw FaultError("parse error budget of " + std::to_string(recovery_->error_budget) +
                         " exhausted at line " + std::to_string(line_number_) + " (" +
                         e.what() + ")");
      }
    }
  }
  return std::nullopt;
}

std::string serialize_trace(const Trace& trace, std::string_view header_comment) {
  std::ostringstream out;
  TraceWriter writer(out);
  if (!header_comment.empty()) writer.comment(header_comment);
  for (const auto& record : trace) writer.write(record);
  return out.str();
}

Trace parse_trace(std::string_view text) {
  TraceTextReader reader(text);
  Trace trace;
  trace.reserve(record_capacity(text));
  while (auto record = reader.next()) trace.push_back(*record);
  return trace;
}

RecoveredTrace parse_trace_lossy(std::string_view text, const RecoveryOptions& recovery) {
  TraceTextReader reader(text, recovery);
  RecoveredTrace result;
  result.trace.reserve(record_capacity(text));
  while (auto record = reader.next()) result.trace.push_back(*record);
  result.report = reader.report();
  return result;
}

RecoveredTrace load_trace_lossy(const std::string& path, const RecoveryOptions& recovery) {
  // Mapped path first (zero-copy parse over page-cache pages); unmappable
  // inputs (FIFO, /dev/stdin, size-0 /proc files) take the chunked read.
  if (auto mapped = MappedFile::open(path)) {
    mapped->advise_sequential();
    return parse_trace_lossy(mapped->view(), recovery);
  }
  const std::string text = read_file(path);
  return parse_trace_lossy(text, recovery);
}

void save_trace(const Trace& trace, const std::string& path, std::string_view header_comment) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open for writing: " + path);
  TraceWriter writer(out);
  if (!header_comment.empty()) writer.comment(header_comment);
  for (const auto& record : trace) writer.write(record);
  if (!out) throw Error("write failed: " + path);
}

Trace load_trace(const std::string& path) {
  if (auto mapped = MappedFile::open(path)) {
    mapped->advise_sequential();
    return parse_trace(mapped->view());
  }
  const std::string text = read_file(path);
  return parse_trace(text);
}

namespace {

// RecordSource wrappers that own what their reader reads. Member order
// matters: the reader is declared after the storage it borrows from so
// construction and destruction sequence correctly.

/// `contents` in the form `Reader` reads: text, or bytes for the binary
/// reader.
template <typename Reader>
auto input_of(std::string_view contents) {
  if constexpr (std::is_same_v<Reader, TraceTextReader>) {
    return contents;
  } else {
    return std::as_bytes(std::span(contents));
  }
}

/// A TraceTextReader or BinaryTraceReader over a mapping. Every
/// kReleaseBytes it reads, it drops the pages behind it from the resident
/// set, which therefore stays within a few MB whatever the trace size.
template <typename Reader>
class MappedSource final : public RecordSource {
 public:
  static constexpr std::size_t kReleaseBytes = std::size_t{4} << 20;

  explicit MappedSource(MappedFile mapped)
      : mapped_(std::move(mapped)), reader_(input_of<Reader>(mapped_.view())) {}
  [[nodiscard]] std::optional<TraceRecord> next() override {
    std::optional<TraceRecord> record = reader_.next();
    if (reader_.consumed() >= release_at_) {
      mapped_.release_prefix(reader_.consumed());
      release_at_ = reader_.consumed() + kReleaseBytes;
    }
    return record;
  }

 private:
  MappedFile mapped_;
  Reader reader_;
  std::size_t release_at_ = kReleaseBytes;
};

/// A TraceTextReader or BinaryTraceReader over a whole input held in memory.
template <typename Reader>
class BufferedSource final : public RecordSource {
 public:
  explicit BufferedSource(std::string contents)
      : contents_(std::move(contents)), reader_(input_of<Reader>(contents_)) {}
  [[nodiscard]] std::optional<TraceRecord> next() override { return reader_.next(); }

 private:
  std::string contents_;
  Reader reader_;
};

}  // namespace

std::unique_ptr<RecordSource> open_record_stream(const std::string& path) {
  if (auto mapped = MappedFile::open(path)) {
    mapped->advise_sequential();
    if (starts_with_binary_magic(mapped->bytes())) {
      return std::make_unique<MappedSource<BinaryTraceReader>>(std::move(*mapped));
    }
    return std::make_unique<MappedSource<TraceTextReader>>(std::move(*mapped));
  }

  // Not a mappable regular file (FIFO, /dev/stdin, size-0 special file): a
  // sniff cannot push bytes back into a pipe, so read the input whole once
  // and stream from memory.
  std::string contents = read_file(path);
  if (starts_with_binary_magic(std::string_view(contents))) {
    return std::make_unique<BufferedSource<BinaryTraceReader>>(std::move(contents));
  }
  return std::make_unique<BufferedSource<TraceTextReader>>(std::move(contents));
}

}  // namespace craysim::trace
