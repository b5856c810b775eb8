#include "trace/stream.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
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

/// One line under the shared strict/recoverable decode policy (both readers
/// funnel through here so their semantics cannot drift apart). Returns the
/// record, or nullopt for comments/blank/skipped lines.
std::optional<TraceRecord> decode_with_policy(AsciiTraceDecoder& decoder, std::string_view line,
                                              std::int64_t line_number,
                                              const std::optional<RecoveryOptions>& recovery,
                                              ParseReport& report) {
  try {
    if (auto record = decoder.decode_line(line)) {
      ++report.records_parsed;
      return record;
    }
  } catch (const TraceFormatError& e) {
    if (!recovery) {
      // The rethrow puts the line number after e.what()'s prefix, which the
      // new error adds again.
      const std::string_view detail =
          std::string_view(e.what()).substr(TraceFormatError::kPrefix.size());
      throw TraceFormatError("line " + std::to_string(line_number) + ": " + std::string(detail));
    }
    // decode_line only commits decoder state after a full successful decode,
    // so a thrown line leaves the relative-field state at the last good
    // record and the next well-formed line resynchronizes.
    ++report.lines_skipped;
    if (static_cast<std::int64_t>(report.defects.size()) < ParseReport::kMaxRecordedDefects) {
      report.defects.push_back({line_number, e.what()});
    }
    if (recovery->error_budget >= 0 && report.lines_skipped > recovery->error_budget) {
      throw FaultError("parse error budget of " + std::to_string(recovery->error_budget) +
                       " exhausted at line " + std::to_string(line_number) + " (" + e.what() +
                       ")");
    }
  }
  return std::nullopt;
}

/// The chunked tail of read_file, shared with open_record_stream so the
/// non-seekable fallback there never has to reopen a FIFO (a second open
/// could block forever once the writer is gone).
void append_chunked(std::istream& in, std::string& text) {
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
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
    append_chunked(in, text);
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

std::optional<TraceRecord> TraceReader::next() {
  while (std::getline(*in_, line_)) {
    ++line_number_;
    if (auto record = decode_with_policy(decoder_, line_, line_number_, recovery_, report_)) {
      return record;
    }
  }
  return std::nullopt;
}

std::optional<TraceRecord> TraceTextReader::next() {
  while (pos_ < text_.size()) {
    const std::size_t newline = text_.find('\n', pos_);
    const std::string_view line = newline == std::string_view::npos
                                      ? text_.substr(pos_)
                                      : text_.substr(pos_, newline - pos_);
    pos_ = newline == std::string_view::npos ? text_.size() : newline + 1;
    ++line_number_;
    if (auto record = decode_with_policy(decoder_, line, line_number_, recovery_, report_)) {
      return record;
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

Trace load_trace(const std::string& path) { return load_trace_mapped(path); }

Trace load_trace_mapped(const std::string& path) {
  if (auto mapped = MappedFile::open(path)) {
    mapped->advise_sequential();
    return parse_trace(mapped->view());
  }
  const std::string text = read_file(path);
  return parse_trace(text);
}

namespace {

// RecordSource wrappers that own their backing storage (mapping, stream, or
// buffer). Member order matters: the reader is declared after the storage it
// borrows from so construction and destruction sequence correctly.

/// A TraceTextReader or BinaryTraceReader over a mapping. Every
/// kReleaseBytes it reads, it drops the pages behind it from the resident
/// set, which therefore stays within a few MB whatever the trace size.
template <typename Reader>
class MappedSource final : public RecordSource {
 public:
  static constexpr std::size_t kReleaseBytes = std::size_t{4} << 20;

  explicit MappedSource(MappedFile mapped)
      : mapped_(std::move(mapped)), reader_(contents(mapped_)) {}
  [[nodiscard]] std::optional<TraceRecord> next() override {
    std::optional<TraceRecord> record = reader_.next();
    if (reader_.consumed() >= release_at_) {
      mapped_.release_prefix(reader_.consumed());
      release_at_ = reader_.consumed() + kReleaseBytes;
    }
    return record;
  }

 private:
  static auto contents(const MappedFile& mapped) {
    if constexpr (std::is_same_v<Reader, TraceTextReader>) {
      return mapped.view();
    } else {
      return mapped.bytes();
    }
  }

  MappedFile mapped_;
  Reader reader_;
  std::size_t release_at_ = kReleaseBytes;
};

class FileTextSource final : public RecordSource {
 public:
  explicit FileTextSource(std::unique_ptr<std::ifstream> in)
      : in_(std::move(in)), reader_(*in_) {}
  [[nodiscard]] std::optional<TraceRecord> next() override { return reader_.next(); }

 private:
  std::unique_ptr<std::ifstream> in_;
  TraceReader reader_;
};

class FileBinarySource final : public RecordSource {
 public:
  explicit FileBinarySource(std::unique_ptr<std::ifstream> in)
      : in_(std::move(in)), reader_(*in_) {}
  [[nodiscard]] std::optional<TraceRecord> next() override { return reader_.next(); }

 private:
  std::unique_ptr<std::ifstream> in_;
  BinaryTraceReader reader_;
};

class BufferedTextSource final : public RecordSource {
 public:
  explicit BufferedTextSource(std::string text)
      : text_(std::move(text)), reader_(text_) {}
  [[nodiscard]] std::optional<TraceRecord> next() override { return reader_.next(); }

 private:
  std::string text_;
  TraceTextReader reader_;
};

class BufferedBinarySource final : public RecordSource {
 public:
  explicit BufferedBinarySource(std::string bytes)
      : bytes_(std::move(bytes)),
        reader_(std::span(reinterpret_cast<const std::byte*>(bytes_.data()), bytes_.size())) {}
  [[nodiscard]] std::optional<TraceRecord> next() override { return reader_.next(); }

 private:
  std::string bytes_;
  BinaryTraceReader reader_;
};

}  // namespace

std::unique_ptr<RecordSource> open_record_stream(const std::string& path,
                                                 const StreamOptions& options) {
  TraceFormat format = options.format;

  if (options.prefer_mmap) {
    if (auto mapped = MappedFile::open(path)) {
      mapped->advise_sequential();
      if (format == TraceFormat::kAuto) {
        format = starts_with_binary_magic(mapped->bytes()) ? TraceFormat::kBinary
                                                           : TraceFormat::kText;
      }
      if (format == TraceFormat::kBinary) {
        return std::make_unique<MappedSource<BinaryTraceReader>>(std::move(*mapped));
      }
      return std::make_unique<MappedSource<TraceTextReader>>(std::move(*mapped));
    }
  }

  auto in = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*in) throw Error("cannot open for reading: " + path);
  in->seekg(0, std::ios::end);
  const auto size = in->tellg();
  if (size > 0) {
    // Seekable: sniff one byte (the binary magic's lead byte is non-ASCII,
    // so no text trace can collide), rewind, and stream through a bounded
    // buffer — peak memory stays independent of trace size.
    in->seekg(0);
    if (format == TraceFormat::kAuto) {
      char head = 0;
      in->read(&head, 1);
      const bool binary =
          in->gcount() == 1 && static_cast<std::byte>(head) == kBinaryTraceMagic[0];
      format = binary ? TraceFormat::kBinary : TraceFormat::kText;
      in->clear();
      in->seekg(0);
    }
    if (format == TraceFormat::kBinary) {
      return std::make_unique<FileBinarySource>(std::move(in));
    }
    return std::make_unique<FileTextSource>(std::move(in));
  }

  // Non-seekable (FIFO, /dev/stdin) or size-0 special file: a sniff cannot
  // push bytes back, so buffer the whole input once and stream from memory.
  in->clear();
  in->seekg(0);
  in->clear();
  std::string text;
  append_chunked(*in, text);
  if (in->bad()) throw Error("read failed: " + path);
  if (format == TraceFormat::kAuto) {
    format = starts_with_binary_magic(std::string_view(text)) ? TraceFormat::kBinary
                                                              : TraceFormat::kText;
  }
  if (format == TraceFormat::kBinary) {
    return std::make_unique<BufferedBinarySource>(std::move(text));
  }
  return std::make_unique<BufferedTextSource>(std::move(text));
}

}  // namespace craysim::trace
