#include "runner/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string_view>
#include <utility>

#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/text.hpp"

namespace craysim::runner {

namespace {

std::string hex_u64(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(value));
  return buf;
}

/// True for the bytes a JSON string cannot hold raw.
constexpr bool needs_escape(char c) {
  return static_cast<unsigned char>(c) < 0x20 || c == '"' || c == '\\';
}

/// Offset of the first byte at or after `at` in `text` that needs_escape(),
/// or text.size(). Payloads are mostly plain bytes, so it tests eight at a
/// time. A byte of v below n (n <= 0x80) borrows in v - 0x0101..01 * n and
/// sets its high bit there, where v's is clear; a quote or a backslash is a
/// zero byte, one below 1, of v xor that byte repeated.
std::size_t next_escape(std::string_view text, std::size_t at) {
  constexpr std::uint64_t kOnes = 0x0101010101010101u;
  constexpr std::uint64_t kHighs = 0x8080808080808080u;
  for (; text.size() - at >= sizeof(std::uint64_t); at += sizeof(std::uint64_t)) {
    std::uint64_t word = 0;
    std::memcpy(&word, text.data() + at, sizeof word);
    const std::uint64_t quote = word ^ (kOnes * '"');
    const std::uint64_t backslash = word ^ (kOnes * '\\');
    if ((((word - kOnes * 0x20) & ~word) | ((quote - kOnes) & ~quote) |
         ((backslash - kOnes) & ~backslash)) & kHighs) {
      break;
    }
  }
  while (at < text.size() && !needs_escape(text[at])) ++at;
  return at;
}

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  std::size_t run = 0;  // start of the bytes not yet copied to `out`
  for (std::size_t i = next_escape(text, 0); i < text.size(); i = next_escape(text, i + 1)) {
    const auto c = static_cast<unsigned char>(text[i]);
    out.append(text, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(text, run, text.size() - run);
  out += '"';
}

[[noreturn]] void bad_journal(const std::string& path, std::size_t lineno,
                              const std::string& why) {
  throw Error("journal: " + path + ":" + std::to_string(lineno) + ": " + why);
}

[[noreturn]] void io_failure(const std::string& path, const char* op, int err) {
  throw Error("journal: " + path + ": " + op + " failed: " + std::strerror(err));
}

void write_all(int fd, std::string_view data, const std::string& path) {
  while (!data.empty()) {
    const ::ssize_t wrote = ::write(fd, data.data(), data.size());
    if (wrote < 0) {
      if (errno == EINTR) continue;
      io_failure(path, "write", errno);
    }
    data.remove_prefix(static_cast<std::size_t>(wrote));
  }
}

/// Every canonical record line starts with this. A frame cannot, even with
/// its marker damaged: its CRC digits follow the marker.
constexpr std::string_view kRecordPrefix = "{\"index\":";
constexpr char kFrameMarker = '#';
constexpr std::size_t kCrcDigits = 8;
/// Bytes of a record line besides its payload or error text (keys, index,
/// digest, counts), with room for escapes: sizes compaction's buffer.
constexpr std::size_t kRecordOverhead = 160;

/// CRC-32 with zlib's polynomial (reflected 0xEDB88320), so tools can check
/// a frame with zlib.crc32.
constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[n] = c;
  }
  return table;
}
constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

std::uint32_t crc32(std::string_view bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char b : bytes) c = kCrcTable[(c ^ static_cast<unsigned char>(b)) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

/// Writes `value` as 8 lowercase hex digits at `out`.
void put_hex32(char* out, std::uint32_t value) {
  constexpr char kDigits[] = "0123456789abcdef";
  for (std::size_t i = kCrcDigits; i-- > 0; value >>= 4) out[i] = kDigits[value & 0xFu];
}

/// The record line inside `line` when it is a frame whose CRC matches.
std::optional<std::string_view> frame_record(std::string_view line) {
  if (line.size() <= 1 + kCrcDigits || line[0] != kFrameMarker) return std::nullopt;
  std::uint32_t crc = 0;
  for (std::size_t i = 1; i <= kCrcDigits; ++i) {
    const char c = line[i];
    crc <<= 4;
    if (c >= '0' && c <= '9') crc |= static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') crc |= static_cast<std::uint32_t>(c - 'a' + 10);
    else return std::nullopt;
  }
  const std::string_view record = line.substr(1 + kCrcDigits);
  if (crc32(record) != crc) return std::nullopt;
  return record;
}

/// Minimal scanner over one journal line. The journal only ever contains
/// objects this code wrote, so the parser accepts exactly that shape
/// (string/unsigned-number values, no nesting) and rejects anything else.
class LineScanner {
 public:
  LineScanner(std::string_view line, const std::string& path, std::size_t lineno)
      : line_(line), path_(path), lineno_(lineno) {}

  /// Finds `"key":` and returns the raw value text after it, or nullopt.
  [[nodiscard]] std::optional<std::string_view> raw_value(std::string_view key) const {
    std::string needle;
    needle.reserve(key.size() + 3);
    needle += '"';
    needle += key;
    needle += "\":";
    const std::size_t at = line_.find(needle);
    if (at == std::string_view::npos) return std::nullopt;
    return line_.substr(at + needle.size());
  }

  [[nodiscard]] bool has(std::string_view key) const { return raw_value(key).has_value(); }

  [[nodiscard]] std::uint64_t number(std::string_view key) const {
    const auto raw = raw_value(key);
    if (!raw) bad_journal(path_, lineno_, "missing \"" + std::string(key) + "\"");
    std::size_t end = 0;
    while (end < raw->size() && (std::isdigit(static_cast<unsigned char>((*raw)[end])) != 0)) {
      ++end;
    }
    const auto parsed = parse_uint(raw->substr(0, end));
    if (!parsed) bad_journal(path_, lineno_, "bad number for \"" + std::string(key) + "\"");
    return *parsed;
  }

  [[nodiscard]] std::uint64_t hex(std::string_view key) const {
    const std::string text = string(key);
    if (!starts_with(text, "0x") || text.size() < 3 || text.size() > 18) {
      bad_journal(path_, lineno_, "bad hex digest for \"" + std::string(key) + "\"");
    }
    std::uint64_t value = 0;
    for (std::size_t i = 2; i < text.size(); ++i) {
      const char c = text[i];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<std::uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<std::uint64_t>(c - 'a' + 10);
      else bad_journal(path_, lineno_, "bad hex digest for \"" + std::string(key) + "\"");
    }
    return value;
  }

  [[nodiscard]] std::string string(std::string_view key) const { return quoted(key).value; }

  /// A string value, unescaped, with the offsets of its quotes in the line.
  /// `canonical` says whether the bytes between the quotes are exactly what
  /// append_json_string writes for `value`: every escape is the one it
  /// writes for its byte, and no raw byte is below 0x20.
  struct Quoted {
    std::string value;
    std::size_t open = 0;
    std::size_t close = 0;
    bool canonical = true;
  };

  [[nodiscard]] Quoted quoted(std::string_view key) const {
    const auto raw = raw_value(key);
    if (!raw || raw->empty() || (*raw)[0] != '"') {
      bad_journal(path_, lineno_, "missing string for \"" + std::string(key) + "\"");
    }
    Quoted out;
    out.open = static_cast<std::size_t>(raw->data() - line_.data());
    std::size_t run = 1;  // start of the bytes not yet copied to out.value
    for (std::size_t i = next_escape(*raw, 1); i < raw->size(); i = next_escape(*raw, i + 1)) {
      const auto c = static_cast<unsigned char>((*raw)[i]);
      if (c < 0x20) {
        out.canonical = false;  // kept as read; append_json_string escapes it
        continue;
      }
      out.value.append(*raw, run, i - run);
      if (c == '"') {
        out.close = out.open + i;
        return out;
      }
      if (++i >= raw->size()) break;
      switch ((*raw)[i]) {
        case '"': out.value += '"'; break;
        case '\\': out.value += '\\'; break;
        case 'n': out.value += '\n'; break;
        case 'r': out.value += '\r'; break;
        case 't': out.value += '\t'; break;
        case 'u': {
          if (i + 4 >= raw->size()) bad_journal(path_, lineno_, "truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = (*raw)[i + 1 + static_cast<std::size_t>(k)];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else bad_journal(path_, lineno_, "bad \\u escape");
          }
          i += 4;
          // The writer emits \u00XX only for the bytes below 0x20 that have
          // no short escape.
          out.canonical = out.canonical && code < 0x20 && code != '\n' && code != '\r' &&
                          code != '\t';
          out.value += static_cast<char>(code);
          break;
        }
        default: bad_journal(path_, lineno_, "unknown escape in string");
      }
      run = i + 1;
    }
    bad_journal(path_, lineno_, "unterminated string for \"" + std::string(key) + "\"");
  }

 private:
  std::string_view line_;
  const std::string& path_;
  std::size_t lineno_;
};

std::string header_line(std::uint64_t sweep_digest, std::size_t point_count) {
  return "{\"craysim_journal\":1,\"sweep_digest\":\"" + hex_u64(sweep_digest) +
         "\",\"points\":" + std::to_string(point_count) + "}";
}

/// Throws Error unless `line` is a version-1 header for this sweep.
void check_header(std::string_view line, const std::string& path, std::size_t lineno,
                  std::uint64_t sweep_digest, std::size_t point_count) {
  const LineScanner scan(line, path, lineno);
  if (scan.number("craysim_journal") != 1) {
    bad_journal(path, lineno, "unsupported journal version");
  }
  if (scan.hex("sweep_digest") != sweep_digest || scan.number("points") != point_count) {
    throw Error("journal: " + path + " belongs to a different sweep (digest/point-count " +
                "mismatch); refusing to resume — delete it or pass a fresh path");
  }
}

/// Appends the start of `record`'s line: every field, up to the quote that
/// opens the payload (or error) string.
void append_record_head(std::string& out, const SweepJournal::Record& record) {
  out += "{\"index\":" + std::to_string(record.index) + ",\"digest\":\"" +
         hex_u64(record.input_digest) + "\",\"status\":\"" +
         point_status_name(record.outcome.status) +
         "\",\"attempts\":" + std::to_string(record.outcome.attempts) +
         ",\"backoff_ns\":" + std::to_string(record.outcome.backoff_ns) +
         (record.outcome.status == PointStatus::kOk ? ",\"result\":" : ",\"error\":");
}

/// Appends `record` as one JSON line, without the newline.
void append_record_line(std::string& out, const SweepJournal::Record& record) {
  append_record_head(out, record);
  append_json_string(out, record.outcome.status == PointStatus::kOk ? record.payload
                                                                   : record.outcome.error);
  out += '}';
}

/// Parses one record line. With `exact` given, also says whether `line` is
/// byte for byte what append_record_line writes for the record: the head
/// renders the same, the string is escaped as append_json_string escapes it,
/// and only the closing brace follows it. That needs no second escape pass.
SweepJournal::Record parse_record(std::string_view line, const std::string& path,
                                  std::size_t lineno, std::size_t point_count,
                                  bool* exact = nullptr) {
  const LineScanner scan(line, path, lineno);
  SweepJournal::Record record;
  record.index = static_cast<std::size_t>(scan.number("index"));
  if (record.index >= point_count) bad_journal(path, lineno, "point index out of range");
  record.input_digest = scan.hex("digest");
  const std::string status = scan.string("status");
  if (status == "ok") record.outcome.status = PointStatus::kOk;
  else if (status == "failed") record.outcome.status = PointStatus::kFailed;
  else if (status == "timeout") record.outcome.status = PointStatus::kTimedOut;
  else bad_journal(path, lineno, "unknown status '" + status + "'");
  record.outcome.attempts = static_cast<std::int32_t>(scan.number("attempts"));
  record.outcome.backoff_ns = static_cast<std::int64_t>(scan.number("backoff_ns"));
  const bool ok = record.outcome.status == PointStatus::kOk;
  LineScanner::Quoted text = scan.quoted(ok ? "result" : "error");
  if (exact != nullptr) {
    std::string head;
    append_record_head(head, record);
    *exact = text.canonical && text.open == head.size() && line.substr(0, head.size()) == head &&
             text.close + 2 == line.size() && line.back() == '}';
  }
  if (ok) {
    record.payload = std::move(text.value);
  } else {
    record.outcome.error = std::move(text.value);
  }
  return record;
}

}  // namespace

const char* point_status_name(PointStatus status) {
  switch (status) {
    case PointStatus::kOk: return "ok";
    case PointStatus::kFailed: return "failed";
    case PointStatus::kTimedOut: return "timeout";
  }
  return "unknown";
}

SweepJournal::SweepJournal(std::string path, std::uint64_t sweep_digest, std::size_t point_count)
    : path_(std::move(path)), sweep_digest_(sweep_digest), point_count_(point_count) {
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  if (!in) return;  // fresh journal; the first append creates the file
  const std::streamoff size = in.tellg();
  std::string text(size > 0 ? static_cast<std::size_t>(size) : 0, '\0');
  in.seekg(0);
  if (size < 0 || !in.read(text.data(), static_cast<std::streamsize>(text.size()))) {
    throw Error("journal: " + path_ + ": read failed");
  }

  const std::string header = header_line(sweep_digest_, point_count_);
  std::vector<bool> seen(point_count_, false);
  bool canonical = true;
  bool in_log = false;        // past the canonical section
  bool framed_lines = false;  // a line starting with the frame marker was seen
  std::size_t lineno = 0;
  std::size_t begin = 0;
  for (std::size_t end = text.find('\n'); end != std::string::npos;
       begin = end + 1, end = text.find('\n', begin)) {
    ++lineno;
    const std::string_view line(text.data() + begin, end - begin);
    const std::string_view trimmed = trim(line);
    if (trimmed.empty()) {
      // Skipped, as the parser always has; but the writer never emits a
      // blank line, so after the header it counts as damage.
      if (has_header_) ++corrupt_;
      canonical = false;
      continue;
    }
    if (!has_header_) {
      check_header(trimmed, path_, lineno, sweep_digest_, point_count_);
      has_header_ = true;
      canonical = canonical && line == header;
      continue;
    }
    Record record;
    if (!in_log && starts_with(trimmed, kRecordPrefix)) {
      bool exact = false;
      record = parse_record(trimmed, path_, lineno, point_count_, canonical ? &exact : nullptr);
      canonical = canonical && exact && line.size() == trimmed.size() &&
                  (records_.empty() || records_.back().index < record.index);
    } else {
      // A record line after the canonical section ended, but before any
      // line with the frame marker, follows a damaged canonical record:
      // refuse the journal rather than drop every record after the damage.
      if (!framed_lines && starts_with(trimmed, kRecordPrefix)) {
        bad_journal(path_, lineno, "record after a damaged canonical record");
      }
      framed_lines = framed_lines || trimmed.front() == kFrameMarker;
      in_log = true;
      canonical = false;
      const std::optional<std::string_view> framed = frame_record(line);
      if (!framed) {
        ++corrupt_;
        continue;
      }
      record = parse_record(*framed, path_, lineno, point_count_);
    }
    if (seen[record.index]) bad_journal(path_, lineno, "duplicate point index");
    seen[record.index] = true;
    records_.push_back(std::move(record));
  }
  if (!has_header_ && lineno > 0) bad_journal(path_, 1, "missing journal header");
  if (!has_header_ && !starts_with(header, std::string_view(text).substr(begin))) {
    // No complete line. A cut of this sweep's header is a torn header, which
    // the first append replaces; anything else is not this sweep's journal.
    check_header(trim(std::string_view(text).substr(begin)), path_, 1, sweep_digest_,
                 point_count_);
    bad_journal(path_, 1, "journal header has no newline");
  }
  valid_size_ = begin;
  torn_tail_ = begin < text.size();
  canonical_ = has_header_ && canonical && !torn_tail_;
  std::sort(records_.begin(), records_.end(),
            [](const Record& a, const Record& b) { return a.index < b.index; });
}

SweepJournal::~SweepJournal() {
  if (fd_ >= 0) ::close(fd_);
}

SweepJournal::Cost SweepJournal::open_for_append_locked() {
  Cost cost;
  if (fd_ >= 0) return cost;
  if (!has_header_) {
    // Nothing usable on disk (no file, or a torn header): start the file.
    const std::string header = header_line(sweep_digest_, point_count_) + '\n';
    util::write_file_atomic(path_, header, /*sync=*/true);
    cost = {static_cast<std::int64_t>(header.size()), 1};
    has_header_ = true;
    valid_size_ = header.size();
    torn_tail_ = false;
  }
  const int fd = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) io_failure(path_, "open", errno);
  // A frame appended after a torn tail would share its line and fail its
  // CRC, so the tail goes first.
  if (torn_tail_ && ::ftruncate(fd, static_cast<off_t>(valid_size_)) != 0) {
    const int err = errno;
    ::close(fd);
    io_failure(path_, "truncate", err);
  }
  torn_tail_ = false;
  fd_ = fd;
  return cost;
}

SweepJournal::Cost SweepJournal::append(Record record) {
  // Render outside the lock: escaping the payload is the costly part.
  std::string frame(1 + kCrcDigits, kFrameMarker);
  append_record_line(frame, record);
  put_hex32(frame.data() + 1, crc32(std::string_view(frame).substr(1 + kCrcDigits)));
  frame += '\n';

  Cost cost;
  int fd = -1;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (failed_) {
      throw Error("journal: " + path_ + ": an earlier write failed; no more records accepted");
    }
    try {
      cost = open_for_append_locked();
      write_all(fd_, frame, path_);
    } catch (...) {
      failed_ = true;
      throw;
    }
    cost.bytes += static_cast<std::int64_t>(frame.size());
    fd = fd_;
    canonical_ = false;
    const auto at = std::lower_bound(
        records_.begin(), records_.end(), record.index,
        [](const Record& r, std::size_t index) { return r.index < index; });
    records_.insert(at, std::move(record));
  }
  // Synced outside the mutex, so other workers write their frames meanwhile.
  if (::fdatasync(fd) != 0) {
    const int err = errno;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      failed_ = true;
    }
    io_failure(path_, "fdatasync", err);
  }
  ++cost.syncs;
  return cost;
}

SweepJournal::Cost SweepJournal::compact() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (canonical_) return {};
  std::string text = header_line(sweep_digest_, point_count_) + '\n';
  std::size_t estimate = text.size();
  for (const Record& record : records_) {
    estimate += kRecordOverhead + record.payload.size() + record.outcome.error.size();
  }
  text.reserve(estimate);
  for (const Record& record : records_) {
    append_record_line(text, record);
    text += '\n';
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  util::write_file_atomic(path_, text, /*sync=*/true);
  has_header_ = true;
  canonical_ = true;
  valid_size_ = text.size();
  torn_tail_ = false;
  return {static_cast<std::int64_t>(text.size()), 1};
}

}  // namespace craysim::runner
