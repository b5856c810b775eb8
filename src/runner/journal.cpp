#include "runner/journal.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
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

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

[[noreturn]] void bad_journal(const std::string& path, std::size_t lineno,
                              const std::string& why) {
  throw Error("journal: " + path + ":" + std::to_string(lineno) + ": " + why);
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

  [[nodiscard]] std::string string(std::string_view key) const {
    const auto raw = raw_value(key);
    if (!raw || raw->empty() || (*raw)[0] != '"') {
      bad_journal(path_, lineno_, "missing string for \"" + std::string(key) + "\"");
    }
    std::string out;
    for (std::size_t i = 1; i < raw->size(); ++i) {
      const char c = (*raw)[i];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (++i >= raw->size()) break;
      switch ((*raw)[i]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
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
          out += static_cast<char>(code);  // this writer only emits \u00XX
          break;
        }
        default: bad_journal(path_, lineno_, "unknown escape in string");
      }
    }
    bad_journal(path_, lineno_, "unterminated string for \"" + std::string(key) + "\"");
  }

 private:
  std::string_view line_;
  const std::string& path_;
  std::size_t lineno_;
};

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
  std::ifstream in(path_);
  if (!in) return;  // fresh journal; first flush creates the file

  std::string line;
  std::size_t lineno = 0;
  std::vector<bool> seen(point_count_, false);
  bool have_header = false;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string_view text = trim(line);
    if (text.empty()) continue;
    LineScanner scan(text, path_, lineno);
    if (!have_header) {
      if (scan.number("craysim_journal") != 1) {
        bad_journal(path_, lineno, "unsupported journal version");
      }
      if (scan.hex("sweep_digest") != sweep_digest_ ||
          scan.number("points") != point_count_) {
        throw Error("journal: " + path_ + " belongs to a different sweep (digest/point-count " +
                    "mismatch); refusing to resume — delete it or pass a fresh path");
      }
      have_header = true;
      continue;
    }
    Record record;
    record.index = static_cast<std::size_t>(scan.number("index"));
    if (record.index >= point_count_) bad_journal(path_, lineno, "point index out of range");
    if (seen[record.index]) bad_journal(path_, lineno, "duplicate point index");
    seen[record.index] = true;
    record.input_digest = scan.hex("digest");
    const std::string status = scan.string("status");
    if (status == "ok") record.outcome.status = PointStatus::kOk;
    else if (status == "failed") record.outcome.status = PointStatus::kFailed;
    else if (status == "timeout") record.outcome.status = PointStatus::kTimedOut;
    else bad_journal(path_, lineno, "unknown status '" + status + "'");
    record.outcome.attempts = static_cast<std::int32_t>(scan.number("attempts"));
    record.outcome.backoff_ns = static_cast<std::int64_t>(scan.number("backoff_ns"));
    if (record.outcome.status == PointStatus::kOk) {
      record.payload = scan.string("result");
    } else {
      record.outcome.error = scan.string("error");
    }
    records_.push_back(std::move(record));
  }
  if (!have_header && lineno > 0) bad_journal(path_, 1, "missing journal header");
  std::sort(records_.begin(), records_.end(),
            [](const Record& a, const Record& b) { return a.index < b.index; });
}

SweepJournal::~SweepJournal() {
  try {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (unflushed_ > 0) flush_locked();
  } catch (...) {
    // Destructor: swallow; callers that need durability call flush().
  }
}

void SweepJournal::append(Record record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto at = std::lower_bound(
      records_.begin(), records_.end(), record.index,
      [](const Record& r, std::size_t index) { return r.index < index; });
  records_.insert(at, std::move(record));
  ++unflushed_;
  flush_locked();
}

void SweepJournal::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  flush_locked();
}

void SweepJournal::flush_locked() {
  util::write_file_atomic(path_, render_locked(), /*sync=*/true);
  unflushed_ = 0;
}

std::string SweepJournal::render_locked() const {
  std::string out;
  out += "{\"craysim_journal\":1,\"sweep_digest\":\"" + hex_u64(sweep_digest_) +
         "\",\"points\":" + std::to_string(point_count_) + "}\n";
  for (const Record& record : records_) {
    out += "{\"index\":" + std::to_string(record.index) + ",\"digest\":\"" +
           hex_u64(record.input_digest) + "\",\"status\":\"" +
           point_status_name(record.outcome.status) +
           "\",\"attempts\":" + std::to_string(record.outcome.attempts) +
           ",\"backoff_ns\":" + std::to_string(record.outcome.backoff_ns);
    if (record.outcome.status == PointStatus::kOk) {
      out += ",\"result\":";
      append_json_string(out, record.payload);
    } else {
      out += ",\"error\":";
      append_json_string(out, record.outcome.error);
    }
    out += "}\n";
  }
  return out;
}

}  // namespace craysim::runner
