#include "sim/metrics.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/text.hpp"

namespace craysim::sim {

void SimResult::publish_metrics(obs::MetricsRegistry& registry, std::string_view prefix) const {
  const std::string p(prefix);
  const auto count = [&](const std::string& name, std::int64_t value) {
    registry.counter(p + "." + name).add(value);
  };
  const auto gauge = [&](const std::string& name, double value) {
    registry.gauge(p + "." + name).set(value);
  };

  gauge("total_wall_s", total_wall.seconds());
  gauge("cpu_busy_s", cpu_busy.seconds());
  gauge("cpu_idle_s", cpu_idle.seconds());
  gauge("overhead_s", overhead_time.seconds());
  gauge("cpu_utilization", cpu_utilization());
  gauge("processes", static_cast<double>(processes.size()));

  count("cache.read_requests", cache.read_requests);
  count("cache.read_full_hits", cache.read_full_hits);
  count("cache.read_partial_hits", cache.read_partial_hits);
  count("cache.read_misses", cache.read_misses);
  count("cache.write_requests", cache.write_requests);
  count("cache.write_absorbed", cache.write_absorbed);
  count("cache.readahead_issued", cache.readahead_issued);
  count("cache.readahead_used_blocks", cache.readahead_used_blocks);
  count("cache.readahead_fetched_blocks", cache.readahead_fetched_blocks);
  count("cache.evictions", cache.evictions);
  count("cache.space_waits", cache.space_waits);
  count("cache.writes_cancelled_blocks", cache.writes_cancelled_blocks);

  count("disk.read_ops", disk.read_ops);
  count("disk.write_ops", disk.write_ops);
  count("disk.bytes_read", disk.bytes_read);
  count("disk.bytes_written", disk.bytes_written);
  gauge("disk.busy_s", disk.busy_time.seconds());
  gauge("disk.queue_wait_s", disk.queue_wait_time.seconds());
  count("disk.transient_errors", disk.transient_errors);
  count("disk.retries", disk.retries);
  count("disk.permanent_failures", disk.permanent_failures);
  count("disk.redirected_ios", disk.redirected_ios);
  count("disk.latency_spikes", disk.latency_spikes);
  gauge("disk.retry_backoff_s", disk.retry_backoff_time.seconds());

  // sim.attr.* only exists for attributed runs, so the metric-name golden
  // for plain runs is untouched (same pattern as the fault summary line).
  if (attr.enabled) obs::publish_attr_metrics(attr, registry, p + ".attr");
}

std::string SimResult::summary() const {
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "wall %.2f s | busy %.2f s | idle %.2f s | utilization %.1f%% | overhead %.2f s\n",
                total_wall.seconds(), cpu_busy.seconds(), cpu_idle.seconds(),
                100.0 * cpu_utilization(), overhead_time.seconds());
  out += buf;
  std::snprintf(buf, sizeof buf,
                "cache: reads %lld (full hits %lld, partial %lld, misses %lld) | writes %lld "
                "(absorbed %lld) | RA issued %lld acc %.0f%% | evictions %lld | space waits %lld\n",
                static_cast<long long>(cache.read_requests),
                static_cast<long long>(cache.read_full_hits),
                static_cast<long long>(cache.read_partial_hits),
                static_cast<long long>(cache.read_misses),
                static_cast<long long>(cache.write_requests),
                static_cast<long long>(cache.write_absorbed),
                static_cast<long long>(cache.readahead_issued), 100.0 * cache.readahead_accuracy(),
                static_cast<long long>(cache.evictions),
                static_cast<long long>(cache.space_waits));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "disk: %lld reads / %lld writes, %s read / %s written, busy %.2f s, queue wait "
                "%.2f s\n",
                static_cast<long long>(disk.read_ops), static_cast<long long>(disk.write_ops),
                format_bytes(disk.bytes_read).c_str(), format_bytes(disk.bytes_written).c_str(),
                disk.busy_time.seconds(), disk.queue_wait_time.seconds());
  out += buf;
  // Only surfaced when fault injection actually fired, so fault-free runs
  // keep the summary byte-identical to the pre-fault substrate.
  if (disk.any_faults()) {
    std::snprintf(buf, sizeof buf,
                  "disk faults: %lld transient errors, %lld retries (%.3f s backoff), %lld disks "
                  "lost, %lld redirected I/Os, %lld latency spikes\n",
                  static_cast<long long>(disk.transient_errors),
                  static_cast<long long>(disk.retries), disk.retry_backoff_time.seconds(),
                  static_cast<long long>(disk.permanent_failures),
                  static_cast<long long>(disk.redirected_ios),
                  static_cast<long long>(disk.latency_spikes));
    out += buf;
  }
  // Attribution digest: only for attributed runs (same conditional-section
  // contract as the fault line), so plain summaries stay byte-identical.
  if (attr.enabled) {
    const auto total_ticks = static_cast<double>(attr.total.total_ticks);
    std::snprintf(buf, sizeof buf, "attribution: %lld ops, io time %.2f s |",
                  static_cast<long long>(attr.total.ops),
                  Ticks(attr.total.total_ticks).seconds());
    out += buf;
    for (std::size_t c = 0; c < obs::kAttrOpComponents; ++c) {
      const double pct = total_ticks > 0.0
                             ? 100.0 * static_cast<double>(attr.total.comp[c]) / total_ticks
                             : 0.0;
      std::snprintf(buf, sizeof buf, " %s %.1f%%%s",
                    obs::attr_component_name(static_cast<obs::AttrComponent>(c)), pct,
                    c + 1 < obs::kAttrOpComponents ? " |" : "\n");
      out += buf;
    }
  }
  for (const auto& p : processes) {
    std::snprintf(buf, sizeof buf,
                  "  proc %u %-10s finished %.2f s (cpu %.2f s, blocked %.2f s, %lld I/Os, %s R, "
                  "%s W)\n",
                  p.pid, p.name.c_str(), p.finish_time.seconds(), p.cpu_time.seconds(),
                  p.blocked_time.seconds(), static_cast<long long>(p.io_count),
                  format_bytes(p.bytes_read).c_str(), format_bytes(p.bytes_written).c_str());
    out += buf;
  }
  return out;
}

namespace {

// ---- SimResult wire codec (journal payloads) -------------------------------
//
// Line-oriented key/value text. Integers print verbatim; doubles print as C
// hexfloats (the bytes "%a" prints), which read back bit-exactly; the
// process name and the annotated-trace blob are length-prefixed so embedded
// spaces and newlines survive. Version-stamped so a future field change
// fails loudly instead of misparsing old journals.

void put_i64(std::string& out, std::int64_t value) {
  char buf[24];
  buf[0] = ' ';
  out.append(buf, std::to_chars(buf + 1, buf + sizeof buf, value).ptr);
}

/// A space, then `value` as printf's "%a" writes it: the sign, "0x" and the
/// hex digits, or "inf" or "nan" behind the sign.
void put_f64(std::string& out, double value) {
  char buf[32];
  if (std::fpclassify(value) == FP_SUBNORMAL) {
    // std::to_chars writes a subnormal as "%a" does ("0.0000000000001p-1022")
    // in libstdc++ 12, but normalized ("1p-1074") in later versions.
    out.append(buf, static_cast<std::size_t>(std::snprintf(buf, sizeof buf, " %a", value)));
    return;
  }
  char* at = buf;
  *at++ = ' ';
  if (std::isfinite(value)) {
    if (std::signbit(value)) *at++ = '-';
    *at++ = '0';
    *at++ = 'x';
    value = std::fabs(value);
  }
  out.append(buf, std::to_chars(at, buf + sizeof buf, value, std::chars_format::hex).ptr);
}

/// A space, then "<length>:" and `bytes`.
void put_blob(std::string& out, std::string_view bytes) {
  put_i64(out, static_cast<std::int64_t>(bytes.size()));
  out += ':';
  out += bytes;
}

void put_series(std::string& out, const char* name, const BinnedSeries& series) {
  out += name;
  put_i64(out, series.bin_width().count());
  put_i64(out, static_cast<std::int64_t>(series.num_bins()));
  for (const double v : series.bins()) put_f64(out, v);
  out += '\n';
}

/// std::isspace in the C locale; nothing in craysim calls setlocale.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }

constexpr bool is_hex_digit(char c) { return is_digit(c) || (c >= 'a' && c <= 'f'); }

/// True when `word` is a finite double as put_f64 writes it:
/// [-]0x1[.<hex>]p(+|-)<e> for e in [-1022, 1023], [-]0x0.<hex>p-1022 for
/// a subnormal, or [-]0x0p+0, a fraction having 1 to 13 lower-case hex
/// digits. Such a token names a double exactly, so std::from_chars reads
/// it as strtod does. Other tokens may not read alike: from_chars takes
/// "0x1p+-3", which strtod refuses, and glibc 2.36's strtod misrounds some
/// longer spellings of subnormals, such as "0x3.e3513651bb8a9p-1026".
bool has_writer_shape(std::string_view word) {
  constexpr std::ptrdiff_t kMaxFractionDigits = 13;  // 52 bits
  constexpr std::ptrdiff_t kMaxExponentDigits = 4;
  const char* at = word.data();
  const char* const end = at + word.size();
  if (at != end && *at == '-') ++at;
  if (end - at < 3 || at[0] != '0' || at[1] != 'x' || (at[2] != '0' && at[2] != '1')) {
    return false;
  }
  const bool normal = at[2] == '1';
  at += 3;
  const bool fraction = at != end && *at == '.';
  if (fraction) {
    const char* const digits = ++at;
    while (at != end && is_hex_digit(*at)) ++at;
    if (at == digits || at - digits > kMaxFractionDigits) return false;
  }
  if (end - at < 3 || at[0] != 'p' || (at[1] != '+' && at[1] != '-')) return false;
  const bool negative = at[1] == '-';
  at += 2;
  if (end - at > kMaxExponentDigits) return false;
  int exponent = 0;
  for (; at != end; ++at) {
    if (!is_digit(*at)) return false;
    exponent = exponent * 10 + (*at - '0');
  }
  if (normal) return exponent <= (negative ? 1022 : 1023);
  return fraction ? negative && exponent == 1022 : !negative && exponent == 0;
}

/// Whitespace-token cursor over the serialized text.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  [[nodiscard]] std::string_view token() {
    skip_space();
    if (at_ >= text_.size()) fail("unexpected end of input");
    const std::size_t start = at_;
    while (at_ < text_.size() && !is_space(text_[at_])) ++at_;
    return text_.substr(start, at_ - start);
  }

  void expect(std::string_view word) {
    const std::string_view got = token();
    if (got != word) {
      fail("expected '" + std::string(word) + "', got '" + std::string(got) + "'");
    }
  }

  [[nodiscard]] std::int64_t i64() {
    const std::string_view word = token();
    const char* last = word.data() + word.size();
    std::int64_t value = 0;
    const auto [end, ec] = std::from_chars(word.data(), last, value);
    if (ec != std::errc() || end != last) fail("bad integer");
    return value;
  }

  [[nodiscard]] double f64() {
    const std::string_view word = token();
    if (has_writer_shape(word)) {
      const bool negative = word[0] == '-';
      const char* last = word.data() + word.size();
      double value = 0.0;
      const auto [end, ec] = std::from_chars(word.data() + (negative ? 3 : 2), last, value,
                                             std::chars_format::hex);
      if (ec == std::errc() && end == last) return negative ? -value : value;
    }
    // Every other token, and one out of range, reads as strtod reads it.
    const std::string copy(word);  // strtod needs a terminator
    char* end = nullptr;
    const double value = std::strtod(copy.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == copy.c_str()) fail("bad float");
    return value;
  }

  /// Reads "<len>:" then exactly len raw bytes (may span lines).
  [[nodiscard]] std::string_view blob() {
    skip_space();
    std::size_t colon = at_;
    while (colon < text_.size() && text_[colon] != ':') ++colon;
    const auto len = parse_uint(text_.substr(at_, colon - at_));
    if (!len || colon >= text_.size()) fail("bad length prefix");
    at_ = colon + 1;
    if (*len > text_.size() - at_) fail("truncated blob");
    const std::string_view out = text_.substr(at_, *len);
    at_ += *len;
    return out;
  }

  /// Reads the size of a table whose entries take at least one byte each,
  /// so it can be no larger than the bytes left: a corrupt count fails here
  /// instead of driving a huge allocation.
  [[nodiscard]] std::int64_t count(const std::string& what) {
    const std::int64_t n = i64();
    if (n < 0) fail("negative " + what);
    if (static_cast<std::uint64_t>(n) > text_.size() - at_) fail(what + " exceeds the input");
    return n;
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw Error("sim result parse: " + why + " at offset " + std::to_string(at_));
  }

  /// True when only whitespace remains — how the parser detects the optional
  /// trailing attribution section (absent in pre-attribution journals).
  [[nodiscard]] bool at_end() {
    skip_space();
    return at_ >= text_.size();
  }

 private:
  void skip_space() {
    while (at_ < text_.size() && is_space(text_[at_])) ++at_;
  }

  std::string_view text_;
  std::size_t at_ = 0;
};

void put_attr_entry(std::string& out, const obs::AttrEntry& e) {
  out += "attr.e";
  put_i64(out, e.ops);
  put_i64(out, e.write_ops);
  put_i64(out, e.bytes);
  put_i64(out, e.total_ticks);
  for (const std::int64_t v : e.comp) put_i64(out, v);
  put_blob(out, e.key);
  out += '\n';
}

obs::AttrEntry read_attr_entry(Cursor& in) {
  in.expect("attr.e");
  obs::AttrEntry e;
  e.ops = in.i64();
  e.write_ops = in.i64();
  e.bytes = in.i64();
  e.total_ticks = in.i64();
  for (std::int64_t& v : e.comp) v = in.i64();
  e.key = std::string(in.blob());
  return e;
}

BinnedSeries read_series(Cursor& in, const char* name) {
  in.expect(name);
  const std::int64_t width = in.i64();
  if (width <= 0) in.fail("series bin width must be positive");
  const std::int64_t count = in.count("series bin count");
  if (count > 0 && width > std::numeric_limits<std::int64_t>::max() / count) {
    in.fail("series span overflows");
  }
  std::vector<double> bins;
  bins.reserve(static_cast<std::size_t>(count));
  // add() stores 0.0 + v in an empty bin, so a -0.0 reads back as +0.0.
  for (std::int64_t i = 0; i < count; ++i) bins.push_back(0.0 + in.f64());
  return BinnedSeries(Ticks(width), std::move(bins));
}

}  // namespace

std::string serialize_sim_result(const SimResult& result) {
  std::string out = "craysim-simresult 1\n";
  out += "times";
  put_i64(out, result.total_wall.count());
  put_i64(out, result.cpu_busy.count());
  put_i64(out, result.cpu_idle.count());
  put_i64(out, result.overhead_time.count());
  out += "\ncache";
  const CacheMetrics& c = result.cache;
  for (const std::int64_t v :
       {c.read_requests, c.read_full_hits, c.read_partial_hits, c.read_misses, c.write_requests,
        c.write_absorbed, c.readahead_issued, c.readahead_used_blocks, c.readahead_fetched_blocks,
        c.evictions, c.space_waits, c.writes_cancelled_blocks}) {
    put_i64(out, v);
  }
  out += "\ndisk";
  const DeviceMetrics& d = result.disk;
  for (const std::int64_t v :
       {d.read_ops, d.write_ops, d.bytes_read, d.bytes_written, d.busy_time.count(),
        d.queue_wait_time.count(), d.transient_errors, d.retries, d.permanent_failures,
        d.redirected_ios, d.latency_spikes, d.retry_backoff_time.count()}) {
    put_i64(out, v);
  }
  out += "\nprocs";
  put_i64(out, static_cast<std::int64_t>(result.processes.size()));
  out += '\n';
  for (const ProcessResult& p : result.processes) {
    out += "p";
    put_i64(out, p.pid);
    put_i64(out, p.finish_time.count());
    put_i64(out, p.cpu_time.count());
    put_i64(out, p.blocked_time.count());
    put_i64(out, p.io_count);
    put_i64(out, p.bytes_read);
    put_i64(out, p.bytes_written);
    put_blob(out, p.name);
    out += '\n';
  }
  put_series(out, "series.logical", result.logical_rate);
  put_series(out, "series.disk", result.disk_rate);
  put_series(out, "series.disk_read", result.disk_read_rate);
  put_series(out, "series.disk_write", result.disk_write_rate);
  const std::string trace_text =
      result.annotated_trace.empty() ? std::string() : trace::serialize_trace(result.annotated_trace);
  out += "trace";
  put_blob(out, trace_text);
  out += '\n';
  // Optional trailing section: only attributed runs emit it, so journals of
  // plain runs stay byte-identical to pre-attribution builds, and the parser
  // treats its absence as attr.enabled == false.
  if (result.attr.enabled) {
    const obs::AttrSummary& a = result.attr;
    out += "attr 1";
    put_i64(out, static_cast<std::int64_t>(a.files.size()));
    put_i64(out, static_cast<std::int64_t>(a.procs.size()));
    put_i64(out, static_cast<std::int64_t>(a.phases.size()));
    put_i64(out, static_cast<std::int64_t>(a.sizes.size()));
    put_i64(out, static_cast<std::int64_t>(a.disks.size()));
    out += '\n';
    put_attr_entry(out, a.total);
    for (const obs::AttrEntry& e : a.files) put_attr_entry(out, e);
    for (const obs::AttrEntry& e : a.procs) put_attr_entry(out, e);
    for (const obs::AttrEntry& e : a.phases) put_attr_entry(out, e);
    for (const obs::AttrEntry& e : a.sizes) put_attr_entry(out, e);
    for (const obs::AttrDiskEntry& e : a.disks) {
      out += "attr.d";
      put_i64(out, e.ops);
      put_i64(out, e.bytes);
      put_i64(out, e.total_ticks);
      for (const std::int64_t v : e.comp) put_i64(out, v);
      put_blob(out, e.kind);
      out += '\n';
    }
    out += "attr.lat";
    for (const std::int64_t v : a.latency) put_i64(out, v);
    out += '\n';
    for (const auto& hist : a.comp_hist) {
      out += "attr.h";
      for (const std::int64_t v : hist) put_i64(out, v);
      out += '\n';
    }
  }
  return out;
}

SimResult parse_sim_result(std::string_view text) {
  Cursor in(text);
  in.expect("craysim-simresult");
  if (in.i64() != 1) in.fail("unsupported sim-result version");
  SimResult result;
  in.expect("times");
  result.total_wall = Ticks(in.i64());
  result.cpu_busy = Ticks(in.i64());
  result.cpu_idle = Ticks(in.i64());
  result.overhead_time = Ticks(in.i64());
  in.expect("cache");
  CacheMetrics& c = result.cache;
  for (std::int64_t* field :
       {&c.read_requests, &c.read_full_hits, &c.read_partial_hits, &c.read_misses,
        &c.write_requests, &c.write_absorbed, &c.readahead_issued, &c.readahead_used_blocks,
        &c.readahead_fetched_blocks, &c.evictions, &c.space_waits, &c.writes_cancelled_blocks}) {
    *field = in.i64();
  }
  in.expect("disk");
  DeviceMetrics& d = result.disk;
  d.read_ops = in.i64();
  d.write_ops = in.i64();
  d.bytes_read = in.i64();
  d.bytes_written = in.i64();
  d.busy_time = Ticks(in.i64());
  d.queue_wait_time = Ticks(in.i64());
  d.transient_errors = in.i64();
  d.retries = in.i64();
  d.permanent_failures = in.i64();
  d.redirected_ios = in.i64();
  d.latency_spikes = in.i64();
  d.retry_backoff_time = Ticks(in.i64());
  in.expect("procs");
  const std::int64_t proc_count = in.count("process count");
  result.processes.reserve(static_cast<std::size_t>(proc_count));
  for (std::int64_t i = 0; i < proc_count; ++i) {
    in.expect("p");
    ProcessResult p;
    p.pid = static_cast<std::uint32_t>(in.i64());
    p.finish_time = Ticks(in.i64());
    p.cpu_time = Ticks(in.i64());
    p.blocked_time = Ticks(in.i64());
    p.io_count = in.i64();
    p.bytes_read = in.i64();
    p.bytes_written = in.i64();
    p.name = std::string(in.blob());
    result.processes.push_back(std::move(p));
  }
  result.logical_rate = read_series(in, "series.logical");
  result.disk_rate = read_series(in, "series.disk");
  result.disk_read_rate = read_series(in, "series.disk_read");
  result.disk_write_rate = read_series(in, "series.disk_write");
  in.expect("trace");
  const std::string_view trace_text = in.blob();
  if (!trace_text.empty()) result.annotated_trace = trace::parse_trace(trace_text);
  if (!in.at_end()) {
    in.expect("attr");
    if (in.i64() != 1) in.fail("unsupported attribution version");
    obs::AttrSummary& a = result.attr;
    a.enabled = true;
    const std::int64_t files = in.count("attribution table size");
    const std::int64_t procs = in.count("attribution table size");
    const std::int64_t phases = in.count("attribution table size");
    const std::int64_t sizes = in.count("attribution table size");
    const std::int64_t disks = in.count("attribution table size");
    a.total = read_attr_entry(in);
    for (std::int64_t i = 0; i < files; ++i) a.files.push_back(read_attr_entry(in));
    for (std::int64_t i = 0; i < procs; ++i) a.procs.push_back(read_attr_entry(in));
    for (std::int64_t i = 0; i < phases; ++i) a.phases.push_back(read_attr_entry(in));
    for (std::int64_t i = 0; i < sizes; ++i) a.sizes.push_back(read_attr_entry(in));
    for (std::int64_t i = 0; i < disks; ++i) {
      in.expect("attr.d");
      obs::AttrDiskEntry e;
      e.ops = in.i64();
      e.bytes = in.i64();
      e.total_ticks = in.i64();
      for (std::int64_t& v : e.comp) v = in.i64();
      e.kind = std::string(in.blob());
      a.disks.push_back(std::move(e));
    }
    in.expect("attr.lat");
    for (std::int64_t& v : a.latency) v = in.i64();
    for (auto& hist : a.comp_hist) {
      in.expect("attr.h");
      for (std::int64_t& v : hist) v = in.i64();
    }
  }
  return result;
}

}  // namespace craysim::sim
