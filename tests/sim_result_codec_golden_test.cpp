// Pins the SimResult codec's observable behaviour, so a rewrite of
// serialize_sim_result or parse_sim_result is checked against the code it
// replaces:
// - encoder: the payloads of a corpus that reaches every section of the
//   format, folded into one FNV-1a digest. The corpus is the seven apps with
//   no cache, in a 16 MB main-memory cache with attribution, and on an SSD
//   with the annotated trace recorded; the full-length attributed no-cache
//   gcm point; and a result whose series hold edge-case and random-bit
//   doubles.
// - decoder: serialize_sim_result(parse_sim_result(text)), or the exact
//   error message, for each corpus payload, for seeded 1-4 byte edits of
//   the small payloads, and for hand-picked tokens in place of series
//   values, in a second digest.
// - bounds: payloads cut short so that they end at an unreadable page parse
//   or throw without touching that page.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/attr.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/time_series.hpp"
#include "workload/profiles.hpp"

namespace craysim::sim {
namespace {

/// Profiles are cut to this many iterations of their main loop, as in the
/// golden matrix, so the annotated traces stay under about 1 MB.
constexpr std::int32_t kMaxCycles = 10;
/// Edits go to payloads no larger than this, so each round stays cheap.
constexpr std::size_t kEditedPayloadLimit = 16 * 1024;

workload::AppProfile short_profile(workload::AppId app) {
  workload::AppProfile p = workload::make_profile(app);
  if (p.cycles > kMaxCycles) {
    p.cpu_time = p.cpu_time * kMaxCycles / p.cycles;
    p.cycles = kMaxCycles;
  }
  return p;
}

std::string payload_of(SimParams params, const workload::AppProfile& app, bool attributed) {
  obs::AttributionLedger ledger;
  if (attributed) params.attribution = &ledger;
  Simulator simulator(params);
  simulator.add_app(app);
  return serialize_sim_result(simulator.run());
}

double from_bits(std::uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

/// The doubles at the edges of the format: signed zeros, the smallest and
/// largest subnormals, the normal limits, an inexact fraction, infinities
/// and NaNs.
std::vector<double> edge_doubles() {
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  const double largest_subnormal = std::nextafter(DBL_MIN, 0.0);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {0.0,       -0.0,     denorm_min, -denorm_min, largest_subnormal, -largest_subnormal,
          DBL_MIN,   -DBL_MIN, DBL_MAX,    -DBL_MAX,    1.0 / 3.0,         -1.0 / 3.0,
          1.0,       -2.5,     inf,        -inf,        nan,               -nan};
}

/// A result whose series hold the edge doubles and, with `random_bits`
/// set, that many seeded random-bit doubles (NaNs with payloads and
/// signalling NaNs among them). One series stays empty.
SimResult edge_result(std::size_t random_bits) {
  SimResult result;
  const std::vector<double> edges = edge_doubles();
  result.logical_rate = BinnedSeries(Ticks::from_seconds(1), edges);
  std::vector<double> random;
  random.reserve(random_bits);
  Rng rng(0xC0DEC5EED);
  for (std::size_t i = 0; i < random_bits; ++i) random.push_back(from_bits(rng.next_u64()));
  result.disk_rate = BinnedSeries(Ticks::from_ms(10), std::move(random));
  result.disk_read_rate = BinnedSeries(Ticks(1), std::vector<double>(edges.rbegin(), edges.rend()));
  return result;
}

enum Setting { kNoCache, kAttributed, kTraced, kSettings };

const std::vector<std::string>& corpus() {
  static const std::vector<std::string> payloads = [] {
    std::vector<std::string> out;
    for (const workload::AppId app : workload::all_apps()) {
      const workload::AppProfile profile = short_profile(app);
      out.push_back(payload_of(SimParams::no_cache(), profile, false));
      out.push_back(payload_of(SimParams::paper_main_memory(Bytes{16} * kMB), profile, true));
      SimParams traced = SimParams::paper_ssd(Bytes{256} * kMB);
      traced.record_trace = true;
      out.push_back(payload_of(traced, profile, false));
    }
    // Each app's payloads sit at kSettings * app + setting. Then one point
    // of perfbench's journaled_sweep, at full length.
    out.push_back(
        payload_of(SimParams::no_cache(), workload::make_profile(workload::AppId::kGcm), true));
    out.push_back(serialize_sim_result(edge_result(200000)));
    return out;
  }();
  return payloads;
}

const std::string& payload(workload::AppId app, Setting setting) {
  return corpus().at(static_cast<std::size_t>(kSettings * static_cast<int>(app) + setting));
}

void add_text(util::Fnv1a& fnv, std::string_view text) {
  fnv.add(text.size());
  fnv.add_text(text);
}

enum Outcome { kParsed, kError };

/// Parses `text` and folds what happens into `fnv`: the result as it
/// serializes again, or the error message.
Outcome fold_outcome(util::Fnv1a& fnv, std::string_view text) {
  try {
    add_text(fnv, serialize_sim_result(parse_sim_result(text)));
    return kParsed;
  } catch (const Error& e) {
    add_text(fnv, std::string("error: ") + e.what());
    return kError;
  }
}

/// 1-4 edits (replace, insert, delete). Most bytes come from the ones that
/// border on the format's syntax: digits, hex digits and markers, signs,
/// separators and the length-prefix colon; the rest are arbitrary.
std::string edit(std::string text, Rng& rng) {
  static constexpr std::string_view kAlphabet = "0123456789abcdefxXpP.+- \t\n\r:n";
  const auto pick = [&] {
    if (rng.chance(0.2)) return static_cast<char>(rng.uniform_int(1, 255));
    return kAlphabet[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kAlphabet.size()) - 1))];
  };
  const std::int64_t edits = rng.uniform_int(1, 4);
  for (std::int64_t i = 0; i < edits; ++i) {
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
    switch (rng.uniform_int(0, 2)) {
      case 0: text[at] = pick(); break;
      case 1: text.insert(at, 1, pick()); break;
      default: text.erase(at, 1); break;
    }
  }
  return text;
}

/// `text` with the value token `nth` (0-based) of the series line `key`
/// replaced by `token`; nth < 0 counts from the line's end.
std::string with_series_value(std::string text, const std::string& key, int nth,
                              std::string_view token) {
  const std::size_t line = text.find("\n" + key + " ");
  EXPECT_NE(line, std::string::npos) << key;
  std::vector<std::size_t> starts;  // each token's offset: key, width, count, then the values
  for (std::size_t at = line + 1;; ++at) {
    starts.push_back(at);
    at = text.find_first_of(" \n", at);
    if (text[at] == '\n') break;
  }
  EXPECT_GT(starts.size(), 3U) << key;
  const std::size_t begin = starts.at(nth >= 0 ? 3 + static_cast<std::size_t>(nth)
                                               : starts.size() - static_cast<std::size_t>(-nth));
  return text.replace(begin, text.find_first_of(" \n", begin) - begin, token);
}

/// Float tokens around the writer's shape: other spellings strtod takes,
/// near misses it refuses, range and rounding edges, and spellings from
/// outside the hex form.
const std::vector<std::string>& float_tokens() {
  static const std::vector<std::string> tokens = {
      "0X1P+3",
      "0x1.8P3",
      "+0x1p0",
      "0x.8p1",
      "0x-1p0",
      "0x1p",
      "0x1p+",
      "0x1p+-3",
      "0x1p-+3",
      "0x1p--3",
      "0x1p3",
      "0x1.p+0",
      "0x1..8p+0",
      "0x1.8.0p+0",
      "0x1p99999",
      "0x1p-1080",
      "0x1p+99999999999999999999",
      "0x1p-99999999999999999999",
      "0x0p+99999999999999999999",
      "0x1p+0003",
      "0x000001.8p+0",
      "0x1.0123456789abcdef0123456789abp+0",
      "0x1.00000000000008p+0",
      "0x1.00000000000018p+0",
      "0x1.000000000000080000000000001p+0",
      "0x1.fffffffffffff8p+1023",
      "0x1.fffffffffffff7ffffffffp+1023",
      "0xf.fffffffffffffp+1019",
      "0x1p-1074",
      "0x1p-1075",
      "0x1.8p-1074",
      "0x1.0000000000001p-1075",
      "0x0.00000000000008p-1022",
      "0x0.0000000000000cp-1022",
      "0x1.FFFFFFFFFFFFFp+0",
      "0x1.fffffffffffffp+1024",
      "-0x1.8p+1",
      "--0x1p0",
      "-0x",
      "1.5",
      "1e308",
      "1e309",
      "inf",
      "-inf",
      "infinity",
      "nan",
      "-nan",
      "nan(0x1)",
      "0x",
      "0x0",
      "-0x0p+0",
      "0x0p+0",
      "x1p+0",
      "0xg",
  };
  return tokens;
}

// A change to either digest changes what results encode as or decode to:
// re-pin only on purpose.
constexpr std::uint64_t kEncodeDigest = 0x1a9713ed86a068b4;
constexpr std::uint64_t kDecodeDigest = 0x6c8bd3813394595e;

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << std::setw(16) << std::setfill('0') << value;
  return out.str();
}

TEST(SimResultCodecGolden, EncodedPayloadsMatchThePinnedDigest) {
  util::Fnv1a fnv;
  for (const std::string& payload : corpus()) add_text(fnv, payload);
  // The corpus must reach every section of the format.
  bool attributed = false;
  bool traced = false;
  for (const std::string& payload : corpus()) {
    attributed = attributed || payload.find("\nattr 1 ") != std::string::npos;
    traced = traced || payload.find("\ntrace 0:") == std::string::npos;
  }
  EXPECT_TRUE(attributed);
  EXPECT_TRUE(traced);
  EXPECT_EQ(hex(fnv.value()), hex(kEncodeDigest));
}

TEST(SimResultCodecGolden, DecodeOutcomesMatchThePinnedDigest) {
  util::Fnv1a fnv;
  for (const std::string& payload : corpus()) {
    EXPECT_EQ(fold_outcome(fnv, payload), kParsed);
  }

  std::vector<const std::string*> small;
  for (const std::string& payload : corpus()) {
    if (payload.size() <= kEditedPayloadLimit) small.push_back(&payload);
  }
  ASSERT_GE(small.size(), 10U);
  Rng rng(0x5EEDC0DEC);
  constexpr std::int64_t kEdits = 24000;
  std::int64_t outcomes[2] = {};  // by Outcome
  for (std::int64_t round = 0; round < kEdits; ++round) {
    const std::string& payload = *small[static_cast<std::size_t>(round) % small.size()];
    ++outcomes[fold_outcome(fnv, edit(payload, rng))];
  }

  // Each token as a series' first value (followed by a space) and as its
  // last (followed by the line's end), in a payload whose series all have
  // bins.
  const std::string& host = payload(workload::AppId::kGcm, kNoCache);
  for (const std::string& token : float_tokens()) {
    fold_outcome(fnv, with_series_value(host, "series.logical", 0, token));
    fold_outcome(fnv, with_series_value(host, "series.disk_write", -1, token));
  }

  // The edits must both parse and throw often, or the digest pins little.
  EXPECT_GT(outcomes[kParsed], kEdits / 20);
  EXPECT_GT(outcomes[kError], kEdits / 4);
  EXPECT_EQ(hex(fnv.value()), hex(kDecodeDigest));
}

// A hex token in another spelling than the writer's reads as strtod reads
// it, even where strtod rounds differently from std::from_chars: glibc
// 2.36's strtod misrounds these spellings of subnormals by one unit in the
// last place.
TEST(SimResultCodecGolden, OtherHexSpellingsReadAsStrtodReadsThem) {
  const std::string& host = payload(workload::AppId::kGcm, kNoCache);
  for (const char* token :
       {"0x3.e3513651bb8a9p-1026", "0x81262ca.838d36cp-1050", "0xc83b342.f21f124p-1052",
        "0x634205.05d176420p-1049", "0x4ff5105.a809d020p-1055", "0x1.0000000000001p-1023",
        "0x1.0123456789abcdef0123456789abp+0", "0xf.fffffffffffffp+1019", "0x0.8p+1"}) {
    const SimResult result = parse_sim_result(with_series_value(host, "series.logical", 0, token));
    const double expected = 0.0 + std::strtod(token, nullptr);
    std::uint64_t got_bits = 0;
    std::uint64_t expected_bits = 0;
    std::memcpy(&got_bits, &result.logical_rate.bins()[0], sizeof got_bits);
    std::memcpy(&expected_bits, &expected, sizeof expected_bits);
    EXPECT_EQ(got_bits, expected_bits) << token;
  }
}

/// Pages of which the last is unreadable; place() copies text so that its
/// last byte is the last readable one.
class GuardedBuffer {
 public:
  explicit GuardedBuffer(std::size_t capacity) {
    page_ = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    pages_ = (capacity + page_ - 1) / page_ + 1;
    void* base = mmap(nullptr, pages_ * page_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw Error("mmap failed");
    base_ = static_cast<char*>(base);
    guard_ = base_ + (pages_ - 1) * page_;
    if (mprotect(guard_, page_, PROT_NONE) != 0) throw Error("mprotect failed");
  }
  ~GuardedBuffer() { munmap(base_, pages_ * page_); }
  GuardedBuffer(const GuardedBuffer&) = delete;
  GuardedBuffer& operator=(const GuardedBuffer&) = delete;

  std::string_view place(std::string_view text) {
    char* at = guard_ - text.size();
    std::memcpy(at, text.data(), text.size());
    return {at, text.size()};
  }

 private:
  std::size_t page_ = 0;
  std::size_t pages_ = 0;
  char* base_ = nullptr;
  char* guard_ = nullptr;
};

TEST(SimResultCodecGolden, PayloadsEndingAtAnUnreadablePageNeverReadPastTheirEnd) {
  // Every cut of a small attributed payload and of the edge doubles' one.
  const std::string& attributed = payload(workload::AppId::kUpw, kAttributed);
  const std::string edges = serialize_sim_result(edge_result(0));
  GuardedBuffer guard(attributed.size() + edges.size());
  for (const std::string& text : {attributed, edges}) {
    EXPECT_NO_THROW((void)parse_sim_result(guard.place(text)));
    for (std::size_t n = 0; n < text.size(); ++n) {
      try {
        (void)parse_sim_result(guard.place(std::string_view(text).substr(0, n)));
      } catch (const Error&) {
      }
    }
  }
  // Every cut of each float token as the input's last value.
  const std::string& gcm = payload(workload::AppId::kGcm, kNoCache);
  const std::string head = gcm.substr(0, gcm.find("\nseries.disk_read "));
  for (const std::string& token : float_tokens()) {
    for (std::size_t n = 0; n <= token.size(); ++n) {
      try {
        (void)parse_sim_result(guard.place(head + token.substr(0, n)));
      } catch (const Error&) {
      }
    }
  }
}

}  // namespace
}  // namespace craysim::sim
