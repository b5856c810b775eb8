// Malformed-input property test for parse_sim_result. Sweep journals store
// serialized SimResults, and the journal's canonical lines carry no
// checksum, so a payload read back from disk may be damaged anywhere. Random
// 1-4 byte edits of valid payloads must either parse or throw
// craysim::Error: never crash, allocate without bound, overflow, or throw
// anything else. Deterministically seeded, so a failure reproduces.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/attr.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/profiles.hpp"
#include "workload/request.hpp"

namespace craysim::sim {
namespace {

/// upw with latency attribution on: every section of the format, including
/// the five attribution tables.
std::string upw_attributed() {
  obs::AttributionLedger ledger;
  SimParams params = SimParams::paper_main_memory(Bytes{16} * kMB);
  params.attribution = &ledger;
  Simulator simulator(params);
  simulator.add_app(workload::make_profile(workload::AppId::kUpw));
  return serialize_sim_result(simulator.run());
}

/// Alternating reads and writes over two files: a short annotated trace.
class MixedRequests final : public workload::RequestSource {
 public:
  std::optional<workload::Request> next() override {
    if (issued_ >= 48) return std::nullopt;
    workload::Request r;
    r.compute = Ticks::from_ms(2);
    r.file = static_cast<std::uint32_t>(1 + issued_ % 2);
    r.write = issued_ % 3 == 0;
    r.offset = (issued_ / 2) * 32 * kKiB;
    r.length = 32 * kKiB;
    ++issued_;
    return r;
  }

 private:
  std::int64_t issued_ = 0;
};

std::string with_annotated_trace() {
  SimParams params = SimParams::paper_ssd(Bytes{16} * kMB);
  params.record_trace = true;
  Simulator simulator(params);
  simulator.add_process("mixed", std::make_unique<MixedRequests>());
  const SimResult result = simulator.run();
  EXPECT_FALSE(result.annotated_trace.empty());
  return serialize_sim_result(result);
}

/// Applies `count` random single-byte edits (replace, insert, delete).
std::string mutate(std::string text, Rng& rng, int count) {
  for (int i = 0; i < count && !text.empty(); ++i) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
    switch (rng.uniform_int(0, 2)) {
      case 0: text[pos] = static_cast<char>(rng.uniform_int(1, 255)); break;
      case 1: text.insert(pos, 1, static_cast<char>(rng.uniform_int(1, 255))); break;
      default: text.erase(pos, 1); break;
    }
  }
  return text;
}

/// Replaces the `nth` (0-based) whitespace-separated token after `key`.
std::string with_token(std::string text, const std::string& key, int nth,
                       const std::string& value) {
  std::size_t at = text.find(key);
  EXPECT_NE(at, std::string::npos) << key;
  at += key.size();
  for (int i = 0; i <= nth; ++i) {
    at = text.find_first_not_of(' ', at);
    if (i < nth) at = text.find_first_of(" \n", at);
  }
  const std::size_t end = text.find_first_of(" \n", at);
  return text.replace(at, end - at, value);
}

TEST(SimResultFuzz, HugeCountsThrowError) {
  const std::string wire = upw_attributed();
  ASSERT_NO_THROW((void)parse_sim_result(wire));
  const std::string huge = "99999999999999";
  std::vector<std::string> bad = {with_token(wire, "\nprocs", 0, huge),
                                  with_token(wire, "\nseries.logical", 1, huge),
                                  with_token(wire, "\nseries.disk ", 1, huge),
                                  // A width this large makes width * bin overflow.
                                  with_token(wire, "\nseries.disk_read", 0, "9223372036854775807"),
                                  with_token(wire, "\ntrace", 0, "18446744073709551615:")};
  for (int table = 0; table < 5; ++table) {
    bad.push_back(with_token(wire, "\nattr 1", table, huge));
  }
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_THROW((void)parse_sim_result(bad[i]), Error) << "case " << i;
  }
}

TEST(SimResultFuzz, MutatedPayloadsParseOrThrowError) {
  const std::vector<std::string> corpus = {upw_attributed(), with_annotated_trace()};
  Rng rng(0x51F022);
  constexpr int kRounds = 5000;
  for (std::size_t c = 0; c < corpus.size(); ++c) {
    ASSERT_NO_THROW((void)parse_sim_result(corpus[c]));
    int parsed = 0;
    for (int round = 0; round < kRounds; ++round) {
      const std::string text = mutate(corpus[c], rng, 1 + static_cast<int>(rng.uniform_int(0, 3)));
      try {
        (void)parse_sim_result(text);
        ++parsed;
      } catch (const Error&) {
        // Detected as malformed: the contract.
      }
      // Anything else escapes and fails the test.
    }
    // Most edits land in a digit or a keyword, so most rounds throw; some
    // still parse into a different result, which only a checksum catches.
    EXPECT_LT(parsed, kRounds) << "corpus " << c;
  }
}

}  // namespace
}  // namespace craysim::sim
