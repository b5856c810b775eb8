// Malformed-input property test for AsciiTraceDecoder / TraceTextReader:
// random byte mutations of valid trace lines must either parse or throw
// TraceFormatError carrying the right line number — never crash, hang, or
// silently misparse into an invalid record. Deterministically seeded, so a
// failure reproduces.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "trace/codec.hpp"
#include "trace/record.hpp"
#include "trace/stream.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

namespace craysim::trace {
namespace {

std::string valid_wire() {
  const auto trace =
      workload::synthesize_trace(workload::make_profile(workload::AppId::kVenus));
  return serialize_trace(trace, "fuzz corpus");
}

/// Applies `count` random single-byte mutations (replace, insert, delete).
std::string mutate(std::string text, Rng& rng, int count) {
  for (int i = 0; i < count && !text.empty(); ++i) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
    switch (rng.uniform_int(0, 2)) {
      case 0:  // replace with an arbitrary byte (printable-biased)
        text[pos] = static_cast<char>(rng.uniform_int(1, 255));
        break;
      case 1:  // insert
        text.insert(pos, 1, static_cast<char>(rng.uniform_int(1, 255)));
        break;
      default:  // delete
        text.erase(pos, 1);
        break;
    }
  }
  return text;
}

/// The decoder's output contract: any record it returns must satisfy the
/// format's own validity rules.
void expect_sane(const TraceRecord& record) {
  EXPECT_NO_THROW(validate(record));
  EXPECT_GE(record.length, 0);
}

TEST(TraceFuzz, MutatedLinesParseOrThrowCleanly) {
  const std::string wire = valid_wire();
  Rng rng(0xF022);
  constexpr int kRounds = 400;
  for (int round = 0; round < kRounds; ++round) {
    const std::string text = mutate(wire, rng, 1 + static_cast<int>(rng.uniform_int(0, 7)));
    TraceTextReader reader(text);
    try {
      while (auto record = reader.next()) expect_sane(*record);
    } catch (const TraceFormatError& e) {
      // The line number in the message must name the line the reader was on.
      const std::string expected = "line " + std::to_string(reader.line_number());
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << "round " << round << ": message '" << e.what() << "' lacks '" << expected << "'";
    }
    // Any other exception type (or a crash) fails the test by escaping.
  }
}

TEST(TraceFuzz, MutatedSingleLinesAgainstBareDecoder) {
  // Bare decoder (no reader): mutations of one line either decode, return
  // nullopt (comment/blank), or throw TraceFormatError. Nothing else.
  const std::string wire = valid_wire();
  std::istringstream in(wire);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_GT(lines.size(), 10u);

  Rng rng(0xF0220);
  constexpr int kRounds = 2000;
  for (int round = 0; round < kRounds; ++round) {
    AsciiTraceDecoder decoder;
    // Replay a clean prefix so relative-field state is populated, then hit
    // the decoder with a mutated continuation.
    const auto prefix = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(lines.size()) - 2));
    std::size_t fed = 0;
    try {
      for (; fed < prefix; ++fed) (void)decoder.decode_line(lines[fed]);
    } catch (const TraceFormatError&) {
      FAIL() << "clean prefix must decode";
    }
    const std::string mutated = mutate(lines[prefix], rng, 1 + static_cast<int>(rng.uniform_int(0, 3)));
    try {
      if (auto record = decoder.decode_line(mutated)) expect_sane(*record);
    } catch (const TraceFormatError&) {
      // acceptable: detected as malformed
    }
  }
}

TEST(TraceFuzz, RecoverableReaderSurvivesHeavyMutation) {
  // Heavier mutation over the whole stream: the recoverable reader must
  // consume everything without crashing and account for every line as
  // either a record, a comment/blank, or a defect.
  const std::string wire = valid_wire();
  Rng rng(0xF0222);
  for (int round = 0; round < 20; ++round) {
    const std::string text = mutate(wire, rng, 200);
    RecoveryOptions unlimited;
    unlimited.error_budget = -1;
    TraceTextReader reader(text, unlimited);
    std::int64_t records = 0;
    while (auto record = reader.next()) {
      expect_sane(*record);
      ++records;
    }
    EXPECT_EQ(records, reader.report().records_parsed);
    EXPECT_GT(records + reader.report().lines_skipped, 0);
  }
}

}  // namespace
}  // namespace craysim::trace
