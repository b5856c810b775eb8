// Recoverable trace parsing: error budgets, ParseReport accounting, and
// resynchronization after malformed lines.
#include <gtest/gtest.h>

#include <sstream>

#include "trace/stream.hpp"
#include "util/error.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

namespace craysim::trace {
namespace {

Trace sample_trace() {
  return workload::synthesize_trace(workload::make_profile(workload::AppId::kUpw));
}

/// Serialized sample with line `index` (0-based) replaced by `garbage`.
std::string with_bad_line(const Trace& trace, std::size_t index, const std::string& garbage) {
  const std::string wire = serialize_trace(trace);
  std::istringstream in(wire);
  std::ostringstream out;
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    out << (n++ == index ? garbage : line) << '\n';
  }
  return out.str();
}

TEST(RecoverableParse, CleanInputGivesCleanReport) {
  const auto original = sample_trace();
  const auto result = parse_trace_lossy(serialize_trace(original));
  EXPECT_TRUE(result.report.clean());
  EXPECT_EQ(result.report.lines_skipped, 0);
  EXPECT_EQ(result.report.records_parsed, static_cast<std::int64_t>(original.size()));
  EXPECT_EQ(result.trace, original);
}

TEST(RecoverableParse, SkipsMalformedLineAndReportsIt) {
  const auto original = sample_trace();
  ASSERT_GE(original.size(), 10u);
  const std::string text = with_bad_line(original, 4, "not a record at all");

  // Strict mode still fails, naming the line.
  EXPECT_THROW((void)parse_trace(text), TraceFormatError);
  try {
    (void)parse_trace(text);
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos);
  }

  // Recoverable mode carries on. A ruined line can strand a few neighbours
  // whose compression references died with it, so use an unlimited budget
  // and check the shape rather than an exact count.
  RecoveryOptions recovery;
  recovery.error_budget = -1;
  const auto result = parse_trace_lossy(text, recovery);
  EXPECT_GE(result.report.lines_skipped, 1);
  ASSERT_GE(result.report.defects.size(), 1u);
  EXPECT_EQ(result.report.defects[0].line, 5);
  EXPECT_FALSE(result.report.defects[0].message.empty());
  EXPECT_LT(result.trace.size(), original.size());
  EXPECT_GT(result.trace.size(), original.size() / 2);
}

TEST(RecoverableParse, ResynchronizesAfterStrandedReferences) {
  // Line 2 is garbage; line 3's omitted processId (compression 0x08) must
  // resolve against the last successfully decoded record (line 1), and the
  // fully explicit line 4 decodes regardless.
  const std::string text =
      "128 0 0 1000 100 10 1 1 7 5\n"
      "this line fell off the pipe\n"
      "128 8 4096 500 50 10 2 2 5\n"
      "128 0 0 2000 25 10 3 3 9 5\n";
  const auto result = parse_trace_lossy(text);
  EXPECT_EQ(result.report.lines_skipped, 1);
  ASSERT_EQ(result.trace.size(), 3u);
  EXPECT_EQ(result.trace[1].process_id, 7u);  // stranded reference resolved
  EXPECT_EQ(result.trace[1].start_time, Ticks(150));
  EXPECT_EQ(result.trace[2].process_id, 9u);
}

TEST(RecoverableParse, ErrorBudgetExhaustionThrowsFaultError) {
  std::ostringstream bad;
  for (int i = 0; i < 10; ++i) bad << "garbage line " << i << '\n';
  RecoveryOptions recovery;
  recovery.error_budget = 4;
  EXPECT_THROW((void)parse_trace_lossy(bad.str(), recovery), FaultError);
  try {
    (void)parse_trace_lossy(bad.str(), recovery);
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos);
  }
}

TEST(RecoverableParse, NegativeBudgetIsUnlimited) {
  std::ostringstream bad;
  for (int i = 0; i < 500; ++i) bad << "garbage line " << i << '\n';
  RecoveryOptions recovery;
  recovery.error_budget = -1;
  const auto result = parse_trace_lossy(bad.str(), recovery);
  EXPECT_EQ(result.report.lines_skipped, 500);
  EXPECT_TRUE(result.trace.empty());
  // The defect log stays bounded even when the defect count is not.
  EXPECT_EQ(static_cast<std::int64_t>(result.report.defects.size()),
            ParseReport::kMaxRecordedDefects);
}

TEST(RecoverableParse, BudgetCountsDefectsNotRecords) {
  // Three explicit records around one bad line: a budget of exactly one
  // tolerates it, a budget of zero does not.
  const std::string text =
      "128 0 0 1000 100 10 1 1 7 5\n"
      "junk\n"
      "128 0 0 2000 25 10 2 2 9 5\n";
  RecoveryOptions one;
  one.error_budget = 1;
  const auto result = parse_trace_lossy(text, one);
  EXPECT_EQ(result.report.lines_skipped, 1);
  EXPECT_EQ(result.report.records_parsed, 2);
  RecoveryOptions zero;
  zero.error_budget = 0;
  EXPECT_THROW((void)parse_trace_lossy(text, zero), FaultError);
}

TEST(RecoverableParse, ReaderExposesLiveReport) {
  const auto original = sample_trace();
  const std::string text = with_bad_line(original, 1, "zzz");
  RecoveryOptions unlimited;
  unlimited.error_budget = -1;
  TraceTextReader reader(text, unlimited);
  EXPECT_TRUE(reader.recovering());
  std::size_t parsed = 0;
  while (reader.next()) ++parsed;
  EXPECT_EQ(reader.report().records_parsed, static_cast<std::int64_t>(parsed));
  EXPECT_GE(reader.report().lines_skipped, 1);
}

TEST(RecoverableParse, FileRoundTrip) {
  const auto original = sample_trace();
  const std::string path = testing::TempDir() + "craysim_lossy_roundtrip.trace";
  save_trace(original, path, "lossy round trip");
  const auto result = load_trace_lossy(path);
  EXPECT_TRUE(result.report.clean());
  EXPECT_EQ(result.trace, original);
  EXPECT_THROW((void)load_trace_lossy(path + ".does-not-exist"), Error);
}

}  // namespace
}  // namespace craysim::trace
