// Recovery and cost tests for the sweep journal (docs/RESILIENCE.md, "The
// journal"). A journal cut at any byte, or damaged inside its log of
// frames, resumes to the uninterrupted run's results and final bytes;
// damage anywhere else fails with craysim::Error and nothing else. A sweep
// writes about twice its final journal, whatever its length, a resume over
// a finished journal writes nothing, and a journal that cannot be written
// ends the sweep with craysim::Error at any thread count.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "runner/journal.hpp"
#include "runner/runner.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace craysim::runner {
namespace {

/// Lossless codec whose payloads hold every byte class the journal escapes
/// (quotes, backslashes, newlines, tabs, other control bytes), padded with
/// `pad` filler bytes. decode() rejects anything encode() cannot produce
/// with craysim::Error, as a real codec must.
struct EscapingCodec {
  std::size_t pad = 0;

  [[nodiscard]] std::string encode(std::uint64_t value) const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "v=%llx;", static_cast<unsigned long long>(value));
    std::string out = std::string(buf) + "\"q\"\\\n\t\x01";
    out.append(pad, 'p');
    return out;
  }
  [[nodiscard]] std::uint64_t decode(std::string_view text) const {
    std::uint64_t value = 0;
    const char* end = text.data() + text.size();
    const auto parsed = text.size() > 2 && text.substr(0, 2) == "v="
                            ? std::from_chars(text.data() + 2, end, value, 16)
                            : std::from_chars_result{text.data(), std::errc::invalid_argument};
    if (parsed.ec != std::errc() || parsed.ptr == end || *parsed.ptr != ';') {
      throw Error("codec: bad payload");
    }
    return value;
  }
  [[nodiscard]] std::uint64_t digest(std::size_t point) const { return 0x5100 + point; }
};

constexpr std::size_t kPoints = 8;
constexpr std::size_t kFailingPoint = 5;  ///< settles as failed, journaling its error text

std::uint64_t point_value(std::size_t i) { return i * i * 977 + 13; }

std::string temp_journal(const char* name) {
  return testing::TempDir() + "runner_journal_" + name + "_" + std::to_string(::getpid()) +
         ".journal";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spill(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  ASSERT_TRUE(out.good()) << path;
}

/// Bytes this process has written so far (/proc/self/io wchar); -1 when
/// the kernel does not say.
std::int64_t written_bytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  std::int64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return -1;
}

struct SweepRun {
  std::vector<PointResult<std::uint64_t>> results;
  std::int64_t executed = 0;
  std::int64_t bytes_written = 0;
  std::int64_t syncs = 0;
  std::int64_t corrupt = 0;
};

SweepRun run_sweep(const std::string& path, std::size_t points, unsigned threads,
                   const EscapingCodec& codec) {
  RunnerOptions options;
  options.threads = threads;
  options.journal_path = path;
  ExperimentRunner pool(options);
  std::vector<std::size_t> indices(points);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  std::atomic<std::int64_t> executed{0};
  SweepRun run;
  run.results = pool.run_settled(
      indices,
      [&](std::size_t i) {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (i == kFailingPoint) throw Error("point \"5\"\nfails\ton purpose");
        return point_value(i);
      },
      codec);
  run.executed = executed.load();
  obs::MetricsRegistry registry;
  pool.publish_metrics(registry);
  run.bytes_written = registry.counter("runner.journal.bytes_written").value();
  run.syncs = registry.counter("runner.journal.syncs").value();
  run.corrupt = registry.counter("runner.journal.corrupt_records").value();
  return run;
}

void expect_same_results(const SweepRun& run, const SweepRun& reference,
                         const std::string& where) {
  ASSERT_EQ(run.results.size(), reference.results.size()) << where;
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    const auto& got = run.results[i];
    const auto& want = reference.results[i];
    ASSERT_EQ(got.ok(), want.ok()) << where << ", point " << i;
    if (want.ok()) {
      EXPECT_EQ(*got.value, *want.value) << where << ", point " << i;
    }
    EXPECT_EQ(got.outcome.status, want.outcome.status) << where << ", point " << i;
    EXPECT_EQ(got.outcome.error, want.outcome.error) << where << ", point " << i;
    EXPECT_EQ(got.outcome.attempts, want.outcome.attempts) << where << ", point " << i;
  }
}

/// The runner's digest of the kPoints-point sweep: the count folded with
/// every point's input digest.
std::uint64_t sweep_digest() {
  util::Fnv1a sweep;
  sweep.add(static_cast<std::uint64_t>(kPoints));
  for (std::size_t i = 0; i < kPoints; ++i) sweep.add(EscapingCodec{}.digest(i));
  return sweep.value();
}

/// Bytes of the first `lines` lines of `text`.
std::size_t prefix_of_lines(const std::string& text, std::size_t lines) {
  std::size_t at = 0;
  for (std::size_t i = 0; i < lines; ++i) at = text.find('\n', at) + 1;
  return at;
}

/// Point `index`'s record in the finished journal `reference`.
SweepJournal::Record settled_record(const std::string& path, const std::string& reference,
                                    std::size_t index) {
  spill(path, reference);
  const SweepJournal finished(path, sweep_digest(), kPoints);
  EXPECT_EQ(finished.records().size(), kPoints);
  return finished.records().at(index);
}

/// What a crash leaves after a resume of the sweep journaled in `reference`
/// (canonical) began: its header and first `canonical` records, then one
/// frame per point in `framed`, in that settle order.
std::string interrupted_journal(const std::string& path, const std::string& reference,
                                std::size_t canonical, const std::vector<std::size_t>& framed) {
  std::vector<SweepJournal::Record> records;
  for (const std::size_t index : framed) records.push_back(settled_record(path, reference, index));
  spill(path, reference.substr(0, prefix_of_lines(reference, 1 + canonical)));
  {
    SweepJournal journal(path, sweep_digest(), kPoints);
    for (const SweepJournal::Record& record : records) journal.append(record);
  }
  return slurp(path);
}

/// Applies one random edit (replace, insert, delete) at a position drawn
/// from [begin, end).
void edit(std::string& text, Rng& rng, std::size_t begin, std::size_t end) {
  const auto pos = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(begin), static_cast<std::int64_t>(end) - 1));
  switch (rng.uniform_int(0, 2)) {
    case 0: text[pos] = static_cast<char>(rng.uniform_int(1, 255)); break;
    case 1: text.insert(pos, 1, static_cast<char>(rng.uniform_int(1, 255))); break;
    default: text.erase(pos, 1); break;
  }
}

/// A fresh uninterrupted run: the results and bytes every resume must reach.
struct Reference {
  SweepRun run;
  std::string bytes;
};

Reference reference_run(const std::string& path) {
  std::remove(path.c_str());
  Reference ref;
  ref.run = run_sweep(path, kPoints, 1, EscapingCodec{});
  ref.bytes = slurp(path);
  EXPECT_EQ(ref.run.executed, static_cast<std::int64_t>(kPoints));
  EXPECT_EQ(ref.run.corrupt, 0);
  return ref;
}

TEST(RunnerJournalTest, ResumeAfterATruncationAtEveryByteIsByteIdentical) {
  const std::string path = temp_journal("truncate");
  const Reference ref = reference_run(path);
  const std::string full = interrupted_journal(path, ref.bytes, 3, {6, kFailingPoint, 4});
  const std::uint64_t digest = sweep_digest();
  const std::size_t frames_begin = prefix_of_lines(ref.bytes, 4);
  ASSERT_EQ(full.substr(0, frames_begin), ref.bytes.substr(0, frames_begin));
  ASSERT_EQ(full[frames_begin], '#');
  const SweepJournal::Record unsettled = settled_record(path, ref.bytes, 7);
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    const std::string prefix = full.substr(0, cut);
    const std::string where = "cut at byte " + std::to_string(cut);
    spill(path, prefix);
    // A record appended after the cut survives another crash: the torn tail
    // went first, so the new frame does not share its line.
    {
      SweepJournal journal(path, digest, kPoints);
      journal.append(unsettled);
    }
    {
      const SweepJournal reopened(path, digest, kPoints);
      EXPECT_EQ(reopened.corrupt_records(), 0) << where;
      EXPECT_TRUE(std::any_of(reopened.records().begin(), reopened.records().end(),
                              [](const SweepJournal::Record& r) { return r.index == 7; }))
          << where;
    }
    const SweepRun resumed = run_sweep(path, kPoints, 2, EscapingCodec{});
    expect_same_results(resumed, ref.run, where);
    ASSERT_EQ(slurp(path), ref.bytes) << where;
    // Only complete lines restore a point: the torn one runs again.
    const auto complete = static_cast<std::int64_t>(std::count(prefix.begin(), prefix.end(), '\n'));
    EXPECT_EQ(resumed.executed,
              static_cast<std::int64_t>(kPoints) - std::max<std::int64_t>(0, complete - 1) - 1)
        << where;
    EXPECT_EQ(resumed.corrupt, 0) << where;
  }
  std::remove(path.c_str());
}

TEST(RunnerJournalTest, DamageInsideFramesRerunsThosePointsAndConverges) {
  const std::string path = temp_journal("frames");
  const Reference ref = reference_run(path);
  const std::string full = interrupted_journal(path, ref.bytes, 3, {6, kFailingPoint, 4, 7});
  const std::size_t frames_begin = prefix_of_lines(ref.bytes, 4);
  Rng rng(0x10A7);
  int rounds = 0;
  for (int tries = 0; rounds < 400 && tries < 4000; ++tries) {
    std::string text = full;
    const auto edits = rng.uniform_int(1, 4);
    // Edits stay before the final newline: losing it is a torn tail, not
    // damage.
    for (std::int64_t e = 0; e < edits; ++e) edit(text, rng, frames_begin, text.size() - 1);
    if (text == full) continue;
    ++rounds;
    spill(path, text);
    const SweepRun resumed = run_sweep(path, kPoints, rounds % 2 == 0 ? 4 : 1, EscapingCodec{});
    const std::string where = "round " + std::to_string(rounds);
    expect_same_results(resumed, ref.run, where);
    ASSERT_EQ(slurp(path), ref.bytes) << where;
    EXPECT_GT(resumed.corrupt, 0) << where;
  }
  EXPECT_EQ(rounds, 400);
  std::remove(path.c_str());
}

TEST(RunnerJournalTest, DamageAnywhereFailsOnlyWithError) {
  const std::string path = temp_journal("anywhere");
  const Reference ref = reference_run(path);
  const std::string full = interrupted_journal(path, ref.bytes, 3, {6, kFailingPoint, 4});
  Rng rng(0xA11);
  int errors = 0;
  for (int round = 0; round < 400; ++round) {
    std::string text = full;
    const auto edits = rng.uniform_int(1, 4);
    for (std::int64_t e = 0; e < edits; ++e) edit(text, rng, 0, text.size());
    spill(path, text);
    try {
      (void)run_sweep(path, kPoints, round % 2 == 0 ? 4 : 1, EscapingCodec{});
    } catch (const Error&) {
      ++errors;  // a damaged header or canonical line: refused, not guessed at
    }
    // Any other exception escapes and fails the test.
  }
  EXPECT_GT(errors, 0);
  std::remove(path.c_str());
}

TEST(RunnerJournalTest, FrameWithADamagedMarkerIsNotReadAsCanonical) {
  const std::string path = temp_journal("marker");
  const Reference ref = reference_run(path);
  const std::string full = interrupted_journal(path, ref.bytes, 3, {6, 4});
  const std::size_t frames_begin = prefix_of_lines(ref.bytes, 4);
  ASSERT_EQ(full[frames_begin], '#');
  // A newline in place of the marker also leaves a blank line: two damaged
  // lines.
  for (const auto& [marker, damaged] : {std::pair{'{', 1}, {' ', 1}, {'x', 1}, {'\n', 2}}) {
    std::string text = full;
    text[frames_begin] = marker;
    spill(path, text);
    const SweepRun resumed = run_sweep(path, kPoints, 1, EscapingCodec{});
    const std::string where = "marker " + std::to_string(static_cast<int>(marker));
    expect_same_results(resumed, ref.run, where);
    EXPECT_FALSE(resumed.results[6].outcome.from_journal) << where;  // dropped, ran again
    EXPECT_TRUE(resumed.results[4].outcome.from_journal) << where;   // the next frame holds
    EXPECT_EQ(resumed.corrupt, damaged) << where;
    EXPECT_EQ(slurp(path), ref.bytes) << where;
  }
  std::remove(path.c_str());
}

TEST(RunnerJournalTest, DamagedStartOfACanonicalRecordCostsAtMostThatRecord) {
  const std::string path = temp_journal("canonical");
  const Reference ref = reference_run(path);
  const std::string full = interrupted_journal(path, ref.bytes, 3, {6, 4});
  // A canonical line whose first byte is damaged ends the canonical section
  // early. A record line after it, before any line starting with '#', makes
  // the journal refuse, whether or not frames follow.
  for (const std::string& text : {full, ref.bytes}) {
    for (const std::size_t line : {std::size_t{1}, std::size_t{2}}) {
      std::string damaged = text;
      damaged[prefix_of_lines(text, line)] = 'x';
      spill(path, damaged);
      EXPECT_THROW((void)run_sweep(path, kPoints, 1, EscapingCodec{}), Error) << "line " << line;
      EXPECT_EQ(slurp(path), damaged) << "line " << line;  // left alone
    }
  }
  // The last canonical line cannot be told from a first frame whose marker
  // is damaged: it is dropped, counted, and its point runs again. In `full`
  // that is point 2, which runs with the never-settled 3, 5 and 7.
  struct Case {
    std::string text;
    std::size_t last_line;
    std::int64_t runs;
  };
  for (const Case& c : {Case{full, 3, 4}, Case{ref.bytes, kPoints, 1}}) {
    std::string damaged = c.text;
    damaged[prefix_of_lines(c.text, c.last_line)] = 'x';
    spill(path, damaged);
    const SweepRun resumed = run_sweep(path, kPoints, 1, EscapingCodec{});
    const std::string where = "last line " + std::to_string(c.last_line);
    expect_same_results(resumed, ref.run, where);
    EXPECT_EQ(resumed.executed, c.runs) << where;
    EXPECT_FALSE(resumed.results[c.last_line - 1].outcome.from_journal) << where;
    EXPECT_EQ(resumed.corrupt, 1) << where;
    EXPECT_EQ(slurp(path), ref.bytes) << where;
  }
  std::remove(path.c_str());
}

// A cut of this sweep's header resumes as a fresh journal; the truncation
// test above covers every such cut.
TEST(RunnerJournalTest, AFileWithNoNewlineIsATornHeaderOnlyIfItIsACutOfThisHeader) {
  const std::string path = temp_journal("oneline");
  const Reference ref = reference_run(path);
  const std::string header = ref.bytes.substr(0, ref.bytes.find('\n'));
  std::string other_sweep = header;
  char& digit = other_sweep[other_sweep.find("0x") + 2];
  digit = digit == '0' ? '1' : '0';  // another sweep's digest
  for (const std::string& text :
       {other_sweep, std::string("{\"a\":1}"), std::string("not a journal"), header + " ",
        std::string("   ")}) {
    spill(path, text);
    EXPECT_THROW((void)SweepJournal(path, sweep_digest(), kPoints), Error) << text;
    EXPECT_THROW((void)run_sweep(path, kPoints, 1, EscapingCodec{}), Error) << text;
    EXPECT_EQ(slurp(path), text);  // not replaced
  }
  std::remove(path.c_str());
}

TEST(RunnerJournalTest, SweepWritesAboutTwiceItsFinalJournal) {
  // With 4 KiB payloads, rewriting the journal after every point would
  // write ~250x the final bytes over 500 points; one frame per point plus
  // one compaction writes ~2x.
  const std::string path = temp_journal("flat");
  std::remove(path.c_str());
  const EscapingCodec codec{4096};
  const std::int64_t wchar_before = written_bytes();
  const SweepRun run = run_sweep(path, 500, 4, codec);
  const std::int64_t wchar = written_bytes() - wchar_before;
  const auto final_bytes = static_cast<double>(slurp(path).size());
  EXPECT_EQ(run.executed, 500);
  EXPECT_GE(run.bytes_written, static_cast<std::int64_t>(2 * final_bytes));
  EXPECT_LE(static_cast<double>(run.bytes_written), 2.1 * final_bytes);
  if (wchar_before >= 0) {
    EXPECT_LE(static_cast<double>(wchar), 2.1 * final_bytes);
  }
  // One sync per append, plus the header's and the compaction's.
  EXPECT_EQ(run.syncs, 500 + 2);
  std::remove(path.c_str());
}

TEST(RunnerJournalTest, ResumeOverAFinishedJournalWritesNothing) {
  const std::string path = temp_journal("finished");
  std::remove(path.c_str());
  const EscapingCodec codec{512};
  const SweepRun first = run_sweep(path, 64, 4, codec);
  const std::string bytes = slurp(path);
  struct stat before {};
  ASSERT_EQ(::stat(path.c_str(), &before), 0);

  // Not checked through /proc/self/io: the ASan runtime writes a few bytes
  // of its own whenever a thread starts.
  const SweepRun resumed = run_sweep(path, 64, 4, codec);
  EXPECT_EQ(resumed.executed, 0);
  EXPECT_EQ(resumed.bytes_written, 0);
  EXPECT_EQ(resumed.syncs, 0);
  struct stat after {};
  ASSERT_EQ(::stat(path.c_str(), &after), 0);
  EXPECT_EQ(after.st_ino, before.st_ino);  // not replaced by a rename
  EXPECT_EQ(after.st_mtim.tv_sec, before.st_mtim.tv_sec);
  EXPECT_EQ(after.st_mtim.tv_nsec, before.st_mtim.tv_nsec);
  EXPECT_EQ(slurp(path), bytes);  // nothing appended
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_TRUE(resumed.results[i].outcome.from_journal) << i;
    EXPECT_EQ(resumed.results[i].ok(), first.results[i].ok()) << i;
  }
  std::remove(path.c_str());
}

TEST(RunnerJournalTest, NonCanonicalEscapesRestoreAndCompactToTheCanonicalBytes) {
  const std::string path = temp_journal("escapes");
  const Reference ref = reference_run(path);
  // Point 0's payload escapes a newline as "\n", a tab as "\t" and spells
  // out a 'q'. Each edit below reads back as the same payload, but is not
  // what compaction writes, so the resume must rewrite the file.
  const std::size_t payload = ref.bytes.find("\"result\":\"v=");
  ASSERT_NE(payload, std::string::npos);
  const std::pair<std::string, std::string> edits[] = {
      {"\\n", "\\u000a"}, {"\\t", "\t"}, {"q", "\\u0071"}};
  for (const auto& [from, to] : edits) {
    std::string text = ref.bytes;
    const std::size_t at = text.find(from, payload);
    ASSERT_LT(at, text.find('\n', payload)) << from;
    text.replace(at, from.size(), to);
    spill(path, text);
    const SweepRun resumed = run_sweep(path, kPoints, 1, EscapingCodec{});
    expect_same_results(resumed, ref.run, to);
    EXPECT_EQ(resumed.executed, 0) << to;
    EXPECT_GT(resumed.bytes_written, 0) << to;
    EXPECT_EQ(slurp(path), ref.bytes) << to;
  }
  std::remove(path.c_str());
}

/// `text` as a JSON string, escaped one byte at a time as the journal
/// format specifies.
std::string reference_json_string(std::string_view text) {
  std::string out = "\"";
  for (const char ch : text) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"') out += "\\\"";
    else if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else if (c == '\r') out += "\\r";
    else if (c == '\t') out += "\\t";
    else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

TEST(RunnerJournalTest, EveryByteValueRoundTripsAtEveryAlignment) {
  const std::string path = temp_journal("bytes");
  std::remove(path.c_str());
  std::string every_byte(256, '\0');
  for (std::size_t b = 0; b < every_byte.size(); ++b) every_byte[b] = static_cast<char>(b);
  // Point i's text starts i bytes in, so each byte value meets each offset
  // within an eight-byte word; the failing point carries it as its error.
  std::vector<SweepJournal::Record> records(kPoints);
  std::string expected;
  for (std::size_t i = 0; i < kPoints; ++i) {
    SweepJournal::Record& r = records[i];
    r.index = i;
    r.input_digest = EscapingCodec{}.digest(i);
    const std::string text = std::string(i, 'p') + every_byte + std::string(kPoints - i, 'p');
    const bool failed = i == kFailingPoint;
    r.outcome.status = failed ? PointStatus::kFailed : PointStatus::kOk;
    (failed ? r.outcome.error : r.payload) = text;
    char head[128];
    std::snprintf(head, sizeof head,
                  "{\"index\":%zu,\"digest\":\"0x%016llx\",\"status\":\"%s\",\"attempts\":1,"
                  "\"backoff_ns\":0,\"%s\":",
                  i, static_cast<unsigned long long>(r.input_digest), failed ? "failed" : "ok",
                  failed ? "error" : "result");
    expected += head + reference_json_string(text) + "}\n";
  }
  {
    SweepJournal journal(path, sweep_digest(), kPoints);
    for (const SweepJournal::Record& r : records) journal.append(r);
    journal.compact();
  }
  const std::string bytes = slurp(path);
  EXPECT_EQ(bytes.substr(bytes.find('\n') + 1), expected);
  SweepJournal reopened(path, sweep_digest(), kPoints);
  ASSERT_EQ(reopened.records().size(), kPoints);
  for (std::size_t i = 0; i < kPoints; ++i) {
    EXPECT_EQ(reopened.records()[i].payload, records[i].payload) << i;
    EXPECT_EQ(reopened.records()[i].outcome.error, records[i].outcome.error) << i;
  }
  EXPECT_EQ(reopened.compact().bytes, 0);  // read back as canonical
  std::remove(path.c_str());
}

/// Child exit codes of run_under_file_size_limit.
enum LimitOutcome : int {
  kThrewJournalError = 0,
  kThrewOtherError = 1,
  kThrewNonError = 2,
  kNoThrow = 3,
  kPoolUnusable = 4,
};

/// Runs a 64-point journaled sweep with 4 KiB payloads in a child process
/// whose file-size limit (64 KiB, SIGXFSZ ignored) makes a journal write
/// fail partway. Returns the child's LimitOutcome, or 128 + the signal
/// that killed it.
int run_under_file_size_limit(unsigned threads) {
  const std::string path = temp_journal(threads == 1 ? "fsize1" : "fsizeN");
  std::remove(path.c_str());
  const pid_t child = ::fork();
  if (child == 0) {
    ::signal(SIGXFSZ, SIG_IGN);
    const rlimit limit{64 * 1024, 64 * 1024};
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(99);
    int code = kNoThrow;
    RunnerOptions options;
    options.threads = threads;
    options.journal_path = path;
    ExperimentRunner pool(options);
    std::vector<std::size_t> indices(64);
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    try {
      (void)pool.run_settled(indices, [](std::size_t i) { return point_value(i); },
                             EscapingCodec{4096});
    } catch (const Error& e) {
      code = std::string_view(e.what()).rfind("journal: ", 0) == 0 ? kThrewJournalError
                                                                   : kThrewOtherError;
    } catch (...) {
      code = kThrewNonError;
    }
    // The failed batch drained: the pool still runs work.
    std::atomic<int> ran{0};
    pool.run_indexed(16, [&](std::size_t) { ran.fetch_add(1, std::memory_order_relaxed); });
    if (code == kThrewJournalError && ran.load() != 16) code = kPoolUnusable;
    ::_exit(code);
  }
  int status = 0;
  EXPECT_EQ(::waitpid(child, &status, 0), child);
  std::remove(path.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

TEST(RunnerJournalTest, JournalWriteFailureThrowsErrorSerial) {
  EXPECT_EQ(run_under_file_size_limit(1), kThrewJournalError);
}

TEST(RunnerJournalTest, JournalWriteFailureThrowsErrorParallel) {
  EXPECT_EQ(run_under_file_size_limit(4), kThrewJournalError);
}

}  // namespace
}  // namespace craysim::runner
