// Pins the ASCII codec's observable behaviour, so a rewrite of the decoder or
// encoder is checked against the code it replaces:
// - decoder: every outcome of decoding each app's synthesized trace with
//   seeded 1-3 byte edits mixed in, plus hand-written edge lines, folded into
//   one FNV-1a digest. An outcome is the record's fields (compression
//   included), nullopt with the comment state, or the exact error message.
//   A mutated line that decodes commits its state, so later outcomes also pin
//   what a line changes, and that a line which throws changes nothing.
// - encoder: the serialized text of the same traces, in a second digest.
// - bounds: a line that ends exactly at an unreadable page, well-formed or
//   cut short, decodes or throws without touching that page.
// - binary: the encode_binary bytes of the same traces, and every outcome of
//   decoding framed slices of them with seeded 1-4 byte edits, plus what a
//   BinaryRecordDecoder::reset() mid-stream forgets.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <iomanip>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "trace/binary.hpp"
#include "trace/binary_stream.hpp"
#include "trace/codec.hpp"
#include "trace/stream.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

namespace craysim::trace {
namespace {

/// Each app's synthesized trace, then all seven merged as separate processes
/// (pid 100 + app index) so the corpus also switches process between lines.
const std::vector<Trace>& corpus() {
  static const std::vector<Trace> traces = [] {
    std::vector<Trace> out;
    std::vector<Trace> per_process;
    std::uint32_t index = 0;
    for (const workload::AppId app : workload::all_apps()) {
      const workload::AppProfile profile = workload::make_profile(app);
      out.push_back(workload::synthesize_trace(profile));
      workload::TraceGenOptions options;
      options.process_id = 100 + index++;
      per_process.push_back(workload::synthesize_trace(profile, options));
    }
    out.push_back(workload::merge_traces(per_process));
    return out;
  }();
  return traces;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void add_text(util::Fnv1a& fnv, std::string_view text) {
  fnv.add(text.size());
  fnv.add_text(text);
}

enum Outcome { kRecord, kNothing, kError };

void add_record(util::Fnv1a& fnv, const TraceRecord& r) {
  fnv.add(std::uint8_t{kRecord});
  fnv.add(r.record_type);
  fnv.add(r.compression);
  fnv.add(r.offset);
  fnv.add(r.length);
  fnv.add(r.start_time.count());
  fnv.add(r.completion_time.count());
  fnv.add(r.operation_id);
  fnv.add(r.file_id);
  fnv.add(r.process_id);
  fnv.add(r.process_time.count());
}

void add_error(util::Fnv1a& fnv, const TraceFormatError& e) {
  fnv.add(std::uint8_t{kError});
  add_text(fnv, e.what());
}

/// Decodes `line` and folds whatever happens into `fnv`.
Outcome fold_outcome(util::Fnv1a& fnv, AsciiTraceDecoder& decoder, std::string_view line) {
  try {
    if (const std::optional<TraceRecord> r = decoder.decode_line(line)) {
      add_record(fnv, *r);
      return kRecord;
    }
    fnv.add(std::uint8_t{kNothing});
    add_text(fnv, decoder.last_comment());
    fnv.add(decoder.comment_count());
    return kNothing;
  } catch (const TraceFormatError& e) {
    add_error(fnv, e);
    return kError;
  }
}

/// 1 to `max_edits` edits (replace, insert, delete) of `text`, each new
/// byte drawn by `pick`.
template <typename Pick>
std::string edit(std::string text, Rng& rng, std::int64_t max_edits, Pick pick) {
  const std::int64_t edits = rng.uniform_int(1, max_edits);
  for (std::int64_t i = 0; i < edits; ++i) {
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(text.size())));
    switch (rng.uniform_int(0, 2)) {
      case 0:
        if (at < text.size()) text[at] = pick();
        break;
      case 1:
        text.insert(at, 1, pick());
        break;
      default:
        if (at < text.size()) text.erase(at, 1);
        break;
    }
  }
  return text;
}

/// 1-3 edits drawn from the bytes that border on valid syntax: digits,
/// separators, signs and the hex marker.
std::string edit(std::string line, Rng& rng) {
  static constexpr std::string_view kAlphabet = "0123456789 \t\r-+x";
  return edit(std::move(line), rng, 3, [&] {
    return kAlphabet[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kAlphabet.size()) - 1))];
  });
}

/// Hand-written lines at the edges of the syntax and of every range check.
/// Decoded after a primed trace, fields that compression leaves out resolve
/// against that trace's state; on a fresh decoder they throw.
const std::vector<std::string>& edge_lines() {
  static const std::vector<std::string> lines = {
      "128 0 0 100 10 5 1 1 7 5",
      "0x80 0 0 100 10 5 1 1 7 5",
      "0X80 0 0 100 10 5 1 1 7 5",
      "0x 0 0 100 10 5 1 1 7 5",
      "0xff a comment behind a hex marker",
      "128\t0 0 100 10 5 1 1 7 5",
      "128\t 0 0 100 10 5 1 1 7 5",
      "128 \t0 0 100 10 5 1 1 7 5",
      "128 0\t 0 100 10 5 1 1 7 5",
      "128 0 0\t100 10 5 1 1 7 5",
      "+128 0 0 100 10 5 1 1 7 5",
      "-128 0 0 100 10 5 1 1 7 5",
      "128 +0 0 100 10 5 1 1 7 5",
      "128 0 +0 100 10 5 1 1 7 5",
      "128 0 -0 100 10 5 1 1 7 5",
      "128 -0 0 100 10 5 1 1 7 -0",
      "128 0 12345678901234567890 100 10 5 1 1 7 5",
      "128 0 0 100 10 5 1 1 7 99999999999999999999",
      "99999999999999999999 0 0 100 10 5 1 1 7 5",
      "128 0 1125899906842624 100 10 5 1 1 7 5",
      "128 0 1125899906842625 100 10 5 1 1 7 5",
      "128 0 -1125899906842624 100 10 5 1 1 7 5",
      "128 0 -1125899906842625 100 10 5 1 1 7 5",
      "128 1 1125899906842624 100 10 5 1 1 7 5",
      "128 0 0 100 1125899906842625 5 1 1 7 5",
      "128 0 0 100 10 5 1 1 7 5 6",
      "128 0 0 100 10 5 1 1 7 5 x",
      "128 0 0 100 10 5 1 1 7",
      "128 0 0 100",
      "128",
      "128 0 0 100 \t 10 5 1 1 7 5",
      "128 0 0 100 \r 10 5 1 1 7 5",
      "128 0 0 100\r 10 5 1 1 7 5",
      "  128 0 0 100 10 5 1 1 7 5 \r",
      "\t128  0   0 100 10 5 1 1 7 5\r",
      "128 0 0 100 10 5 1 1 7 5\r",
      "",
      "   ",
      "\r",
      " \t\r ",
      "255",
      "255   text  ",
      "255\ttext",
      "0255 leading zero",
      "255 \t spaced\tcomment \r",
      "65535 0 0 100 10 5 1 1 7 5",
      "65536 0 0 100 10 5 1 1 7 5",
      "128 65535 0 100 10 5 1 1 7 5",
      "128 65536 0 100 10 5 1 1 7 5",
      "128 -1 0 100 10 5 1 1 7 5",
      "128 0 0 100 10 5 4294967295 1 7 5",
      "128 0 0 100 10 5 4294967296 1 7 5",
      "128 0 0 100 10 5 1 4294967296 7 5",
      "128 0 0 100 10 5 1 1 4294967296 5",
      "128 0 0 100 10 5 -1 1 7 5",
      "128 65 100 10 5 1 1 7 5",
      "128 6 0 10 5 1 1 7 5",
      "128 64 100 10 5 1 1 7 5",
      "128 4 0 10 5 1 1 7 5",
      "128 8 0 100 10 5 1 1 5",
      "128 128 0 100 10 5 1 999 5",
      "128 32 0 100 10 5 1 7 5",
      "128 236 10 5 5",
      "128 239 10 5 5",
      "128 0 0 100 -10 5 1 1 7 5",
      "128 0 0 -100 10 5 1 1 7 5",
      "128 0 0 100 10 -5 1 1 7 5",
      "128 0 0 100 10 5 1 1 7 -5",
      "194 0 0 100 10 5 1 1 7 5",
      "176 0 0 100 10 5 1 1 7 5",
      "128 0 0x10 100 10 5 1 1 7 5",
      "128 0 1e3 100 10 5 1 1 7 5",
      "128 0 0 100 10 5 1 1 7 5-",
      "128 0 0 100 10 5 1 1 7 -",
      "x y z",
  };
  return lines;
}

// A change to either digest changes what traces decode to or encode as:
// re-pin only on purpose.
constexpr std::uint64_t kDecodeDigest = 0xc89e0673210c55d3;
constexpr std::uint64_t kEncodeDigest = 0x3304ec3eeb4f4833;
constexpr std::uint64_t kBinaryDecodeDigest = 0xffe29b0569a34cc2;
constexpr std::uint64_t kBinaryEncodeDigest = 0x71524036233c1dd2;

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << std::setw(16) << std::setfill('0') << value;
  return out.str();
}

TEST(TraceCodecGolden, DecodeOutcomesMatchThePinnedDigest) {
  util::Fnv1a fnv;
  Rng rng(0x601DC0DEC);
  std::int64_t edited = 0;
  std::int64_t edited_outcomes[3] = {};  // by Outcome
  for (const Trace& trace : corpus()) {
    const std::vector<std::string> lines = lines_of(serialize_trace(trace, "golden corpus"));
    AsciiTraceDecoder decoder;
    for (const std::string& line : lines) {
      if (rng.chance(0.1)) {
        ++edited_outcomes[fold_outcome(fnv, decoder, edit(line, rng))];
        ++edited;
      }
      fold_outcome(fnv, decoder, line);
    }
    for (const std::string& line : edge_lines()) fold_outcome(fnv, decoder, line);
  }
  AsciiTraceDecoder fresh;
  for (const std::string& line : edge_lines()) fold_outcome(fnv, fresh, line);

  // Start deltas at the 2^50 field limit reach the 2^60 running-sum bound
  // after 1024 lines; every later line must throw and leave the sum alone.
  AsciiTraceDecoder climbing;
  for (int i = 0; i < 1030; ++i) {
    fold_outcome(fnv, climbing, "128 0 0 1 1125899906842624 0 1 1 1 0");
  }

  // The edits must both decode and throw often, or the digest pins little.
  // (Comments and blank lines come from the edge lines.)
  EXPECT_GT(edited, 100000);
  EXPECT_GT(edited_outcomes[kRecord], edited / 10);
  EXPECT_GT(edited_outcomes[kError], edited / 10);
  EXPECT_EQ(hex(fnv.value()), hex(kDecodeDigest));
}

TEST(TraceCodecGolden, EncodedTextMatchesThePinnedDigest) {
  util::Fnv1a fnv;
  for (const Trace& trace : corpus()) add_text(fnv, serialize_trace(trace, "golden corpus"));
  EXPECT_EQ(hex(fnv.value()), hex(kEncodeDigest));
}

/// Two pages, the second unreadable; place() copies text so that its last
/// byte is the last readable one.
class GuardedBuffer {
 public:
  GuardedBuffer() {
    page_ = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    void* base = mmap(nullptr, 2 * page_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                      -1, 0);
    if (base == MAP_FAILED) throw Error("mmap failed");
    base_ = static_cast<char*>(base);
    if (mprotect(base_ + page_, page_, PROT_NONE) != 0) throw Error("mprotect failed");
  }
  ~GuardedBuffer() { munmap(base_, 2 * page_); }
  GuardedBuffer(const GuardedBuffer&) = delete;
  GuardedBuffer& operator=(const GuardedBuffer&) = delete;

  std::string_view place(std::string_view text) {
    char* at = base_ + page_ - text.size();
    std::memcpy(at, text.data(), text.size());
    return {at, text.size()};
  }

 private:
  std::size_t page_ = 0;
  char* base_ = nullptr;
};

TEST(TraceCodecGolden, LinesEndingAtAnUnreadablePageNeverReadPastTheirEnd) {
  GuardedBuffer guard;
  const std::string full = "128 0 0 100 10 5 1 1 7 5";
  AsciiTraceDecoder decoder;
  const auto record = decoder.decode_line(guard.place(full));
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->process_time, Ticks(5));

  // Every cut of a well-formed line, and of a few lines that end inside a
  // token the fast path cannot take, against a fresh and a primed decoder.
  std::vector<std::string> lines = {full, "0x80 0 0 100 10 5 1 1 7 5\t",
                                    "128 0 0 100 10 5 1 1 7 99999999999999999999",
                                    "128 0 0 100 10 5 1 1 7 -", "255 comment \r"};
  for (const std::string& line : lines) {
    for (std::size_t n = 0; n <= line.size(); ++n) {
      const std::string_view cut = guard.place(std::string_view(line).substr(0, n));
      for (const bool primed : {false, true}) {
        AsciiTraceDecoder d;
        if (primed) (void)d.decode_line(full);
        try {
          (void)d.decode_line(cut);
        } catch (const TraceFormatError&) {
        }
      }
    }
  }

  // A whole text trace whose last line has no newline and ends at the page.
  const std::string text = "255 header\n" + full + "\n128 236 10 5 5";
  TraceTextReader reader(guard.place(text));
  std::int64_t records = 0;
  while (reader.next()) ++records;
  EXPECT_EQ(records, 2);
  TraceTextReader cut_reader(guard.place(text.substr(0, text.size() - 2)));
  EXPECT_THROW(
      {
        while (cut_reader.next()) {
        }
      },
      TraceFormatError);
}

std::string framed(const Trace& trace) {
  std::ostringstream out;
  BinaryTraceWriter writer(out);
  for (const TraceRecord& record : trace) writer.write(record);
  return out.str();
}

std::span<const std::byte> as_bytes(std::string_view text) {
  return {reinterpret_cast<const std::byte*>(text.data()), text.size()};
}

/// Reads `stream` through a BinaryTraceReader and folds every record, then
/// the clean end or the exact error, into `fnv`. Returns the records read.
std::int64_t fold_stream(util::Fnv1a& fnv, std::string_view stream, Outcome& end) {
  std::int64_t records = 0;
  try {
    BinaryTraceReader reader(as_bytes(stream));
    while (const std::optional<TraceRecord> r = reader.next()) {
      add_record(fnv, *r);
      ++records;
    }
    fnv.add(std::uint8_t{kNothing});
    end = kNothing;
  } catch (const TraceFormatError& e) {
    add_error(fnv, e);
    end = kError;
  }
  return records;
}

/// Decodes records off the front of `bytes` until one throws, the bytes
/// run out or `limit` records are read, folding each outcome into `fnv`.
/// Returns what ended it.
Outcome fold_records(util::Fnv1a& fnv, BinaryRecordDecoder& decoder,
                     std::span<const std::byte>& bytes, std::size_t limit) {
  for (std::size_t i = 0; i < limit && !bytes.empty(); ++i) {
    try {
      const BinaryRecordDecoder::Decoded d = decoder.decode(bytes);
      add_record(fnv, d.record);
      bytes = bytes.subspan(d.consumed);
    } catch (const TraceFormatError& e) {
      add_error(fnv, e);
      return kError;
    }
  }
  fnv.add(std::uint8_t{kNothing});
  return kNothing;
}

TEST(TraceCodecGolden, BinaryBytesMatchThePinnedDigest) {
  util::Fnv1a fnv;
  for (const Trace& trace : corpus()) {
    const std::vector<std::byte> bytes = encode_binary(trace);
    fnv.add(bytes.size());
    fnv.add_bytes(bytes.data(), bytes.size());

    // An encoder reset halfway writes the second half as a new trace.
    BinaryRecordEncoder encoder;
    std::vector<std::byte> out;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (i == trace.size() / 2) encoder.reset();
      encoder.encode_to(trace[i], out);
    }
    fnv.add(out.size());
    fnv.add_bytes(out.data(), out.size());
  }
  EXPECT_EQ(hex(fnv.value()), hex(kBinaryEncodeDigest));
}

TEST(TraceCodecGolden, BinaryDecodeOutcomesMatchThePinnedDigest) {
  util::Fnv1a fnv;
  Rng rng(0xB1AC0DEC);
  const std::vector<Trace>& traces = corpus();

  // Framed slices of the corpus, each with 1-4 edits of arbitrary bytes.
  constexpr int kStreams = 3000;
  std::int64_t records = 0;
  std::int64_t errors = 0;
  for (int i = 0; i < kStreams; ++i) {
    const Trace& trace = traces[static_cast<std::size_t>(i) % traces.size()];
    const std::int64_t count = rng.uniform_int(16, 160);
    const std::int64_t first =
        rng.uniform_int(0, static_cast<std::int64_t>(trace.size()) - count);
    const Trace slice(trace.begin() + first, trace.begin() + first + count);
    const std::string stream = edit(framed(slice), rng, 4, [&] {
      return static_cast<char>(rng.uniform_int(0, 255));
    });
    Outcome end = kNothing;
    records += fold_stream(fnv, stream, end);
    if (end == kError) ++errors;
  }
  EXPECT_GT(records, kStreams * 40);
  EXPECT_GT(errors, kStreams / 2);
  EXPECT_LT(errors, kStreams);

  // A reset halfway forgets every earlier record. The stream's next records
  // were written against that state, so one of them fails; a second half
  // written by a reset encoder decodes exactly, its first start time read
  // as absolute.
  for (const Trace& trace : traces) {
    const std::vector<std::byte> bytes = encode_binary(trace);
    const std::size_t half = trace.size() / 2;
    std::span<const std::byte> rest(bytes);
    BinaryRecordDecoder decoder;
    EXPECT_EQ(fold_records(fnv, decoder, rest, half), kNothing);
    decoder.reset();
    EXPECT_EQ(fold_records(fnv, decoder, rest, 64), kError);

    BinaryRecordEncoder encoder;
    std::vector<std::byte> second;
    for (std::size_t i = half; i < trace.size(); ++i) encoder.encode_to(trace[i], second);
    decoder.reset();
    std::span<const std::byte> left(second);
    for (std::size_t i = half; i < trace.size(); ++i) {
      const BinaryRecordDecoder::Decoded d = decoder.decode(left);
      ASSERT_EQ(d.record, trace[i]);
      add_record(fnv, d.record);
      left = left.subspan(d.consumed);
    }
  }
  EXPECT_EQ(hex(fnv.value()), hex(kBinaryDecodeDigest));
}

TEST(TraceCodecGolden, BinaryResetForgetsThePreviousRecord) {
  TraceRecord a;
  a.record_type = kTraceLogicalRecord;
  a.offset = 0;
  a.length = 4096;
  a.start_time = Ticks(100);
  a.process_id = 7;
  a.file_id = 3;
  a.operation_id = 1;
  TraceRecord b = a;
  b.offset = 4096;
  b.start_time = Ticks(150);
  const std::vector<std::byte> both = encode_binary({a, b});
  const std::vector<std::byte> b_alone = encode_binary({b});

  BinaryRecordDecoder decoder;
  const std::size_t a_bytes = decoder.decode(both).consumed;
  decoder.reset();
  try {
    (void)decoder.decode(std::span(both).subspan(a_bytes));
    ADD_FAILURE() << "a compressed reference decoded after reset()";
  } catch (const TraceFormatError& e) {
    EXPECT_STREQ(e.what(), "trace format: binary: TRACE_NO_PROCESSID on first record");
  }
  EXPECT_EQ(decoder.decode(b_alone).record.start_time, Ticks(150));
}

}  // namespace
}  // namespace craysim::trace
