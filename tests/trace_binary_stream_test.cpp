// Framed streaming binary codec: byte-identity with the whole-trace codec,
// frame-header validation, truncation-mid-record behavior, and
// malformed-frame fuzzing (mirroring trace_fuzz_test for the text reader).
#include "trace/binary_stream.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "trace/binary.hpp"
#include "trace/stream.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

namespace craysim::trace {
namespace {

const Trace& venus() {
  static const Trace t =
      workload::synthesize_trace(workload::make_profile(workload::AppId::kVenus));
  return t;
}

std::string framed_bytes(const Trace& trace) {
  std::ostringstream out;
  BinaryTraceWriter writer(out);
  for (const auto& r : trace) writer.write(r);
  return out.str();
}

std::span<const std::byte> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

Trace drain(BinaryTraceReader& reader) {
  Trace out;
  while (auto record = reader.next()) out.push_back(*record);
  return out;
}

TEST(BinaryStream, PayloadIsByteIdenticalToWholeTraceCodec) {
  const std::string framed = framed_bytes(venus());
  const std::vector<std::byte> whole = encode_binary(venus());
  ASSERT_EQ(framed.size(), kBinaryFrameHeaderBytes + whole.size());
  EXPECT_EQ(std::memcmp(framed.data() + kBinaryFrameHeaderBytes, whole.data(), whole.size()), 0);
}

TEST(BinaryStream, SpanReaderRoundTripsAWholeApp) {
  const std::string framed = framed_bytes(venus());
  BinaryTraceReader reader(as_bytes(framed));
  EXPECT_EQ(drain(reader), venus());
  EXPECT_EQ(reader.records_read(), static_cast<std::int64_t>(venus().size()));
}

TEST(BinaryStream, MagicSniffsBinaryButNotText) {
  const std::string framed = framed_bytes(venus());
  EXPECT_TRUE(starts_with_binary_magic(framed));
  EXPECT_FALSE(starts_with_binary_magic(serialize_trace(venus())));
  EXPECT_FALSE(starts_with_binary_magic(std::string_view{}));
}

TEST(BinaryStream, CommentsAreDroppedLikeTheWholeTraceCodec) {
  TraceRecord comment;
  comment.record_type = kTraceComment;
  std::ostringstream out;
  BinaryTraceWriter writer(out);
  writer.write(comment);
  EXPECT_EQ(writer.records_written(), 0);
  EXPECT_EQ(out.str().size(), kBinaryFrameHeaderBytes);
}

TEST(BinaryStream, BadMagicThrows) {
  std::string framed = framed_bytes(venus());
  framed[0] = 'X';
  EXPECT_THROW(BinaryTraceReader{as_bytes(framed)}, TraceFormatError);
}

TEST(BinaryStream, UnsupportedVersionThrows) {
  std::string framed = framed_bytes(venus());
  framed[4] = 2;  // version low byte
  EXPECT_THROW(BinaryTraceReader{as_bytes(framed)}, TraceFormatError);
}

TEST(BinaryStream, ReservedFlagsThrow) {
  std::string framed = framed_bytes(venus());
  framed[6] = 1;  // flags low byte
  EXPECT_THROW(BinaryTraceReader{as_bytes(framed)}, TraceFormatError);
}

TEST(BinaryStream, ShortHeaderThrows) {
  const std::string framed = framed_bytes(venus());
  for (std::size_t len = 0; len < kBinaryFrameHeaderBytes; ++len) {
    EXPECT_THROW(BinaryTraceReader(as_bytes(framed).subspan(0, len)), TraceFormatError)
        << "header prefix of " << len << " bytes";
  }
}

TEST(BinaryStream, TruncationMidRecordThrowsAtTheBrokenRecord) {
  // Cutting the stream anywhere must yield the intact prefix of records and
  // then either a clean end (cut on a record boundary) or TraceFormatError —
  // never a crash or a fabricated record.
  Trace small(venus().begin(), venus().begin() + 16);
  const std::string framed = framed_bytes(small);
  std::size_t clean_ends = 0;
  for (std::size_t cut = kBinaryFrameHeaderBytes; cut < framed.size(); ++cut) {
    BinaryTraceReader reader(as_bytes(framed).subspan(0, cut));
    Trace got;
    bool threw = false;
    try {
      got = drain(reader);
    } catch (const TraceFormatError&) {
      threw = true;
    }
    ASSERT_LE(got.size(), small.size());
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], small[i]);
    if (!threw) {
      ++clean_ends;
    } else {
      EXPECT_LT(got.size(), small.size());
    }
  }
  // Clean ends happen exactly on record boundaries: the bare frame header
  // (zero records) plus one per record except the last, whose boundary is
  // the uncut stream (excluded by the loop bound).
  EXPECT_EQ(clean_ends, small.size());
}

TEST(BinaryStreamFuzz, MutatedFramesDecodeOrThrowCleanly) {
  // Mirror of trace_fuzz_test for the binary reader: random byte mutations
  // of a valid framed trace must either decode into valid records or throw
  // TraceFormatError — never crash, hang, or emit an invalid record.
  Trace small(venus().begin(), venus().begin() + 64);
  const std::string valid = framed_bytes(small);
  Rng rng(0xB1F2);
  constexpr int kRounds = 400;
  for (int round = 0; round < kRounds; ++round) {
    std::string text = valid;
    const int mutations = 1 + static_cast<int>(rng.uniform_int(0, 7));
    for (int i = 0; i < mutations && !text.empty(); ++i) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      switch (rng.uniform_int(0, 2)) {
        case 0:
          text[pos] = static_cast<char>(rng.uniform_int(0, 255));
          break;
        case 1:
          text.insert(pos, 1, static_cast<char>(rng.uniform_int(0, 255)));
          break;
        default:
          text.erase(pos, 1);
          break;
      }
    }
    try {
      BinaryTraceReader reader(as_bytes(text));
      std::int64_t produced = 0;
      while (auto record = reader.next()) {
        EXPECT_NO_THROW(validate(*record)) << "seed round " << round;
        // Each record consumes at least 16 bytes, so this bounds cleanly.
        ASSERT_LT(++produced, static_cast<std::int64_t>(text.size())) << "runaway decode";
      }
    } catch (const TraceFormatError&) {
      // Expected for most mutations.
    }
  }
}

TEST(BinaryStream, SaveAndLoadRoundTripAFile) {
  const std::string path = "/tmp/craysim_binary_stream_test.bin";
  save_trace_binary(venus(), path);
  EXPECT_EQ(load_trace_binary(path), venus());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace craysim::trace
