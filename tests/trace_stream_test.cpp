#include "trace/stream.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#ifdef __unix__
#include <sys/stat.h>
#endif

#include "util/error.hpp"

namespace craysim::trace {
namespace {

TraceRecord simple(std::uint32_t op, Ticks start) {
  TraceRecord r;
  r.record_type = make_record_type(true, false, false);
  r.process_id = 1;
  r.file_id = 1;
  r.operation_id = op;
  r.offset = Bytes{op} * 100;
  r.length = 100;
  r.start_time = start;
  r.completion_time = Ticks(10);
  r.process_time = Ticks(20);
  return r;
}

TEST(SerializeParse, RoundTrip) {
  Trace t;
  for (std::uint32_t i = 1; i <= 20; ++i) t.push_back(simple(i, Ticks(i * 100)));
  const std::string text = serialize_trace(t, "test header");
  EXPECT_EQ(text.substr(0, 4), "255 ");
  EXPECT_EQ(parse_trace(text), t);
}

TEST(SerializeParse, EmptyTrace) {
  EXPECT_EQ(serialize_trace({}), "");
  EXPECT_TRUE(parse_trace("").empty());
}

TEST(TraceWriterReader, StreamInterface) {
  std::stringstream buffer;
  TraceWriter writer(buffer);
  writer.comment("stream test");
  writer.write(simple(1, Ticks(10)));
  writer.write(simple(2, Ticks(20)));
  EXPECT_EQ(writer.records_written(), 2);

  const std::string text = buffer.str();
  TraceTextReader reader(text);
  const auto r1 = reader.next();
  const auto r2 = reader.next();
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(r1->operation_id, 1u);
  EXPECT_EQ(r2->operation_id, 2u);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.decoder().comment_count(), 1);
}

TEST(TraceReader, ReportsLineNumberOnError) {
  const std::string text = "255 fine\nnot a record\n";
  const std::string expected = "trace format: line 2: unparseable record type: 'not'";
  TraceTextReader reader(text);
  try {
    (void)reader.next();
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
  try {
    (void)parse_trace(text);
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
}

TEST(SaveLoad, FileRoundTrip) {
  Trace t;
  for (std::uint32_t i = 1; i <= 5; ++i) t.push_back(simple(i, Ticks(i * 7)));
  const std::string path =
      (std::filesystem::temp_directory_path() / "craysim_stream_test.trace").string();
  save_trace(t, path, "file round trip");
  EXPECT_EQ(load_trace(path), t);
  std::remove(path.c_str());
}

TEST(SaveLoad, MissingFileThrows) {
  EXPECT_THROW((void)load_trace("/nonexistent/dir/x.trace"), Error);
  EXPECT_THROW(save_trace({}, "/nonexistent/dir/x.trace"), Error);
}

#ifdef __unix__
TEST(SaveLoad, NonSeekableFileRoundTrip) {
  // A FIFO cannot report its size via seek/tell; the loader must fall back
  // to chunked reads instead of silently yielding an empty trace.
  Trace t;
  for (std::uint32_t i = 1; i <= 5; ++i) t.push_back(simple(i, Ticks(i * 7)));
  const std::string path =
      (std::filesystem::temp_directory_path() / "craysim_stream_test.fifo").string();
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream out(path);
    out << serialize_trace(t, "fifo round trip");
  });
  EXPECT_EQ(load_trace(path), t);
  writer.join();
  std::remove(path.c_str());
}
#endif

}  // namespace
}  // namespace craysim::trace
