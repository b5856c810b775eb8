// mmap-backed trace ingestion: MappedFile semantics, byte-identity of the
// mapped view with read_file, the FIFO/size-0 fallback regression, and
// open_record_stream routing (mapped or read whole, text or binary sniffed
// from the magic).
#include "trace/mapped_file.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#ifdef __unix__
#include <sys/stat.h>
#endif

#include "trace/binary_stream.hpp"
#include "trace/stream.hpp"
#include "util/error.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

namespace craysim::trace {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

const Trace& venus() {
  static const Trace t =
      workload::synthesize_trace(workload::make_profile(workload::AppId::kVenus));
  return t;
}

Trace drain(RecordSource& source) {
  Trace out;
  while (auto record = source.next()) out.push_back(*record);
  return out;
}

TEST(MappedFile, ViewIsByteIdenticalToReadFile) {
  const std::string path = temp_path("craysim_mmap_test.trace");
  save_trace(venus(), path, "mmap identity");
  auto mapped = MappedFile::open(path);
  ASSERT_TRUE(mapped.has_value());
  mapped->advise_sequential();
  EXPECT_EQ(mapped->view(), read_file(path));
  EXPECT_EQ(mapped->size(), std::filesystem::file_size(path));
  std::remove(path.c_str());
}

TEST(MappedFile, MoveTransfersTheMapping) {
  const std::string path = temp_path("craysim_mmap_move.trace");
  save_trace(venus(), path);
  auto mapped = MappedFile::open(path);
  ASSERT_TRUE(mapped.has_value());
  const std::string_view before = mapped->view();
  MappedFile moved = std::move(*mapped);
  EXPECT_EQ(moved.view(), before);
  std::remove(path.c_str());
}

TEST(MappedFile, RefusesMissingAndEmptyFiles) {
  EXPECT_FALSE(MappedFile::open("/nonexistent/dir/x.trace").has_value());
  const std::string path = temp_path("craysim_mmap_empty.trace");
  { std::ofstream touch(path); }
  EXPECT_FALSE(MappedFile::open(path).has_value());
  std::remove(path.c_str());
}

TEST(LoadTraceMapped, MatchesParseOfReadFile) {
  const std::string path = temp_path("craysim_mmap_load.trace");
  save_trace(venus(), path, "mapped load");
  EXPECT_EQ(load_trace(path), parse_trace(read_file(path)));
  EXPECT_EQ(load_trace(path), venus());
  std::remove(path.c_str());
}

TEST(LoadTraceMapped, EmptyFileYieldsEmptyTrace) {
  const std::string path = temp_path("craysim_mmap_empty_load.trace");
  { std::ofstream touch(path); }
  EXPECT_TRUE(load_trace(path).empty());
  std::remove(path.c_str());
}

#ifdef __unix__
TEST(LoadTraceMapped, FifoFallsBackToChunkedRead) {
  // Regression: a FIFO cannot be mapped (not S_ISREG); the loader must take
  // the chunked-read path instead of failing or yielding an empty trace.
  Trace t(venus().begin(), venus().begin() + 32);
  const std::string path = temp_path("craysim_mmap_test.fifo");
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  EXPECT_FALSE(MappedFile::open(path).has_value());
  std::thread writer([&] {
    std::ofstream out(path);
    out << serialize_trace(t, "fifo fallback");
  });
  EXPECT_EQ(load_trace(path), t);
  writer.join();
  std::remove(path.c_str());
}

TEST(OpenRecordStream, FifoIsBufferedAndSniffed) {
  Trace t(venus().begin(), venus().begin() + 32);
  const std::string path = temp_path("craysim_stream_open.fifo");
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream out(path);
    out << serialize_trace(t);
  });
  auto source = open_record_stream(path);
  EXPECT_EQ(drain(*source), t);
  writer.join();
  std::remove(path.c_str());
}

TEST(OpenRecordStream, BinaryFifoIsBufferedAndSniffed) {
  // A FIFO is the only input a framed binary trace is read from without a
  // mapping: read whole, then sniffed by its magic.
  Trace t(venus().begin(), venus().begin() + 32);
  const std::string path = temp_path("craysim_stream_open_bin.fifo");
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream out(path, std::ios::binary);
    BinaryTraceWriter binary(out);
    for (const TraceRecord& record : t) binary.write(record);
  });
  auto source = open_record_stream(path);
  EXPECT_EQ(drain(*source), t);
  writer.join();
  std::remove(path.c_str());
}
#endif

TEST(OpenRecordStream, SniffsTextAndBinary) {
  const std::string text_path = temp_path("craysim_open_text.trace");
  const std::string bin_path = temp_path("craysim_open_bin.trace");
  save_trace(venus(), text_path);
  save_trace_binary(venus(), bin_path);
  auto text_source = open_record_stream(text_path);
  EXPECT_EQ(drain(*text_source), venus());
  auto bin_source = open_record_stream(bin_path);
  EXPECT_EQ(drain(*bin_source), venus());
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
}

TEST(OpenRecordStream, MissingFileThrows) {
  EXPECT_THROW((void)open_record_stream("/nonexistent/dir/x.trace"), Error);
}

TEST(OpenRecordStream, SizeZeroFileYieldsNoRecords) {
  const std::string path = temp_path("craysim_open_empty.trace");
  { std::ofstream touch(path); }
  auto source = open_record_stream(path);
  EXPECT_FALSE(source->next().has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace craysim::trace
