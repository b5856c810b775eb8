// Page release on mapped trace streams: a mapped RecordSource drops the pages
// it has read, so its resident set stays near the read position instead of
// growing toward the file size. Residency is read from the mapping's `Rss`
// line in /proc/self/smaps, which counts the pages this process maps; mincore
// would report page-cache residency, which the release does not change.
#include "trace/mapped_file.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "trace/binary_stream.hpp"
#include "trace/stream.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

namespace craysim::trace {
namespace {

constexpr std::int64_t kMiB = 1024;  // in KiB, the unit smaps reports

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Resident KiB of this process's mappings of `path` (the `Rss` lines of
/// /proc/self/smaps), or -1 when smaps cannot be read.
std::int64_t mapped_rss_kib(const std::string& path) {
  std::ifstream smaps("/proc/self/smaps");
  if (!smaps) return -1;
  const std::string name = std::filesystem::canonical(path).string();
  std::int64_t rss = 0;
  bool ours = false;
  for (std::string line; std::getline(smaps, line);) {
    // A mapping's header starts with its address range and ends with its
    // file; each of its fields starts with a name and a colon.
    const std::string first = line.substr(0, line.find(' '));
    if (!first.empty() && first.back() != ':') {
      ours = line.size() > name.size() &&
             line.compare(line.size() - name.size(), name.size(), name) == 0;
    } else if (ours && first == "Rss:") {
      rss += std::stoll(line.substr(first.size()));
    }
  }
  return rss;
}

/// Venus's trace, tiled back to back in start-time order until it holds at
/// least `min_records` records.
Trace tiled_venus(std::size_t min_records) {
  const Trace venus = workload::synthesize_trace(workload::make_profile(workload::AppId::kVenus));
  Ticks span;
  for (const TraceRecord& r : venus) span = std::max(span, r.start_time + r.completion_time);
  Trace tiled;
  for (std::int64_t tile = 0; tiled.size() < min_records; ++tile) {
    for (TraceRecord r : venus) {
      r.start_time += (span + Ticks(1)) * tile;
      tiled.push_back(r);
    }
  }
  return tiled;
}

/// Reads `path` through open_record_stream, sampling the mapping's resident
/// set every `stride` records; returns the records and the largest sample.
std::pair<Trace, std::int64_t> drain_sampled(const std::string& path, std::size_t stride) {
  auto source = open_record_stream(path);
  Trace out;
  std::int64_t peak = 0;
  while (auto record = source->next()) {
    out.push_back(*record);
    if (out.size() % stride == 0) peak = std::max(peak, mapped_rss_kib(path));
  }
  return {std::move(out), peak};
}

TEST(MappedFile, ReleasedPagesReadBackUnchanged) {
  const std::string path = temp_path("craysim_mmap_release.bin");
  {
    std::ofstream out(path, std::ios::binary);
    for (std::uint32_t i = 0; i < (4u << 20) / 4; ++i) {
      out.write(reinterpret_cast<const char*>(&i), sizeof i);
    }
  }
  auto mapped = MappedFile::open(path);
  ASSERT_TRUE(mapped.has_value());
  const std::string copy(mapped->view());  // faults every page in
  const std::int64_t before = mapped_rss_kib(path);
  if (before < 0) GTEST_SKIP() << "/proc/self/smaps is not readable";
  EXPECT_GE(before, 4 * kMiB);
  mapped->release_prefix(3 * (std::size_t{1} << 20) + 100);
  const std::int64_t after = mapped_rss_kib(path);
  EXPECT_LE(after, before - 3 * kMiB);
  EXPECT_GT(after, 0);  // the unreleased tail stays resident
  // The dropped pages fault back in from the file, unchanged.
  EXPECT_EQ(mapped->view(), copy);
  std::remove(path.c_str());
}

TEST(MappedRecordStream, TextReplayStaysNearTheReadPosition) {
  const std::string path = temp_path("craysim_mmap_release.trace");
  const Trace trace = tiled_venus(800'000);
  save_trace(trace, path);
  const auto size = static_cast<std::int64_t>(std::filesystem::file_size(path));
  ASSERT_GE(size, std::int64_t{16} << 20) << "the trace must dwarf the release window";
  if (mapped_rss_kib(path) < 0) GTEST_SKIP() << "/proc/self/smaps is not readable";

  const auto [replayed, peak] = drain_sampled(path, 20'000);
  EXPECT_EQ(replayed, trace);
  // Pages are dropped every 4 MiB read; allow the window twice over.
  EXPECT_GT(peak, 0);
  EXPECT_LE(peak, 8 * kMiB) << "file of " << size / (1024 * 1024) << " MiB";
  std::remove(path.c_str());
}

TEST(MappedRecordStream, BinaryReplayStaysNearTheReadPosition) {
  const std::string path = temp_path("craysim_mmap_release.ctb");
  const Trace trace = tiled_venus(1'600'000);
  save_trace_binary(trace, path);
  const auto size = static_cast<std::int64_t>(std::filesystem::file_size(path));
  ASSERT_GE(size, std::int64_t{16} << 20) << "the trace must dwarf the release window";
  if (mapped_rss_kib(path) < 0) GTEST_SKIP() << "/proc/self/smaps is not readable";

  const auto [replayed, peak] = drain_sampled(path, 40'000);
  EXPECT_EQ(replayed, trace);
  EXPECT_GT(peak, 0);
  EXPECT_LE(peak, 8 * kMiB) << "file of " << size / (1024 * 1024) << " MiB";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace craysim::trace
