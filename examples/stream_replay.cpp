// Streaming replay of traces larger than memory.
//
//   stream_replay synthesize <path> <megabytes>
//       Writes a framed binary trace of roughly <megabytes> MB by tiling a
//       synthesized venus trace forward in time, one record at a time —
//       memory stays bounded no matter how large the output.
//
//   stream_replay replay <path>
//       Replays the trace through the simulator by pulling records on demand
//       from a mapped stream that drops the pages it has read, so peak RSS
//       is independent of trace size. Run under `/usr/bin/time -v` to verify.
//
// Build & run:  cmake --build build && ./build/examples/stream_replay ...
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "trace/binary_stream.hpp"
#include "trace/stream.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

namespace {

using namespace craysim;

int synthesize(const std::string& path, long megabytes) {
  const trace::Trace base =
      workload::synthesize_trace(workload::make_profile(workload::AppId::kVenus));
  if (base.empty()) {
    std::fprintf(stderr, "synthesized base trace is empty\n");
    return 1;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open for writing: %s\n", path.c_str());
    return 1;
  }
  trace::BinaryTraceWriter writer(out);
  const auto target = static_cast<std::uint64_t>(megabytes) * 1024 * 1024;
  // Each tile replays the base trace shifted past the previous tile's end,
  // keeping start times monotonic as the format requires.
  const Ticks tile_span = base.back().start_time + Ticks(1000);
  Ticks offset(0);
  std::uint64_t tiles = 0;
  while (static_cast<std::uint64_t>(out.tellp()) < target) {
    for (trace::TraceRecord record : base) {
      record.start_time += offset;
      writer.write(record);
    }
    offset += tile_span;
    ++tiles;
  }
  out.flush();
  std::printf("wrote %s: %lld records (%llu tiles), %lld bytes\n", path.c_str(),
              static_cast<long long>(writer.records_written()),
              static_cast<unsigned long long>(tiles), static_cast<long long>(out.tellp()));
  return out ? 0 : 1;
}

int replay(const std::string& path) {
  // The mapped stream drops the pages behind its read position every few
  // MB, so the resident set stays flat even when the trace dwarfs RAM.
  auto records = trace::open_record_stream(path);
  auto source = std::make_unique<sim::StreamingReplaySource>(std::move(records));
  const sim::StreamingReplaySource* probe = source.get();

  sim::Simulator simulator(sim::SimParams::paper_ssd(Bytes{64} * kMB));
  simulator.add_process("replay", std::move(source));
  const sim::SimResult result = simulator.run();

  std::printf("replayed %lld records from %s\n",
              static_cast<long long>(probe->records_consumed()), path.c_str());
  std::printf("%s", result.summary().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::strcmp(argv[1], "synthesize") == 0) {
    const long megabytes = std::strtol(argv[3], nullptr, 10);
    if (megabytes <= 0) {
      std::fprintf(stderr, "megabytes must be positive\n");
      return 2;
    }
    return synthesize(argv[2], megabytes);
  }
  if (argc == 3 && std::strcmp(argv[1], "replay") == 0) {
    return replay(argv[2]);
  }
  std::fprintf(stderr,
               "usage:\n"
               "  %s synthesize <path> <megabytes>\n"
               "  %s replay <path>\n",
               argv[0], argv[0]);
  return 2;
}
