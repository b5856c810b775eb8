// Reproduces Figure 7: disk data rate for two copies of venus with a 128 MB
// (SSD-class) cache.
//
// With the working sets resident, "almost all of the read requests were
// satisfied by the SSD, so there were very few disk read requests. However
// ... the writes from cache to disk still did not come evenly; instead,
// they were bursty in the same way that the requests to cache were bursty."
#include <cstdio>
#include <utility>
#include <vector>

#include "analysis/series.hpp"
#include "bench_common.hpp"
#include "sim/simulator.hpp"
#include "sweep.hpp"
#include "workload/profiles.hpp"

namespace {

craysim::sim::SimResult run_with(const craysim::sim::SimParams& params) {
  using namespace craysim;
  sim::Simulator simulator(params);
  simulator.add_app(workload::make_profile(workload::AppId::kVenus, 11));
  simulator.add_app(workload::make_profile(workload::AppId::kVenus, 22));
  return simulator.run();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace craysim;
  // A single configuration, still dispatched through the sweep harness so
  // every figure bench shares one execution path.
  bench::Sweep sweep(argc, argv, {"venus x2, 128 MB SSD"});
  bench::heading("Figure 7: 2 x venus, 128 MB SSD cache -- disk data rate (wall time)");
  const auto params = [](std::size_t) { return sim::SimParams::paper_ssd(Bytes{128} * kMB); };
  sim::SimResult result = std::move(sweep.run(params, run_with)[0]);

  auto rates = result.disk_rate.rates();
  const std::size_t window = std::min<std::size_t>(rates.size(), 200);
  std::vector<double> first200(rates.begin(), rates.begin() + static_cast<std::ptrdiff_t>(window));
  bench::print_rate_figure(first200, "disk MB/s", "wall seconds",
                           result.disk_rate.bin_width().seconds());
  std::printf("%s", result.summary().c_str());

  const Bytes disk_reads = result.disk.bytes_read;
  const Bytes disk_writes = result.disk.bytes_written;
  std::printf("cache->disk: %s of reads, %s of writes\n", format_bytes(disk_reads).c_str(),
              format_bytes(disk_writes).c_str());

  std::vector<double> wr(result.disk_write_rate.rates());
  for (auto& v : wr) v /= 1e6;
  bench::check(disk_reads < disk_writes / 10,
               "almost all reads are satisfied in the 128 MB cache (few disk reads)");
  bench::check(analysis::peak_to_mean(wr) > 1.5,
               "writes from cache to disk still arrive in bursts");
  bench::check(result.cpu_idle < Ticks::from_seconds(10),
               "2 x venus runs with little or no idle time in a 128 MB cache");

  return sweep.finish(result, params(0), run_with);
}
