// Reproduces Figure 6: disk data rate for two simultaneously running copies
// of venus with a 32 MB main-memory cache (first 200 wall-clock seconds).
//
// The paper's point: even with read-ahead and write-behind, the 32 MB cache
// does NOT smooth the request stream — disk traffic stays bursty, because
// the simulator's disks never queue and the two programs' bursts bunch up.
#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "analysis/series.hpp"
#include "bench_common.hpp"
#include "sim/simulator.hpp"
#include "sweep.hpp"
#include "util/stats.hpp"
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
  bench::Sweep sweep(argc, argv, {"venus x2, 32 MB cache"});
  bench::heading("Figure 6: 2 x venus, 32 MB main-memory cache -- disk data rate (wall time)");
  const auto params = [](std::size_t) { return sim::SimParams::paper_main_memory(Bytes{32} * kMB); };
  sim::SimResult result = std::move(sweep.run(params, run_with)[0]);

  auto rates = result.disk_rate.rates();
  const std::size_t window = std::min<std::size_t>(rates.size(), 200);
  std::vector<double> first200(rates.begin(), rates.begin() + static_cast<std::ptrdiff_t>(window));
  bench::print_rate_figure(first200, "disk MB/s", "wall seconds",
                           result.disk_rate.bin_width().seconds());
  std::printf("%s", result.summary().c_str());

  std::vector<double> mb(first200.size());
  for (std::size_t i = 0; i < first200.size(); ++i) mb[i] = first200[i] / 1e6;
  const double p2m = analysis::peak_to_mean(mb);
  std::printf("disk-traffic peak/mean over first 200 s: %.2f\n", p2m);

  bench::check(p2m > 1.5, "disk demand is NOT smoothed out by the 32 MB cache (still bursty)");
  bench::check(result.cpu_idle > Ticks::from_seconds(5),
               "a 32 MB main-memory cache leaves real CPU idle time for 2 x venus");

  return sweep.finish(result, params(0), run_with);
}
