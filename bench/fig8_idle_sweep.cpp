// Reproduces Figure 8: idle time while running two instances of venus, as a
// function of cache size (4..256 MB) and cache block size (4 KB vs 8 KB).
//
// "Execution time would be 761 seconds if there were no idle time" — idle
// time falls from hundreds of seconds in small caches to ~zero once both
// working sets fit.
//
// The 14 (size, block-size) simulations fan out across the experiment
// runner; results come back in sweep order, so the table and CSV are
// byte-identical to a serial run.
//
// Telemetry: "--metrics", "--perfetto" (one instrumented 32 MB / 4 K
// replay), "--perfetto-sweep" (all 14 points merged into one Perfetto
// timeline), "--timeseries", "--counter-interval <ms>". All passive.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "sim/simulator.hpp"
#include "sweep.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"

namespace {

struct SweepPoint {
  craysim::Bytes cache_mb = 0;
  craysim::Bytes block = 0;
};

craysim::sim::SimParams point_params(const SweepPoint& point) {
  using namespace craysim;
  sim::SimParams params = sim::SimParams::paper_ssd(point.cache_mb * kMB);
  params.cache.block_size = point.block;
  return params;
}

craysim::sim::SimResult run_with(const craysim::sim::SimParams& params) {
  using namespace craysim;
  sim::Simulator simulator(params);
  simulator.add_app(workload::make_profile(workload::AppId::kVenus, 11));
  simulator.add_app(workload::make_profile(workload::AppId::kVenus, 22));
  return simulator.run();
}

std::string point_label(const SweepPoint& point) {
  return std::to_string(point.cache_mb) + " MB / " +
         (point.block == 4 * craysim::kKiB ? "4K" : "8K");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace craysim;
  const Bytes sizes_mb[] = {4, 8, 16, 32, 64, 128, 256};
  std::vector<SweepPoint> points;
  for (const Bytes mb : sizes_mb) {
    points.push_back({mb, 4 * kKiB});
    points.push_back({mb, 8 * kKiB});
  }
  bench::Sweep sweep(argc, argv, bench::labels_of(points, point_label));
  bench::heading("Figure 8: idle time vs cache size, 2 x venus (4 KB and 8 KB blocks)");
  const auto results =
      sweep.run([&](std::size_t i) { return point_params(points[i]); }, run_with);

  TextTable table({"cache MB", "idle s (4K blocks)", "idle s (8K blocks)", "wall s (4K)",
                   "util % (4K)"});
  std::string csv = "cache_mb,idle_4k_s,idle_8k_s\n";
  double idle_small_4k = 0;
  double idle_big_4k = 0;
  for (std::size_t i = 0; i < points.size(); i += 2) {
    const Bytes mb = points[i].cache_mb;
    const auto& r4 = results[i];
    const auto& r8 = results[i + 1];
    table.row()
        .integer(mb)
        .num(r4.idle_time().seconds(), 1)
        .num(r8.idle_time().seconds(), 1)
        .num(r4.total_wall.seconds(), 1)
        .num(100.0 * r4.cpu_utilization(), 1);
    csv += format_number(static_cast<double>(mb), 0) + "," +
           format_number(r4.idle_time().seconds(), 2) + "," +
           format_number(r8.idle_time().seconds(), 2) + "\n";
    if (mb == 4) idle_small_4k = r4.idle_time().seconds();
    if (mb == 256) idle_big_4k = r4.idle_time().seconds();
  }
  std::printf("%s", table.render().c_str());
  std::printf("--- CSV ---\n%s--- end CSV ---\n", csv.c_str());
  std::printf("(no-idle execution time would be ~761 s: 2 x 379 s of CPU plus overheads)\n");

  bench::check(idle_small_4k > 50.0, "small (4 MB) caches leave substantial idle time");
  bench::check(idle_big_4k < 5.0, "a 256 MB cache eliminates nearly all idle time");
  bench::check(idle_small_4k > 20.0 * std::max(idle_big_4k, 0.5),
               "idle time falls by orders of magnitude across the sweep");

  return sweep.finish(results[0], point_params({32, 4 * kKiB}), run_with);
}
