// Ablation for the Section 6.2 buffer-hogging observation: "A limit on the
// number of buffers a process could own did not relieve the problem, and
// actually worsened CPU utilization in several cases."
//
// We run a hog-prone pair (venus + les) in a mid-size cache with and without
// per-process ownership caps.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "sim/simulator.hpp"
#include "sweep.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"

namespace {

struct Config {
  const char* name;
  craysim::Bytes cap;
};

craysim::sim::SimParams config_params(const Config& config) {
  using namespace craysim;
  sim::SimParams params = sim::SimParams::paper_main_memory(Bytes{32} * kMB);
  params.cache.per_process_cap = config.cap;
  return params;
}

craysim::sim::SimResult run_with(const craysim::sim::SimParams& params) {
  using namespace craysim;
  sim::Simulator simulator(params);
  simulator.add_app(workload::make_profile(workload::AppId::kVenus, 11));
  simulator.add_app(workload::make_profile(workload::AppId::kLes, 22));
  return simulator.run();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace craysim;
  const std::vector<Config> configs = {
      {"no cap (paper default)", 0},
      {"cap = 1/2 of cache", Bytes{16} * kMB},
      {"cap = 1/4 of cache", Bytes{8} * kMB},
      {"cap = 1/8 of cache", Bytes{4} * kMB},
  };
  bench::Sweep sweep(argc, argv, bench::labels_of(configs, [](const Config& c) { return c.name; }));
  bench::heading("Ablation: per-process buffer ownership caps (venus + les, 32 MB cache)");
  const auto results =
      sweep.run([&](std::size_t i) { return config_params(configs[i]); }, run_with);

  TextTable table({"configuration", "wall s", "idle s", "util %", "space waits"});
  double util_uncapped = 0;
  double util_worst_capped = 1.0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto& c = configs[i];
    const auto& r = results[i];
    table.row()
        .cell(c.name)
        .num(r.total_wall.seconds(), 1)
        .num(r.idle_time().seconds(), 1)
        .num(100.0 * r.cpu_utilization(), 2)
        .integer(r.cache.space_waits);
    if (c.cap == 0) {
      util_uncapped = r.cpu_utilization();
    } else {
      util_worst_capped = std::min(util_worst_capped, r.cpu_utilization());
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf("paper: buffer caps 'did not relieve the problem, and actually worsened CPU "
              "utilization in several cases'\n");

  bench::check(util_worst_capped <= util_uncapped + 0.005,
               "ownership caps do not improve utilization (and can worsen it)");

  return sweep.finish(results[0], config_params(configs[0]), run_with);
}
