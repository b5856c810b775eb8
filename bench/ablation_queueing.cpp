// Ablation for the Section 6.1 limitation: the paper's disk model has no
// request queueing ("This simplification significantly affected our
// results"). Here we quantify it: the same workload under (a) the paper's
// no-queueing model on one virtual disk, (b) FIFO queueing on one disk,
// (c) FIFO queueing across a small farm of disks with file affinity.
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
  bool queueing;
  std::int32_t disks;
};

craysim::sim::SimParams config_params(const Config& config) {
  using namespace craysim;
  sim::SimParams params = sim::SimParams::paper_main_memory(Bytes{32} * kMB);
  params.disk_queueing = config.queueing;
  params.disk_count = config.disks;
  return params;
}

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
  const std::vector<Config> configs = {
      {"paper mode: no queueing, 1 disk", false, 1},
      {"FIFO queueing, 1 disk", true, 1},
      {"FIFO queueing, 4 disks", true, 4},
      {"FIFO queueing, 16 disks", true, 16},
  };
  bench::Sweep sweep(argc, argv, bench::labels_of(configs, [](const Config& c) { return c.name; }));
  bench::heading("Ablation: disk queueing (2 x venus, 32 MB main-memory cache)");
  const auto results =
      sweep.run([&](std::size_t i) { return config_params(configs[i]); }, run_with);

  TextTable table({"configuration", "wall s", "idle s", "util %", "disk queue wait s"});
  double wall_paper = 0;
  double wall_queue1 = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto& c = configs[i];
    const auto& r = results[i];
    table.row()
        .cell(c.name)
        .num(r.total_wall.seconds(), 1)
        .num(r.idle_time().seconds(), 1)
        .num(100.0 * r.cpu_utilization(), 1)
        .num(r.disk.queue_wait_time.seconds(), 1);
    if (!c.queueing) wall_paper = r.total_wall.seconds();
    if (c.queueing && c.disks == 1) wall_queue1 = r.total_wall.seconds();
  }
  std::printf("%s", table.render().c_str());
  std::printf("paper: 'There was no queueing at the disks ... This simplification significantly "
              "affected our results.'\n");

  bench::check(wall_queue1 > wall_paper * 1.05,
               "single-disk FIFO queueing slows the workload vs the paper's optimistic model");

  return sweep.finish(results[0], config_params(configs[2]), run_with);
}
