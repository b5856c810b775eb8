// Ablation for the Section 6.2 write-behind claim:
// "writebehind reduced idle time from 211 seconds to 1 second for a
//  simulation of two identical copies of venus running with a 128 MB cache."
// Also ablates read-ahead, since the section credits both techniques.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/simulator.hpp"
#include "sweep.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"

namespace {

struct PolicyPoint {
  bool write_behind = false;
  bool read_ahead = false;
};

craysim::sim::SimParams point_params(const PolicyPoint& point) {
  using namespace craysim;
  sim::SimParams params = sim::SimParams::paper_ssd(Bytes{128} * kMB);
  params.cache.write_behind = point.write_behind;
  params.cache.read_ahead = point.read_ahead;
  return params;
}

craysim::sim::SimResult run_with(const craysim::sim::SimParams& params) {
  using namespace craysim;
  sim::Simulator simulator(params);
  simulator.add_app(workload::make_profile(workload::AppId::kVenus, 11));
  simulator.add_app(workload::make_profile(workload::AppId::kVenus, 22));
  return simulator.run();
}

std::string point_label(const PolicyPoint& point) {
  return std::string("WB ") + (point.write_behind ? "on" : "off") + ", RA " +
         (point.read_ahead ? "on" : "off");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace craysim;
  std::vector<PolicyPoint> points;
  for (const bool wb : {true, false}) {
    for (const bool ra : {true, false}) points.push_back({wb, ra});
  }
  bench::Sweep sweep(argc, argv, bench::labels_of(points, point_label));
  bench::heading("Ablation: write-behind and read-ahead (2 x venus, 128 MB cache)");
  const auto results =
      sweep.run([&](std::size_t i) { return point_params(points[i]); }, run_with);

  TextTable table({"write-behind", "read-ahead", "idle s", "wall s", "utilization %"});
  double idle_wb = 0;
  double idle_no_wb = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& [wb, ra] = points[i];
    const auto& r = results[i];
    table.row()
        .cell(wb ? "on" : "off")
        .cell(ra ? "on" : "off")
        .num(r.idle_time().seconds(), 1)
        .num(r.total_wall.seconds(), 1)
        .num(100.0 * r.cpu_utilization(), 1);
    if (wb && ra) idle_wb = r.idle_time().seconds();
    if (!wb && ra) idle_no_wb = r.idle_time().seconds();
  }
  std::printf("%s", table.render().c_str());
  std::printf("paper: write-behind cut idle time from 211 s to ~1 s in this configuration\n");

  bench::check(idle_wb < 10.0, "with write-behind, idle time is near zero");
  bench::check(idle_no_wb > 100.0, "without write-behind, idle time is in the hundreds of seconds");
  bench::check(idle_no_wb / std::max(idle_wb, 0.5) > 20.0,
               "write-behind removes the overwhelming majority of idle time");

  return sweep.finish(results[0], point_params(points[0]), run_with);
}
