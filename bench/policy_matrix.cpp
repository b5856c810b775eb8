// Completes the Section 6.2 policy discussion with a full product table:
// every traced application under the four read-ahead x write-behind policy
// combinations in a per-CPU main-memory cache. The paper reports the venus
// and les cases; this sweep shows the pattern holds across the suite —
// write-behind is decisive for write-heavy staging codes, read-ahead for
// sequential readers, and the compulsory-I/O programs don't care.
//
// The 28 independent simulations fan out across the experiment runner (set
// CRAYSIM_RUNNER_THREADS=1 for a serial, byte-identical run).
//
// Telemetry: "--metrics <path>" writes a JSONL snapshot (runner worker
// utilization, phase wall times, and the venus RA+WB point's sim metrics);
// "--perfetto <path>" re-runs that venus point with the span recorder on and
// writes a Chrome trace-event file loadable in Perfetto. "--perfetto-sweep
// <path>" instruments the real 28-point sweep instead — every point records
// into its own SpanRecorder and the merged trace shows all of them as
// labeled process groups; "--timeseries <path>" adds the sim-time counter
// samples as JSONL ("--counter-interval <ms>" tunes the period), and
// "--listen <host:port>" serves live /metrics (Prometheus), /status (JSON
// progress/ETA), and /healthz while the sweep runs. All flags are passive:
// the sweep's table is byte-identical with and without them.
//
// Resilience (docs/RESILIENCE.md): "--journal <path>" checkpoints each
// settled point and resumes a partial sweep byte-identically; "--deadline
// <s>", "--max-attempts <n>", "--chaos-fail <rate>" / "--chaos-hang <rate>"
// / "--chaos-seed <n>" bound, retry, and chaos-test the points. A journaled
// sweep with a deadline also arms the flight recorder: timed-out points
// dump their last span/counter events to <journal>.flight.json. Absent
// flags leave the table byte-identical.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/span.hpp"
#include "sim/simulator.hpp"
#include "sweep.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"

namespace {

using namespace craysim;

struct PolicyPoint {
  workload::AppId app;
  bool read_ahead = false;
  bool write_behind = false;
};

sim::SimParams point_params(const PolicyPoint& point) {
  sim::SimParams params = sim::SimParams::paper_main_memory(Bytes{16} * kMB);
  params.cache.read_ahead = point.read_ahead;
  params.cache.write_behind = point.write_behind;
  return params;
}

sim::SimResult run_point(const PolicyPoint& point, const sim::SimParams& params) {
  sim::Simulator simulator(params);
  simulator.add_app(workload::make_profile(point.app, 11));
  return simulator.run();
}

std::string point_label(const PolicyPoint& point) {
  std::string label{workload::app_name(point.app)};
  if (point.read_ahead && point.write_behind) return label + " RA+WB";
  if (point.read_ahead) return label + " RA only";
  if (point.write_behind) return label + " WB only";
  return label + " neither";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace craysim;
  // Policy order per app: RA+WB, RA only, WB only, neither.
  const bool policies[4][2] = {{true, true}, {true, false}, {false, true}, {false, false}};
  const auto apps = workload::all_apps();
  std::vector<PolicyPoint> points;
  for (const workload::AppId app : apps) {
    for (const auto& policy : policies) points.push_back({app, policy[0], policy[1]});
  }

  obs::MetricsRegistry registry;  // outlives the sweep: --listen scrapes fold it in
  bench::Sweep sweep(argc, argv, bench::labels_of(points, point_label), &registry);
  const bench::ObsArgs& obs_args = sweep.obs_args();
  obs::PhaseProfiler phases;
  bench::heading("Section 6.2 policy matrix: utilization %, each app alone in a 16 MB cache");

  std::vector<double> utils;
  {
    const auto scope = phases.scope("sweep");
    utils = sweep.run([&](std::size_t i) { return point_params(points[i]); },
                      [&](std::size_t i, const sim::SimParams& params) {
                        return run_point(points[i], params).cpu_utilization();
                      });
  }
  if (!sweep.finish()) return 1;
  const auto util_of = [&](workload::AppId app, std::size_t policy) {
    for (std::size_t a = 0; a < apps.size(); ++a) {
      if (apps[a] == app) return 100.0 * utils[a * 4 + policy];
    }
    return 0.0;
  };

  TextTable table({"app", "RA+WB", "RA only", "WB only", "neither"});
  bool policies_help = true;
  bool les_always_fine = true;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const double both = 100.0 * utils[a * 4 + 0];
    const double ra = 100.0 * utils[a * 4 + 1];
    const double wb = 100.0 * utils[a * 4 + 2];
    const double neither = 100.0 * utils[a * 4 + 3];
    table.row()
        .cell(std::string(workload::app_name(apps[a])))
        .num(both, 1)
        .num(ra, 1)
        .num(wb, 1)
        .num(neither, 1);
    policies_help &= both + 1e-9 >= neither - 5.0;  // policies never hurt much
    if (apps[a] == workload::AppId::kLes) les_always_fine = both > 95.0;
  }
  std::printf("%s", table.render().c_str());
  std::printf("\npaper: venus benefited chiefly from write-behind; les ran with little idle\n"
              "under any policy thanks to its explicit asynchronous I/O; gcm and upw do so\n"
              "little I/O that the policies are irrelevant to them.\n");

  const double venus_both = util_of(workload::AppId::kVenus, 0);
  const double venus_ra = util_of(workload::AppId::kVenus, 1);
  const double venus_none = util_of(workload::AppId::kVenus, 3);
  bench::check(venus_both > 2.0 * venus_ra && venus_both > 3.0 * venus_none,
               "venus benefits strongly from write-behind on top of read-ahead");
  bench::check(les_always_fine, "les stays near fully utilized (explicit async I/O)");
  const double gcm_worst = util_of(workload::AppId::kGcm, 3);
  const double upw_worst = util_of(workload::AppId::kUpw, 3);
  bench::check(gcm_worst > 94.0 && upw_worst > 94.0,
               "the compulsory-I/O programs are least sensitive to the cache policies");
  bench::check(policies_help, "enabling both policies never costs meaningful utilization");

  if (!obs_args.perfetto_path.empty()) {
    // One instrumented venus RA+WB replay: spans for every process interval,
    // I/O op lifetime, disk access, and cache eviction, viewable in Perfetto.
    const auto scope = phases.scope("perfetto");
    const PolicyPoint venus_point{workload::AppId::kVenus, true, true};
    obs::SpanRecorder spans;
    sim::SimParams params = point_params(venus_point);
    params.spans = &spans;
    (void)run_point(venus_point, params);
    const std::string problem = obs::check_consistency(spans);
    if (!problem.empty()) {
      std::fprintf(stderr, "span consistency check failed: %s\n", problem.c_str());
      return 1;
    }
    spans.save(obs_args.perfetto_path);
    std::printf("\nwrote %zu span events to %s\n", spans.size(), obs_args.perfetto_path.c_str());
  }

  if (!obs_args.metrics_path.empty()) {
    const PolicyPoint venus_point{workload::AppId::kVenus, true, true};
    run_point(venus_point, point_params(venus_point)).publish_metrics(registry, "sim.venus");
    sweep.runner().publish_metrics(registry);
    phases.publish_metrics(registry);
    registry.save_jsonl(obs_args.metrics_path);
    std::printf("\nwrote %zu metrics to %s\n", registry.size(), obs_args.metrics_path.c_str());
  }
  return 0;
}
