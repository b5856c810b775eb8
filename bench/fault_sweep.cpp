// Fault-injection sweep: how well does lossy-pipeline recovery preserve the
// paper's summary statistics as the collection channel degrades, and what do
// injected disk failures cost the Section 6 simulator?
//
// Sweeps packet-drop rates through the tracer and reports recovered-trace
// fidelity against the lossless stream, then sweeps disk transient-error
// rates through the simulator and reports the retry/backoff bill. Exits
// nonzero if recovery accounting ever disagrees with the injected schedule.
//
// Both sweeps fan out across the experiment runner; the drop-rate points all
// read one shared, immutable copy of the synthesized venus trace.
//
// The sweep flags (telemetry: "--metrics", "--perfetto", "--perfetto-sweep",
// "--timeseries", "--counter-interval <ms>"; resilience: "--journal",
// "--deadline", "--max-attempts", "--chaos-fail", "--chaos-seed";
// docs/RESILIENCE.md) drive the disk-fault *simulator* sweep — it is the one
// whose points are slow enough to be worth checkpointing. The tracer
// drop-rate sweep has no simulator and no journal codec; it runs on its own
// plain runner, untelemetered.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "faults/fault.hpp"
#include "runner/runner.hpp"
#include "sim/simulator.hpp"
#include "sweep.hpp"
#include "trace/stats.hpp"
#include "tracer/pipeline.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

namespace {

double pct_error(double measured, double truth) {
  if (truth == 0.0) return measured == 0.0 ? 0.0 : 100.0;
  return 100.0 * std::abs(measured - truth) / std::abs(truth);
}

struct DropResult {
  std::int64_t packets_missing = 0;
  std::int64_t packets_dropped = 0;
  std::int64_t gap_count = 0;
  std::int64_t entries_recovered = 0;
  std::int64_t entries_sent = 0;
  craysim::trace::TraceStats stats;
};

craysim::sim::SimParams disk_point_params(double rate) {
  using namespace craysim;
  sim::SimParams params = sim::SimParams::paper_main_memory(Bytes{32} * kMB);
  params.disk_count = 4;
  params.faults.disk.transient_error_rate = rate;
  params.faults.disk.permanent_error_rate = rate / 20.0;
  return params;
}

craysim::sim::SimResult run_disk_with(const craysim::sim::SimParams& params) {
  using namespace craysim;
  sim::Simulator sim(params);
  sim.add_app(workload::make_profile(workload::AppId::kVenus, 11));
  sim.add_app(workload::make_profile(workload::AppId::kLes, 22));
  return sim.run();
}

std::string disk_point_label(double rate) {
  char label[48];
  std::snprintf(label, sizeof label, "disk err %g%%", 100.0 * rate);
  return label;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace craysim;
  const std::vector<double> error_rates = {0.0, 0.01, 0.05, 0.10};
  bench::Sweep sweep(argc, argv, bench::labels_of(error_rates, disk_point_label));
  bench::heading("Fault sweep: lossy trace recovery fidelity");

  const trace::Trace original =
      workload::synthesize_trace(workload::make_profile(workload::AppId::kVenus));
  const auto full = trace::compute_stats(original);
  tracer::TracerOptions options;
  options.entries_per_packet = 16;  // small packets so drops bite at low rates

  const std::vector<double> drop_rates = {0.0, 0.01, 0.02, 0.05, 0.10, 0.20};
  runner::ExperimentRunner pool;
  const std::vector<DropResult> drops = pool.run(drop_rates, [&](double rate) {
    faults::FaultPlan plan;
    plan.packet.drop_rate = rate;
    const auto collector = tracer::instrument_trace(original, plan, options);
    const auto recovered =
        tracer::reconstruct_lossy(collector.log(), collector.sequences_issued());
    DropResult out;
    out.packets_missing = recovered.report.packets_missing;
    out.packets_dropped = collector.stats().packets_dropped;
    out.gap_count = recovered.report.gap_count;
    out.entries_recovered = recovered.report.entries_recovered;
    out.entries_sent = collector.stats().entries;
    out.stats = trace::compute_stats(recovered.trace);
    return out;
  });

  TextTable table({"drop rate %", "packets lost", "gaps", "entries kept %", "I/O count err %",
                   "bytes err %", "seq frac err %", "accounting"});
  bool accounting_ok = true;
  bool fidelity_ok = true;
  std::vector<double> kept_pct;
  for (std::size_t i = 0; i < drop_rates.size(); ++i) {
    const double rate = drop_rates[i];
    const DropResult& r = drops[i];
    const bool exact = r.packets_missing == r.packets_dropped;
    accounting_ok &= exact;
    const double kept = 100.0 * static_cast<double>(r.entries_recovered) /
                        static_cast<double>(r.entries_sent);
    const double io_err =
        pct_error(static_cast<double>(r.stats.io_count), static_cast<double>(full.io_count));
    const double bytes_err = pct_error(static_cast<double>(r.stats.total_bytes()),
                                       static_cast<double>(full.total_bytes()));
    const double seq_err = pct_error(r.stats.sequential_fraction(), full.sequential_fraction());
    if (rate <= 0.05) fidelity_ok &= io_err <= 10.0 && bytes_err <= 10.0 && seq_err <= 10.0;
    kept_pct.push_back(kept);

    table.row()
        .num(100.0 * rate, 0)
        .integer(r.packets_missing)
        .integer(r.gap_count)
        .num(kept, 1)
        .num(io_err, 2)
        .num(bytes_err, 2)
        .num(seq_err, 2)
        .cell(exact ? "exact" : "MISMATCH");
  }
  std::printf("%s", table.render().c_str());

  PlotOptions plot;
  plot.y_label = "entries kept %";
  plot.x_label = "sweep point (see table)";
  plot.height = 12;
  std::printf("%s", ascii_plot(kept_pct, plot).c_str());

  bench::heading("Fault sweep: simulator under injected disk failures");
  const std::vector<sim::SimResult> disk_results = sweep.run(
      [&](std::size_t i) { return disk_point_params(error_rates[i]); }, run_disk_with);
  TextTable disks({"transient rate %", "wall s", "slowdown %", "transients", "retries",
                   "backoff s", "disks lost"});
  const double base_wall = disk_results[0].total_wall.seconds();
  bool survived_ok = true;
  for (std::size_t i = 0; i < error_rates.size(); ++i) {
    const sim::SimResult& result = disk_results[i];
    const double wall = result.total_wall.seconds();
    survived_ok &= result.total_wall > Ticks::zero();
    disks.row()
        .num(100.0 * error_rates[i], 0)
        .num(wall, 2)
        .num(base_wall > 0.0 ? 100.0 * (wall - base_wall) / base_wall : 0.0, 2)
        .integer(result.disk.transient_errors)
        .integer(result.disk.retries)
        .num(result.disk.retry_backoff_time.seconds(), 3)
        .integer(result.disk.permanent_failures);
  }
  std::printf("%s", disks.render().c_str());

  bench::check(accounting_ok, "reported missing packets always equal the injected drops");
  bench::check(fidelity_ok, "summary statistics stay within 10% of lossless up to 5% drop");
  bench::check(survived_ok, "the simulator completes every run, even degraded");

  // The --metrics runner.* series cover the simulator sweep's runner only.
  if (const int status = sweep.finish(disk_results.back(), disk_point_params(0.05),
                                      run_disk_with);
      status != 0) {
    return status;
  }
  return accounting_ok && fidelity_ok && survived_ok ? 0 : 1;
}
