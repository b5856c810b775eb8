// Sweep-scale telemetry for the figure/table benches, owned by bench::Sweep
// (sweep.hpp).
//
// Wraps an obs::SpanRecorderPool behind the ObsArgs flags: each sweep point
// claims its own recorder (plus the sim-time counter sampling interval)
// right where its SimParams are built, and finish() validates every
// recording and writes the merged Perfetto trace / counter time series the
// user asked for. With neither --perfetto-sweep nor --timeseries given the
// pool is disabled and instrument() attaches no recorder, so the sweep's
// results and printed output are byte-identical to an untelemetered run.
//
// Latency attribution rides the same shape (docs/OBSERVABILITY.md): with
// --attribution (or --listen) each point gets its own obs::AttributionLedger,
// finish() writes the per-point blame rows as JSONL and prints the merged
// "where did the time go" report, and Sweep serves the merged ledgers live
// on /attribution and as sim_attr_* metrics. Without those flags
// params.attribution stays null and the sweep is bit-identical.
#pragma once

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/attribution.hpp"
#include "bench_common.hpp"
#include "obs/attr.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/sanitize.hpp"
#include "obs/span_pool.hpp"
#include "runner/journal.hpp"
#include "sim/params.hpp"
#include "util/atomic_file.hpp"

namespace craysim::bench {

class SweepObserver {
 public:
  /// Builds what the flags ask for, one slot per label: span recorders
  /// (--perfetto-sweep, --timeseries), blame ledgers (--attribution,
  /// --listen), and the deadline flight recorder. The flight recorder
  /// (docs/OBSERVABILITY.md) is one bounded ring per point, filled by a span
  /// tee while the point runs and dumped to `<journal>.flight.json` by
  /// dump_flight() when any point times out. It is armed only for journaled
  /// sweeps with a deadline — the combination where a timed-out point would
  /// otherwise leave no evidence behind.
  SweepObserver(const ObsArgs& args, const ResilienceArgs& res, std::vector<std::string> labels)
      : args_(args), labels_(std::move(labels)), pool_(labels_.size(), args.sweep_telemetry()) {
    if (args.attribution()) {
      ledgers_ = std::make_unique<obs::AttributionLedger[]>(labels_.size());
    }
    if (!res.journal_path.empty() && res.deadline_s > 0.0) {
      flight_path_ = res.journal_path + ".flight.json";
      flight_deadline_s_ = res.deadline_s;
      flights_ = std::vector<obs::FlightRecorder>(labels_.size());
      if (!pool_.enabled()) flight_spans_ = std::vector<obs::SpanRecorder>(labels_.size());
    }
  }

  [[nodiscard]] std::size_t size() const { return labels_.size(); }
  [[nodiscard]] const std::string& label(std::size_t index) const { return labels_[index]; }
  [[nodiscard]] bool enabled() const { return pool_.enabled(); }
  [[nodiscard]] obs::SpanRecorderPool& pool() { return pool_; }

  /// Did --attribution (or --listen, which serves /attribution) arm the
  /// per-point blame ledgers?
  [[nodiscard]] bool attribution_enabled() const { return ledgers_ != nullptr; }

  [[nodiscard]] bool flight_armed() const { return !flights_.empty(); }
  [[nodiscard]] const std::string& flight_path() const { return flight_path_; }

  /// Wires point `index`'s telemetry into `params` for one attempt: a fresh
  /// span recorder plus the counter sampling interval, and the point's blame
  /// ledger, emptied first so a retried point's rows describe its last
  /// attempt only. Attaches nothing when sweep telemetry is off and no
  /// flight ring is armed (params keeps its null defaults, so the
  /// simulation does zero telemetry work). With a flight ring armed but
  /// Perfetto export off, the point gets a constant-memory flight-only
  /// recorder instead (events tee into the ring and are not retained).
  void instrument(std::size_t index, sim::SimParams& params) {
    if (ledgers_ != nullptr) {
      ledgers_[index].reset();
      params.attribution = &ledgers_[index];
    }
    obs::SpanRecorder* recorder = pool_.claim(index, labels_[index]);
    if (recorder == nullptr) {
      if (!flight_armed()) return;
      recorder = &flight_spans_[index];
      recorder->set_flight(&flights_[index], /*keep_events=*/false);
    } else if (flight_armed()) {
      recorder->set_flight(&flights_[index]);
    }
    params.spans = recorder;
    params.counter_interval = Ticks::from_ms(args_.counter_interval_ms);
  }

  /// Writes `<journal>.flight.json` (atomically) when the flight ring is
  /// armed and at least one point settled as timed out: one record per
  /// timed-out point with its outcome and the tail of its recording. Points
  /// that never reached their own simulation (a chaos hang cancelled before
  /// the body ran) appear with an empty event tail — the outcome fields
  /// still say what happened. No-op otherwise. Returns the path written, or
  /// "" when nothing was dumped (so callers can report it to /status).
  std::string dump_flight(const std::vector<runner::PointOutcome>& outcomes) {
    if (!flight_armed()) return {};
    std::size_t timed_out = 0;
    for (const auto& outcome : outcomes) {
      if (outcome.status == runner::PointStatus::kTimedOut) ++timed_out;
    }
    if (timed_out == 0) return {};
    std::ostringstream out;
    out << "{\"craysim_flight\":1,\"deadline_s\":" << flight_deadline_s_
        << ",\"capacity\":" << obs::FlightRecorder::kDefaultCapacity << ",\"points\":[";
    bool first = true;
    for (std::size_t i = 0; i < outcomes.size() && i < flights_.size(); ++i) {
      if (outcomes[i].status != runner::PointStatus::kTimedOut) continue;
      if (!first) out << ",";
      first = false;
      out << "{\"point\":" << i << ",\"label\":\"" << obs::json_escape(labels_[i])
          << "\",\"status\":\"" << runner::point_status_name(outcomes[i].status)
          << "\",\"attempts\":" << outcomes[i].attempts
          << ",\"backoff_ns\":" << outcomes[i].backoff_ns << ",\"error\":\""
          << obs::json_escape(outcomes[i].error) << "\",";
      flights_[i].write_json_events(out);
      out << "}";
    }
    out << "]}\n";
    util::write_file_atomic(flight_path_, out.str());
    std::printf("wrote flight recording (%zu timed-out points) to %s\n", timed_out,
                flight_path_.c_str());
    return flight_path_;
  }

  /// Blame totals across every point's ledger, merged by row key. Safe to
  /// call mid-sweep (the ledgers are built for concurrent scrapes); the
  /// result is an in-progress view, like /metrics counters.
  [[nodiscard]] obs::AttrSummary attribution_summary() const {
    obs::AttrSummary merged;
    if (ledgers_ == nullptr) return merged;
    for (std::size_t i = 0; i < labels_.size(); ++i) {
      obs::merge_attr_summary(merged, ledgers_[i].summarize());
    }
    return merged;
  }

  /// The /attribution payload: the merged summary as one JSON object
  /// (top-level marker "craysim_attribution").
  [[nodiscard]] std::string attribution_json() const {
    std::ostringstream out;
    obs::write_attr_json(out, attribution_summary());
    out << "\n";
    return out.str();
  }

  /// Publishes the merged summary into `registry` under "sim.attr" (the
  /// sim_attr_* Prometheus families); Sweep wires it into the runner's
  /// per-scrape hook.
  void publish_attribution(obs::MetricsRegistry& registry) const {
    if (ledgers_ == nullptr) return;
    const obs::AttrSummary merged = attribution_summary();
    if (merged.enabled) obs::publish_attr_metrics(merged, registry);
  }

  /// Writes the per-point JSONL blame ledgers and prints the merged blame
  /// report. finish() calls this on success; Sweep calls it before a
  /// failure exit, so — like the flight dump — a sweep that dies of
  /// timeouts still leaves its attribution evidence behind. No-op unless
  /// --attribution was given.
  void write_attribution_artifact() const {
    if (ledgers_ == nullptr || args_.attribution_path.empty()) return;
    std::ostringstream out;
    for (std::size_t i = 0; i < labels_.size(); ++i) {
      // Journal-restored points never re-ran their simulation, so their
      // ledgers are empty; they still emit a zero total row so the file
      // always carries one "total" line per sweep point.
      obs::write_attr_jsonl(out, ledgers_[i].summarize(), labels_[i]);
    }
    util::write_file_atomic(args_.attribution_path, out.str());
    std::printf("wrote attribution ledgers (%zu points) to %s\n", labels_.size(),
                args_.attribution_path.c_str());
    std::printf("\n%s", analysis::attribution_report(attribution_summary(),
                                                     args_.attr_top).c_str());
  }

  /// Validates every recording and writes the requested artifacts. Returns
  /// false (after printing the violation to stderr) if any point's spans
  /// are inconsistent; callers should fail the bench run in that case.
  [[nodiscard]] bool finish() {
    if (pool_.enabled()) {
      const std::string problem = obs::check_consistency(pool_);
      if (!problem.empty()) {
        std::fprintf(stderr, "sweep span consistency check failed: %s\n", problem.c_str());
        return false;
      }
      if (!args_.perfetto_sweep_path.empty()) {
        pool_.save_merged(args_.perfetto_sweep_path);
        std::printf("\nwrote merged sweep trace (%zu points) to %s\n", pool_.size(),
                    args_.perfetto_sweep_path.c_str());
      }
      if (!args_.timeseries_path.empty()) {
        pool_.save_counter_series(args_.timeseries_path);
        std::printf("wrote counter time series to %s\n", args_.timeseries_path.c_str());
      }
    }
    write_attribution_artifact();
    return true;
  }

 private:
  ObsArgs args_;
  std::vector<std::string> labels_;  ///< one per point; immutable after construction
  obs::SpanRecorderPool pool_;

  // One blame ledger per sweep point, or null unless args.attribution()
  // (heap array — each ledger is several KiB of cache-line-aligned
  // atomics), sized once so workers and the live handler hold stable
  // pointers. Scraped lock-free.
  std::unique_ptr<obs::AttributionLedger[]> ledgers_;

  // Flight-recorder state; all empty unless armed. The vectors are sized
  // once (never reallocated mid-sweep — workers hold pointers into them)
  // and each slot is touched only by the worker running that point.
  std::string flight_path_;
  double flight_deadline_s_ = 0.0;
  std::vector<obs::FlightRecorder> flights_;
  std::vector<obs::SpanRecorder> flight_spans_;  ///< flight-only probes (Perfetto off)
};

}  // namespace craysim::bench
