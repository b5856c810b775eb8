// The one sweep harness behind the figure/table benches (docs/RESILIENCE.md,
// docs/OBSERVABILITY.md). A bench names its points once, by label, and
// hands Sweep two functions: one that builds a point's SimParams and one
// that simulates them. Sweep does the rest of what the sweep flags ask for:
//
//   - parses ObsArgs and ResilienceArgs out of argv; a bad flag ends the
//     bench with one stderr line and exit status 2;
//   - builds the RunnerOptions, the SweepObserver and the ExperimentRunner,
//     in that order (the member order below is the "observer before runner"
//     rule: the runner's live server calls back into the observer);
//   - instruments each attempt's SimParams with the point's span recorder,
//     blame ledger and the attempt's CancelToken, so --deadline stops the
//     simulation itself;
//   - runs the points with a journal codec picked from the result type
//     (double or sim::SimResult) whose input identity is the point's label;
//   - reports the flight dump, the resilience outcome line and failed points
//     (exit status 1), then writes the telemetry artifacts.
//
// With no flags no server, ledger or flight ring exists, no result is
// encoded, and the bench's output is byte-identical at any thread count.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "runner/runner.hpp"
#include "sim/metrics.hpp"
#include "sim/params.hpp"
#include "sweep_obs.hpp"
#include "util/cancel.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"

namespace craysim::bench {

/// One label per point, in sweep order.
template <typename Points, typename LabelFn>
[[nodiscard]] std::vector<std::string> labels_of(const Points& points, LabelFn&& label) {
  std::vector<std::string> labels;
  for (const auto& point : points) labels.emplace_back(label(point));
  return labels;
}

class Sweep {
 public:
  /// Parses the sweep flags out of argv (exit status 2 on a bad value) and
  /// builds the observer and runner for one point per label. `live_metrics`,
  /// if given, is folded into every --listen /metrics scrape and must
  /// outlive the Sweep.
  Sweep(int& argc, char** argv, std::vector<std::string> labels,
        obs::MetricsRegistry* live_metrics = nullptr)
      : obs_args_(take_or_exit<ObsArgs>(argc, argv)),
        res_args_(take_or_exit<ResilienceArgs>(argc, argv)),
        observer_(obs_args_, res_args_, std::move(labels)),
        indices_(observer_.size()),
        runner_(runner_options(live_metrics)) {
    std::iota(indices_.begin(), indices_.end(), std::size_t{0});
    if (observer_.flight_armed()) runner_.note_flight_armed(observer_.flight_path());
  }

  [[nodiscard]] const ObsArgs& obs_args() const { return obs_args_; }
  [[nodiscard]] SweepObserver& observer() { return observer_; }
  [[nodiscard]] runner::ExperimentRunner& runner() { return runner_; }

  /// Runs every point: params_of(i) builds point i's SimParams, Sweep
  /// instruments them for the attempt, and simulate(params) — or
  /// simulate(i, params) — returns the point's double or sim::SimResult.
  /// Dumps the flight recording and prints the resilience outcome line;
  /// failed points stay in the returned results.
  template <typename ParamsFn, typename SimulateFn>
  [[nodiscard]] auto run_settled(ParamsFn&& params_of, SimulateFn&& simulate) {
    const auto point = [&](std::size_t i, const util::CancelToken& cancel) {
      sim::SimParams params = params_of(i);
      observer_.instrument(i, params);
      params.cancel = &cancel;
      if constexpr (std::is_invocable_v<SimulateFn&, const sim::SimParams&>) {
        return simulate(std::as_const(params));
      } else {
        return simulate(i, std::as_const(params));
      }
    };
    using R = runner::detail::point_value_t<decltype(point), std::size_t>;
    auto settled = runner_.run_settled(indices_, point, JournalCodec<R>{&observer_});
    std::vector<runner::PointOutcome> outcomes;
    outcomes.reserve(settled.size());
    for (const auto& result : settled) outcomes.push_back(result.outcome);
    report(outcomes);
    return settled;
  }

  /// run_settled, then the failure exit: failed points are reported on
  /// stderr and end the bench with status 1, after the blame ledgers are
  /// written. Returns the values in point order.
  template <typename ParamsFn, typename SimulateFn>
  [[nodiscard]] auto run(ParamsFn&& params_of, SimulateFn&& simulate) {
    auto settled = run_settled(std::forward<ParamsFn>(params_of),
                               std::forward<SimulateFn>(simulate));
    std::vector<std::decay_t<decltype(*settled[0].value)>> values;
    values.reserve(settled.size());
    bool failed = false;
    for (std::size_t i = 0; i < settled.size(); ++i) {
      const runner::PointOutcome& outcome = settled[i].outcome;
      if (settled[i].ok()) {
        values.push_back(std::move(*settled[i].value));
        continue;
      }
      failed = true;
      std::fprintf(stderr, "sweep point %zu failed (%s, %d attempts): %s\n", i,
                   runner::point_status_name(outcome.status), outcome.attempts,
                   outcome.error.c_str());
    }
    if (failed) {
      // A sweep that dies still leaves its blame ledgers behind.
      observer_.write_attribution_artifact();
      std::exit(1);
    }
    return values;
  }

  /// Validates and writes the sweep telemetry artifacts; false (after a
  /// stderr line) if any point's recording is inconsistent.
  [[nodiscard]] bool finish() { return observer_.finish(); }

  /// The tail SimResult sweeps share: finish(), then "--perfetto" (one
  /// instrumented simulate(trace_params), validated and saved), then
  /// "--metrics" (`snapshot` under "sim" plus the runner's own series).
  /// Returns the bench's exit status: 1 if a recording is inconsistent.
  template <typename SimulateFn>
  [[nodiscard]] int finish(const sim::SimResult& snapshot, sim::SimParams trace_params,
                           SimulateFn&& simulate) {
    if (!finish()) return 1;
    if (!obs_args_.perfetto_path.empty()) {
      obs::SpanRecorder spans;
      trace_params.spans = &spans;
      trace_params.counter_interval = Ticks::from_ms(obs_args_.counter_interval_ms);
      (void)simulate(std::as_const(trace_params));
      const std::string problem = obs::check_consistency(spans);
      if (!problem.empty()) {
        std::fprintf(stderr, "span consistency check failed: %s\n", problem.c_str());
        return 1;
      }
      spans.save(obs_args_.perfetto_path);
      std::printf("\nwrote %zu span events to %s\n", spans.size(),
                  obs_args_.perfetto_path.c_str());
    }
    if (!obs_args_.metrics_path.empty()) {
      obs::MetricsRegistry registry;
      snapshot.publish_metrics(registry, "sim");
      runner_.publish_metrics(registry);
      registry.save_jsonl(obs_args_.metrics_path);
      std::printf("wrote %zu metrics to %s\n", registry.size(), obs_args_.metrics_path.c_str());
    }
    return 0;
  }

 private:
  /// Journal codec for the two result types sweeps produce: hexfloat for
  /// doubles (decode(encode(v)) == v bit for bit) and the lossless
  /// sim::serialize_sim_result round trip for SimResults. A point's input
  /// identity is its label's digest, so a journal written by one bench (or
  /// one point layout) is rejected by any other.
  template <typename R>
  struct JournalCodec {
    static_assert(std::is_same_v<R, double> || std::is_same_v<R, sim::SimResult>,
                  "a sweep point returns a double or a sim::SimResult");
    const SweepObserver* observer;

    [[nodiscard]] std::string encode(const R& value) const {
      if constexpr (std::is_same_v<R, double>) {
        char buf[48];
        std::snprintf(buf, sizeof buf, "%a", value);
        return buf;
      } else {
        return sim::serialize_sim_result(value);
      }
    }
    [[nodiscard]] R decode(std::string_view text) const {
      if constexpr (std::is_same_v<R, double>) {
        return std::strtod(std::string(text).c_str(), nullptr);
      } else {
        return sim::parse_sim_result(text);
      }
    }
    [[nodiscard]] std::uint64_t digest(std::size_t point) const {
      util::Fnv1a digest;
      digest.add_text(observer->label(point));
      return digest.value();
    }
  };

  template <typename Args>
  [[nodiscard]] static Args take_or_exit(int& argc, char** argv) {
    try {
      return Args::take(argc, argv);
    } catch (const ConfigError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(2);
    }
  }

  [[nodiscard]] runner::RunnerOptions runner_options(obs::MetricsRegistry* live_metrics) {
    runner::RunnerOptions options = runner::RunnerOptions::from_env();
    options.collect_telemetry = !obs_args_.metrics_path.empty();
    options.journal_path = res_args_.journal_path;
    options.point_deadline =
        std::chrono::nanoseconds(static_cast<std::int64_t>(std::ceil(res_args_.deadline_s * 1e9)));
    if (res_args_.max_attempts > 0) options.max_attempts = res_args_.max_attempts;
    options.chaos.fail_rate = res_args_.chaos_fail_rate;
    options.chaos.hang_rate = res_args_.chaos_hang_rate;
    if (res_args_.chaos_seed != 0) options.chaos.seed = res_args_.chaos_seed;
    if (obs_args_.listen_addr.empty()) return options;
    // --listen also arms the ledgers (ObsArgs::attribution), served live.
    options.listen_addr = obs_args_.listen_addr;
    options.metrics = live_metrics;
    options.endpoints.push_back(
        {"/attribution", "application/json", [this] { return observer_.attribution_json(); }});
    options.scrape_hook = [this](obs::MetricsRegistry& registry) {
      observer_.publish_attribution(registry);
    };
    return options;
  }

  /// After the sweep settles: the flight dump (reported to /status) and,
  /// when any resilience flag was given, the one-line outcome summary.
  void report(const std::vector<runner::PointOutcome>& outcomes) {
    const std::string dump = observer_.dump_flight(outcomes);
    if (!dump.empty()) runner_.note_flight_dump(dump);
    if (!res_args_.any()) return;
    long long attempts = 0;
    long long restored = 0;
    long long failed = 0;
    long long timed_out = 0;
    for (const runner::PointOutcome& outcome : outcomes) {
      attempts += outcome.attempts;
      restored += outcome.from_journal ? 1 : 0;
      failed += outcome.status == runner::PointStatus::kFailed ? 1 : 0;
      timed_out += outcome.status == runner::PointStatus::kTimedOut ? 1 : 0;
    }
    std::printf("resilience: %zu points, %lld attempts, %lld restored from journal, "
                "%lld failed, %lld timed out\n",
                outcomes.size(), attempts, restored, failed, timed_out);
  }

  ObsArgs obs_args_;
  ResilienceArgs res_args_;
  SweepObserver observer_;  ///< before runner_: the live server calls into it
  std::vector<std::size_t> indices_;  ///< 0..n-1, the points the runner sweeps
  runner::ExperimentRunner runner_;
};

}  // namespace craysim::bench
