// Parallel experiment runner: fans independent simulation runs (sweep
// points) across a persistent thread pool and returns results in submission
// order.
//
// Determinism contract: run()/run_settled() produce results identical to a
// serial loop over the points, for any thread count, provided the point
// function is itself deterministic and touches no shared mutable state. The
// pool only decides *when* each point executes — result i is always written
// by the invocation fn(points[i]), into slot i. Sweep inputs that are shared
// across points (a parsed trace, a parameter struct) must be shared
// immutably: a std::shared_ptr<const trace::Trace> feeding one
// trace::MemoryRecordSource per point, or one trace::open_record_stream per
// point.
//
// Every run_settled call runs one engine (docs/RESILIENCE.md); default
// options are that engine with no journal, no deadline, one attempt and no
// chaos. Retry backoff and chaos decisions are pure functions of (seed,
// point index, attempt number) — never of wall-clock time or thread
// interleaving — so a sweep with retries or injected chaos still settles to
// the same per-point outcomes at any thread count; and a journaled sweep
// resumed after a crash produces results (and a final journal file)
// byte-identical to an uninterrupted run.
//
// Set CRAYSIM_RUNNER_THREADS=1 to force serial execution (byte-identical
// output diffing); unset or 0 uses one thread per hardware core.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "runner/journal.hpp"
#include "runner/progress.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"

namespace craysim::obs {
class MetricsRegistry;
class TelemetryServer;
}

namespace craysim::runner {

/// Chaos-injection plan for the experiment harness itself, mirroring
/// faults::FaultPlan: seeded, deterministic, and zero-cost when default.
/// Injected misbehavior happens *around* the point function (before it
/// runs), so the simulation under test is untouched — this exercises the
/// runner's own retry/deadline/journal machinery. Decisions are drawn from
/// Rng(seed ^ mix(point, attempt)) with a fixed draw order (hang, fail),
/// making every injected event reproducible per (point, attempt) regardless
/// of thread count.
struct RunnerFaultPlan {
  std::uint64_t seed = 0xC4A05;

  /// Probability a (point, attempt) throws a synthetic failure before the
  /// point function runs.
  double fail_rate = 0.0;

  /// Probability a (point, attempt) hangs until its deadline cancels it.
  /// Requires RunnerOptions::point_deadline > 0 (rejected otherwise — a
  /// hang with no deadline would wedge a worker forever).
  double hang_rate = 0.0;

  [[nodiscard]] bool enabled() const { return fail_rate > 0.0 || hang_rate > 0.0; }
};

struct RunnerOptions {
  /// Worker threads; 0 means one per hardware core.
  unsigned threads = 0;

  /// Collect per-worker utilization and queue-depth telemetry, surfaced via
  /// ExperimentRunner::publish_metrics. Costs two clock reads plus a few
  /// relaxed atomic adds per point; off by default, in which case the claim
  /// path is exactly the untelemetered one.
  bool collect_telemetry = false;

  // --- Resilience (docs/RESILIENCE.md). All defaults off: one attempt per
  // point, no deadline, no journal, no chaos. ---

  /// Checkpoint/resume journal path. When set, run_settled (the codec
  /// overload) appends every settled point to this file durably; rerunning
  /// the same sweep against the same path skips already-settled points and
  /// reproduces the uninterrupted results byte-identically. Requires a
  /// codec (ConfigError otherwise). Empty = no journaling, and the codec
  /// never encodes.
  std::string journal_path = {};

  /// Cooperative per-point deadline. Each attempt gets a fresh
  /// CancelToken with this budget; a point function that polls it (the
  /// Simulator does, via SimParams::cancel) settles as a structured
  /// kTimedOut failure instead of hanging a worker. Zero = no deadline.
  std::chrono::nanoseconds point_deadline{0};

  /// Maximum executions per point (1 = no retries). Failed or timed-out
  /// attempts are retried with deterministic seeded backoff; see
  /// retry_delay().
  std::int32_t max_attempts = 1;

  /// Base backoff before the first retry; doubles per subsequent retry.
  std::chrono::nanoseconds retry_backoff = std::chrono::milliseconds(10);

  /// Synthetic failure injection for the runner itself (tests, drills).
  RunnerFaultPlan chaos = {};

  // --- Live telemetry plane (docs/OBSERVABILITY.md). ---

  /// When non-empty, the runner starts an embedded HTTP server on this
  /// "host:port" (or bare "port"; port 0 binds ephemeral) exposing /metrics
  /// (Prometheus text), /status (JSON progress/ETA), and /healthz — live for
  /// the runner's whole lifetime, scrapeable mid-sweep. Empty = no server,
  /// and the sweep takes exactly the pre-telemetry code path.
  std::string listen_addr = {};

  /// Optional application registry folded into /metrics after the runner's
  /// own series (sim counters the bench accumulated so far). Must outlive
  /// the runner. Null = runner series only.
  obs::MetricsRegistry* metrics = nullptr;

  /// Extra HTTP endpoints registered on the embedded server after the
  /// built-ins (/healthz, /metrics, /status) — the vehicle benches use to
  /// expose /attribution. Handlers run on the server thread concurrently
  /// with workers, so they must only read thread-safe state. Ignored when
  /// listen_addr is empty.
  struct HttpEndpoint {
    std::string path;          ///< e.g. "/attribution"
    std::string content_type;  ///< e.g. "application/json"
    std::function<std::string()> handler;
  };
  std::vector<HttpEndpoint> endpoints = {};

  /// Called on the per-scrape scratch registry before /metrics renders, so
  /// callers can fold live application families (e.g. sim_attr_*) into the
  /// exposition. Runs on the server thread; same thread-safety rules as
  /// `endpoints`. Null = runner (+`metrics`) families only.
  std::function<void(obs::MetricsRegistry&)> scrape_hook = {};

  /// True when any resilience feature is engaged. It picks no code path;
  /// it only keeps the runner.attempts/retries/... families off the metric
  /// snapshots of runs that engaged none (the schema obs_golden_test pins).
  [[nodiscard]] bool resilient() const {
    return !journal_path.empty() || point_deadline.count() > 0 || max_attempts > 1 ||
           chaos.enabled();
  }

  /// Honors CRAYSIM_RUNNER_THREADS when set (invalid values fall back to 0).
  [[nodiscard]] static RunnerOptions from_env();
};

/// Multiplicative jitter on every retry backoff: the slept delay is
/// base * uniform[1 - kRetryJitter, 1 + kRetryJitter].
inline constexpr double kRetryJitter = 0.5;

/// The deterministic backoff slept before execution attempt `attempt`
/// (2-based: the delay preceding the second execution is attempt == 2) of
/// point `point`. Exponential doubling from RunnerOptions::retry_backoff
/// with seeded multiplicative jitter — a pure function of (point, attempt),
/// never of wall-clock or interleaving, so retried sweeps stay reproducible
/// at any thread count. Exposed so tests can pin the schedule.
[[nodiscard]] std::chrono::nanoseconds retry_delay(const RunnerOptions& options,
                                                   std::size_t point, std::int32_t attempt);

/// The outcome of one sweep point: a value, or the exception it threw. One
/// point failing never disturbs its siblings — they run and settle normally.
/// `outcome` carries the resilience record (status, attempt count, journal
/// provenance, final error message).
template <typename R>
struct PointResult {
  std::optional<R> value;
  std::exception_ptr error;
  PointOutcome outcome;

  [[nodiscard]] bool ok() const { return error == nullptr; }
  /// The value; rethrows the point's exception if it failed.
  [[nodiscard]] R& get() {
    if (error) std::rethrow_exception(error);
    return *value;
  }
};

namespace detail {

/// Invokes a point function with or without a CancelToken, whichever its
/// signature accepts — existing fn(point) sweeps keep working unchanged,
/// deadline-aware sweeps opt in with fn(point, token).
template <typename Fn, typename Point>
decltype(auto) invoke_point(Fn& fn, const Point& point, const util::CancelToken& token) {
  if constexpr (std::is_invocable_v<Fn&, const Point&, const util::CancelToken&>) {
    return fn(point, token);
  } else {
    return fn(point);
  }
}

template <typename Fn, typename Point>
using point_value_t = std::decay_t<decltype(invoke_point(
    std::declval<Fn&>(), std::declval<const Point&>(), std::declval<const util::CancelToken&>()))>;

}  // namespace detail

/// A work-stealing-free pool: workers claim point indices from one atomic
/// counter, so there are no per-point queues, no stealing, and no ordering
/// dependence — any thread may run any point. The calling thread
/// participates as a worker, and with a single thread everything runs inline
/// on the caller (no pool machinery in the serial case).
///
/// Not reentrant: a point function must not call back into the same runner.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunnerOptions options = RunnerOptions::from_env());
  ~ExperimentRunner();
  ExperimentRunner(const ExperimentRunner&) = delete;
  ExperimentRunner& operator=(const ExperimentRunner&) = delete;

  /// Total threads that execute points (pool workers + the caller).
  [[nodiscard]] unsigned thread_count() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// The embedded telemetry server, or null when listen_addr was empty.
  /// Tests use port()/address() off it to scrape an ephemeral bind.
  [[nodiscard]] obs::TelemetryServer* telemetry_server() const { return server_.get(); }

  /// Live progress table, or null when listen_addr was empty.
  [[nodiscard]] const SweepProgress* progress() const { return progress_.get(); }

  /// Flight-recorder bookkeeping surfaced by /status: the bench observer
  /// reports when it arms the deadline flight recorder and where a dump
  /// landed. Thread-safe (small mutex); harmless no-ops make sense even
  /// without a live server, so callers need no listen_addr guard.
  void note_flight_armed(const std::string& journal_path);
  void note_flight_dump(const std::string& dump_path);

  /// Runs fn(i) for every i in [0, count), spread across the pool; returns
  /// once all invocations finished. fn must not throw (the typed wrappers
  /// below settle exceptions per point before they reach the pool).
  void run_indexed(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Publishes pool telemetry accumulated so far: `<prefix>.threads` /
  /// `.batches` / `.points` / `.wall_s`, per-worker `.worker.<i>.points` /
  /// `.busy_s` / `.idle_s` (worker 0 is the calling thread), and claim-time
  /// backlog `.queue_depth.mean` / `.max`. Worker breakdowns appear only when
  /// RunnerOptions::collect_telemetry was set. Runs that engaged resilience
  /// additionally publish `.attempts` / `.retries` / `.timeouts` /
  /// `.failures` / `.points_restored` / `.backoff_s` (and `.chaos.*` when a
  /// chaos plan was active); journaled ones also `.journal.bytes_written` /
  /// `.journal.syncs` / `.journal.corrupt_records`. Tallies are read with
  /// relaxed atomics, so the /metrics endpoint may call this concurrently
  /// with a run in flight — a scrape sees a consistent-enough in-progress
  /// snapshot.
  void publish_metrics(obs::MetricsRegistry& registry,
                       std::string_view prefix = "runner") const;

  /// Runs fn over every point; result i corresponds to points[i]. Exceptions
  /// are captured per point, never propagated. fn may be fn(point) or
  /// fn(point, const util::CancelToken&). This overload supports deadlines,
  /// retry, and chaos — but not journaling (that needs a codec; see the
  /// three-argument overload).
  template <typename Point, typename Fn>
  [[nodiscard]] auto run_settled(const std::vector<Point>& points, Fn&& fn)
      -> std::vector<PointResult<detail::point_value_t<Fn, Point>>> {
    using R = detail::point_value_t<Fn, Point>;
    std::vector<PointResult<R>> results(points.size());
    const std::vector<PointOutcome> outcomes = run_resilient(
        points.size(),
        [&](std::size_t i, const util::CancelToken& token) -> std::string {
          run_one_into(results[i], fn, points[i], token);
          return std::string();
        },
        nullptr, nullptr);
    settle_outcomes(results, outcomes);
    return results;
  }

  /// Journal-capable run_settled. `codec` provides the sweep's persistence
  /// contract:
  ///   std::string   encode(const R&)          — lossless serialization
  ///   R             decode(std::string_view)  — exact inverse of encode
  ///   std::uint64_t digest(const Point&)      — input identity (folded into
  ///                                             the journal's sweep digest)
  /// decode(encode(r)) must reproduce r exactly — resumed results are
  /// restored from journal payloads, and the byte-identity guarantee is only
  /// as strong as the codec's round trip. encode runs on the worker that ran
  /// the point; decode runs on the calling thread, in point order, before
  /// any point executes, so a codec may keep unsynchronized state for it. A
  /// journal that cannot be read or written throws Error (a failed write
  /// once the running points drained).
  template <typename Point, typename Fn, typename Codec>
  [[nodiscard]] auto run_settled(const std::vector<Point>& points, Fn&& fn, const Codec& codec)
      -> std::vector<PointResult<detail::point_value_t<Fn, Point>>> {
    using R = detail::point_value_t<Fn, Point>;
    std::vector<PointResult<R>> results(points.size());
    const bool journaled = !options_.journal_path.empty();
    const std::vector<PointOutcome> outcomes = run_resilient(
        points.size(),
        [&](std::size_t i, const util::CancelToken& token) -> std::string {
          run_one_into(results[i], fn, points[i], token);
          // Payloads only feed the journal: without one, nothing is encoded.
          return journaled ? codec.encode(*results[i].value) : std::string();
        },
        [&](std::size_t i) { return codec.digest(points[i]); },
        [&](std::size_t i, const std::string& payload, const PointOutcome& outcome) {
          if (outcome.status == PointStatus::kOk) {
            results[i].value.emplace(codec.decode(payload));
          }
        });
    settle_outcomes(results, outcomes);
    return results;
  }

  /// Runs fn over every point and returns the values in submission order.
  /// If any point threw, rethrows the error of the *first* failed point (by
  /// submission order, independent of execution order) after all points have
  /// settled.
  template <typename Point, typename Fn>
  [[nodiscard]] auto run(const std::vector<Point>& points, Fn&& fn)
      -> std::vector<detail::point_value_t<Fn, Point>> {
    return unwrap(run_settled(points, std::forward<Fn>(fn)));
  }

  /// Journal-capable run(); see the run_settled codec overload.
  template <typename Point, typename Fn, typename Codec>
  [[nodiscard]] auto run(const std::vector<Point>& points, Fn&& fn, const Codec& codec)
      -> std::vector<detail::point_value_t<Fn, Point>> {
    return unwrap(run_settled(points, std::forward<Fn>(fn), codec));
  }

 private:
  /// Per-worker telemetry tallies, cache-line separated so concurrent
  /// workers never contend on a line. Allocated when
  /// RunnerOptions::collect_telemetry or listen_addr is set; null means
  /// telemetry is off.
  struct alignas(64) WorkerStats {
    std::atomic<std::int64_t> points{0};
    std::atomic<std::int64_t> busy_ns{0};
    std::atomic<bool> busy{false};  ///< inside a point right now (/status view)
  };

  using ResilientBody = std::function<std::string(std::size_t, const util::CancelToken&)>;
  using PointDigestFn = std::function<std::uint64_t(std::size_t)>;
  using RestoreFn = std::function<void(std::size_t, const std::string&, const PointOutcome&)>;

  void worker_loop(unsigned worker);
  void claim_loop(std::size_t base, std::size_t end,
                  const std::function<void(std::size_t)>& fn, unsigned worker);
  void run_point(const std::function<void(std::size_t)>& fn, std::size_t index, unsigned worker,
                 std::int64_t depth);
  void note_claim(std::int64_t depth);
  void complete_one();

  /// The resilience engine (runner.cpp): restores journaled points, runs the
  /// rest through run_indexed with per-attempt deadline tokens, chaos
  /// injection, and deterministic retry, appending each settled point to the
  /// journal and compacting it at the end. `body` executes point i under
  /// `token` and returns its serialized
  /// payload (empty when no codec); it throws to signal failure.
  std::vector<PointOutcome> run_resilient(std::size_t count, const ResilientBody& body,
                                          const PointDigestFn& point_digest,
                                          const RestoreFn& on_restored);
  /// Runs point `index` through its attempts; on success `payload` holds
  /// the encoded result.
  PointOutcome execute_point(std::size_t index, const ResilientBody& body, std::string& payload);
  void note_journal_cost(const SweepJournal::Cost& cost);
  void inject_chaos(std::size_t index, std::int32_t attempt, const util::CancelToken& token);

  /// Live-plane hooks, all no-ops when listen_addr was empty (progress_ is
  /// null). Defined out of line so the templates above stay header-only
  /// without pulling the server into every includer.
  void progress_begin(std::size_t count);
  void progress_mark(std::size_t i, SweepProgress::State state);
  void start_server();
  [[nodiscard]] std::string scrape_prometheus() const;
  [[nodiscard]] std::string status_json() const;

  /// True once a run with resilient() options happened: gates the
  /// resilience metric families and the /status "resilient" flag.
  [[nodiscard]] bool resilient_run() const {
    return options_.resilient() && resilient_used_.load(std::memory_order_relaxed);
  }

  /// One guarded invocation of the user's point function into slot
  /// `result`: captures the exception (for the caller to rethrow) and
  /// re-throws it so the engine can classify the attempt.
  template <typename Rslt, typename Fn, typename Point>
  static void run_one_into(Rslt& result, Fn& fn, const Point& point,
                           const util::CancelToken& token) {
    result.error = nullptr;
    try {
      result.value.emplace(detail::invoke_point(fn, point, token));
    } catch (...) {
      result.error = std::current_exception();
      throw;
    }
  }

  /// Copies engine outcomes into the typed results and synthesizes
  /// exceptions for failures that carry no captured one (journal-restored
  /// failures, chaos thrown before the point function ran).
  template <typename R>
  static void settle_outcomes(std::vector<PointResult<R>>& results,
                              const std::vector<PointOutcome>& outcomes) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      results[i].outcome = outcomes[i];
      if (outcomes[i].status == PointStatus::kOk || results[i].error != nullptr) continue;
      std::string what = outcomes[i].error;
      if (outcomes[i].status == PointStatus::kTimedOut) {
        constexpr std::string_view kPrefix = "cancelled: ";
        if (what.rfind(kPrefix, 0) == 0) what.erase(0, kPrefix.size());
        results[i].error = std::make_exception_ptr(CancelledError(what));
      } else {
        results[i].error = std::make_exception_ptr(Error(what));
      }
    }
  }

  template <typename R>
  static std::vector<R> unwrap(std::vector<PointResult<R>> settled) {
    std::vector<R> values;
    values.reserve(settled.size());
    for (auto& result : settled) {
      if (result.error) std::rethrow_exception(result.error);
      values.push_back(std::move(*result.value));
    }
    return values;
  }

  RunnerOptions options_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers wait for a new generation
  std::condition_variable done_cv_;  ///< the caller waits for completion
  // One batch at a time: the caller publishes (fn_, base_, count_) under
  // mutex_ and bumps generation_; workers CAS-claim tickets from next_index_
  // while they stay inside [base_, base_ + count_), bumping completed_ as
  // they go. next_index_ is monotonic across batches — never rewound — so a
  // straggler still holding a previous batch's window can never claim (or
  // double-complete) a ticket that belongs to a newer batch.
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t base_ = 0;
  std::size_t count_ = 0;
  std::size_t completed_ = 0;
  std::atomic<std::size_t> next_index_{0};

  // Telemetry. Workers publish into their own WorkerStats slot and the
  // shared depth accumulators with relaxed atomics. Everything the /metrics
  // handler reads is atomic (including batches_/wall_ns_, written by the
  // calling thread only — atomics so a live scrape mid-sweep is TSan-clean).
  std::unique_ptr<WorkerStats[]> stats_;  ///< thread_count() slots, or null = off
  std::atomic<std::int64_t> depth_sum_{0};
  std::atomic<std::int64_t> depth_samples_{0};
  std::atomic<std::int64_t> depth_max_{0};
  std::atomic<std::int64_t> batches_{0};
  std::atomic<std::int64_t> wall_ns_{0};

  // Resilience tallies (relaxed atomics: workers bump, publish_metrics
  // reads, possibly concurrently from the server thread). Every run bumps
  // them, but they are published only when the options are resilient() too
  // (resilient_run()), so non-resilient metric snapshots keep their pinned
  // schema.
  std::atomic<std::int64_t> res_attempts_{0};
  std::atomic<std::int64_t> res_retries_{0};
  std::atomic<std::int64_t> res_timeouts_{0};
  std::atomic<std::int64_t> res_failures_{0};
  std::atomic<std::int64_t> res_backoff_ns_{0};
  std::atomic<std::int64_t> res_chaos_failures_{0};
  std::atomic<std::int64_t> res_chaos_hangs_{0};
  std::atomic<std::int64_t> res_restored_{0};
  std::atomic<std::int64_t> res_journal_bytes_{0};
  std::atomic<std::int64_t> res_journal_syncs_{0};
  std::atomic<std::int64_t> res_journal_corrupt_{0};
  std::atomic<bool> resilient_used_{false};  ///< set by every engine run

  // Live telemetry plane; both null when RunnerOptions::listen_addr was
  // empty. The server thread reads progress_/stats_/tallies concurrently
  // with workers; the destructor stops the server before the pool.
  std::unique_ptr<SweepProgress> progress_;
  std::unique_ptr<obs::TelemetryServer> server_;

  // Flight-recorder state for /status; guarded by flight_mutex_ (written by
  // the sweep thread, read by the server thread).
  mutable std::mutex flight_mutex_;
  bool flight_armed_ = false;
  std::string flight_journal_;
  std::string flight_dump_;
};

}  // namespace craysim::runner
