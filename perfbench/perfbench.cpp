// perfbench: the end-to-end sweep benchmark (see README.md beside this file).
//
// One invocation runs one named workload through the public sweep path —
// request source -> sim::Simulator::run -> SimResult codec ->
// runner::ExperimentRunner (+ SweepJournal) — checks every point's output,
// and prints each metric by name with its unit. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--size full|tiny] [--flip-journal-byte POINT]
//             [--tmp-dir DIR] [--spans-out FILE]
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced passes, records spans in memory around each pass, point,
// Simulator::run and codec call (per-call request/record sources fold a
// count and nanoseconds into their point's span), writes them once at exit
// as a Chrome trace, and reports the per-layer split. Exit status: 0 when
// every output checked out, 1 on a mismatch or runtime error, 2 on a bad
// flag.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "obs/attr.hpp"
#include "runner/runner.hpp"
#include "sim/metrics.hpp"
#include "sim/params.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "trace/stream.hpp"
#include "util/atomic_file.hpp"
#include "util/digest.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

namespace {

using namespace craysim;
namespace fs = std::filesystem;

constexpr std::uint64_t kDefaultSeed = 1;
/// Set-up is repeated at least kMinSetupReps times and until kSetupBudgetNs
/// has passed (at most kMaxSetupReps): cheap set-ups get enough repetitions
/// for a steady median.
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 201;
constexpr std::int64_t kSetupBudgetNs = 250'000'000;
constexpr int kMinTimedPasses = 3;
/// Resume passes after each warm pass run for this share of its wall time.
constexpr double kResumeShare = 0.25;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 finalizer: derives independent input seeds from --seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// ---- Flags -------------------------------------------------------------------

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Flags {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::int64_t flip_point = -1;  ///< self-test: corrupt this point's journal payload
  std::string tmp_dir = ".bench_build/tmp";
  std::string spans_out;  ///< default .bench_build/spans-<workload>.json
};

template <typename T>
T parse_number(std::string_view flag, std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    throw UsageError("bad value for " + std::string(flag) + ": '" + std::string(text) + "'");
  }
  return value;
}

Flags parse_flags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) throw UsageError("missing value for " + std::string(flag));
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      flags.workload = value;
    } else if (flag == "--seed") {
      flags.seed = parse_number<std::uint64_t>(flag, value);
    } else if (flag == "--seconds") {
      flags.seconds = parse_number<double>(flag, value);
      if (!(flags.seconds > 0.0 && flags.seconds <= 3600.0)) {
        throw UsageError("--seconds must be in (0, 3600]: '" + std::string(value) + "'");
      }
    } else if (flag == "--trace") {
      const int trace = parse_number<int>(flag, value);
      if (trace != 0 && trace != 1) throw UsageError("--trace must be 0 or 1");
      flags.trace = trace == 1;
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") throw UsageError("--size must be full or tiny");
      flags.tiny = value == "tiny";
    } else if (flag == "--flip-journal-byte") {
      flags.flip_point = parse_number<std::int64_t>(flag, value);
      if (flags.flip_point < 0) throw UsageError("--flip-journal-byte must be >= 0");
    } else if (flag == "--tmp-dir") {
      flags.tmp_dir = value;
    } else if (flag == "--spans-out") {
      flags.spans_out = value;
    } else {
      throw UsageError("unknown flag " + std::string(flag));
    }
  }
  if (flags.workload.empty()) throw UsageError("--workload is required");
  if (flags.spans_out.empty()) flags.spans_out = ".bench_build/spans-" + flags.workload + ".json";
  return flags;
}

// ---- Spans -------------------------------------------------------------------

/// One completed span. Per-call layers do not get spans of their own: their
/// call count and nanoseconds are folded into the point span that ran them.
struct Span {
  const char* name = "";
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::int64_t point = -1;   ///< sweep point index, -1 for pass-level spans
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;
  std::int64_t workload_calls = 0;  ///< RequestSource::next of the generators
  std::int64_t workload_ns = 0;
  std::int64_t trace_calls = 0;  ///< RecordSource::next of the trace reader
  std::int64_t trace_ns = 0;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

/// In-memory span store: workers append completed spans under a mutex (a
/// few per sweep point, never per request); written out once at exit.
class SpanLog {
 public:
  std::uint32_t next_id() { return ids_.fetch_add(1) + 1; }

  void add(const Span& span) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }

  /// Snapshot for analysis; call only between passes.
  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// Chrome trace ("X" complete events, microseconds), loadable in Perfetto.
  void write_chrome(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::int64_t origin = spans_.empty() ? 0 : std::min_element(
        spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
          return a.start_ns < b.start_ns;
        })->start_ns;
    std::string out = "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"id\":%u,\"parent\":%u,\"point\":%lld,\"workload_calls\":%lld,"
                    "\"workload_ns\":%lld,\"trace_calls\":%lld,\"trace_ns\":%lld}}%s\n",
                    s.name, s.tid, static_cast<double>(s.start_ns - origin) / 1e3,
                    static_cast<double>(s.duration_ns()) / 1e3, s.id, s.parent,
                    static_cast<long long>(s.point), static_cast<long long>(s.workload_calls),
                    static_cast<long long>(s.workload_ns), static_cast<long long>(s.trace_calls),
                    static_cast<long long>(s.trace_ns), i + 1 < spans_.size() ? "," : "");
      out += buf;
    }
    out += "]}\n";
    util::write_file_atomic(path, out);
  }

 private:
  std::atomic<std::uint32_t> ids_{0};
  mutable std::mutex mutex_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// Records one span from construction to end() (or destruction). A null
/// log makes it a no-op that reads no clock.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, std::uint32_t parent, std::int64_t point)
      : log_(log) {
    if (log_ == nullptr) return;
    span_.name = name;
    span_.id = log_->next_id();
    span_.parent = parent;
    span_.point = point;
    span_.tid = thread_index();
    span_.start_ns = now_ns();
  }
  ~SpanScope() { end(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::uint32_t id() const { return span_.id; }
  [[nodiscard]] Span& span() { return span_; }

  void end() {
    if (log_ == nullptr) return;
    span_.end_ns = now_ns();
    log_->add(span_);
    log_ = nullptr;
  }

 private:
  SpanLog* log_;
  Span span_;
};

struct CallTally {
  std::int64_t calls = 0;  ///< calls that returned a value
  std::int64_t ns = 0;
};

/// Times workload::RequestSource::next of the wrapped generator.
class TimedRequestSource final : public workload::RequestSource {
 public:
  TimedRequestSource(std::unique_ptr<workload::RequestSource> inner, CallTally& tally)
      : inner_(std::move(inner)), tally_(&tally) {}

  std::optional<workload::Request> next() override {
    const std::int64_t start = now_ns();
    std::optional<workload::Request> request = inner_->next();
    tally_->ns += now_ns() - start;
    if (request) ++tally_->calls;
    return request;
  }
  [[nodiscard]] Ticks final_compute() const override { return inner_->final_compute(); }

 private:
  std::unique_ptr<workload::RequestSource> inner_;
  CallTally* tally_;
};

/// Times trace::RecordSource::next (text decode) of the wrapped reader.
class TimedRecordSource final : public trace::RecordSource {
 public:
  TimedRecordSource(std::unique_ptr<trace::RecordSource> inner, CallTally& tally)
      : inner_(std::move(inner)), tally_(&tally) {}

  std::optional<trace::TraceRecord> next() override {
    const std::int64_t start = now_ns();
    std::optional<trace::TraceRecord> record = inner_->next();
    tally_->ns += now_ns() - start;
    if (record) ++tally_->calls;
    return record;
  }

 private:
  std::unique_ptr<trace::RecordSource> inner_;
  CallTally* tally_;
};

// ---- Workloads -----------------------------------------------------------------

/// One sweep point: a simulator configuration plus its processes — one per
/// generated profile, and one more streaming the fixture's trace file when
/// `replay` is set.
struct Point {
  std::string label;  ///< input identity, folded into the journal digest
  sim::SimParams params;
  std::vector<workload::AppProfile> apps;
  bool replay = false;
};

struct WorkloadDef {
  std::string_view name;
  /// Warm passes go through the journal with a per-point AttributionLedger,
  /// merged after each pass, as `--journal --attribution` sweeps run.
  bool journaled;
  std::vector<Point> (*make_points)(std::uint64_t seed, bool tiny);
  std::uint64_t pinned_digest;  ///< payload digest at kDefaultSeed, full size; 0 = none
};

/// The tiny size (self-test) keeps every point but cuts each application to
/// two cycles of its main loop.
workload::AppProfile profile(workload::AppId app, std::uint64_t seed, bool tiny) {
  workload::AppProfile p = workload::make_profile(app, seed);
  if (tiny && p.cycles > 2) {
    p.cpu_time = p.cpu_time * 2 / p.cycles;
    p.cycles = 2;
  }
  return p;
}

std::string mix_label(const std::vector<workload::AppProfile>& apps) {
  std::string label;
  for (const auto& app : apps) label += (label.empty() ? "" : "+") + app.name;
  return label;
}

std::vector<workload::AppProfile> apps_for(const std::vector<workload::AppId>& ids,
                                           std::uint64_t seed, std::uint64_t salt, bool tiny) {
  std::vector<workload::AppProfile> apps;
  for (const workload::AppId id : ids) {
    apps.push_back(profile(id, mix(seed, salt * 16 + apps.size()), tiny));
  }
  return apps;
}

std::vector<Point> cache_sweep_points(std::uint64_t seed, bool tiny) {
  using workload::AppId;
  struct Cache {
    const char* name;
    sim::SimParams params;
  };
  // Roughly longest point first, so the pool's tail (and its jitter) stays
  // short: the small main-memory caches cost the most per request.
  const Cache caches[] = {{"mm32MB", sim::SimParams::paper_main_memory(32 * kMB)},
                          {"mm16MB", sim::SimParams::paper_main_memory(16 * kMB)},
                          {"mm128MB", sim::SimParams::paper_main_memory(128 * kMB)},
                          {"ssd256MB", sim::SimParams::paper_ssd(256 * kMB)}};
  const std::vector<std::vector<AppId>> mixes = {
      {AppId::kVenus, AppId::kLes}, {AppId::kBvi, AppId::kLes}, {AppId::kVenus}};
  std::vector<Point> points;
  for (const Cache& cache : caches) {
    for (std::size_t m = 0; m < mixes.size(); ++m) {
      Point p;
      p.apps = apps_for(mixes[m], seed, m, tiny);
      p.params = cache.params;
      p.label = "cache_sweep/" + mix_label(p.apps) + "/" + cache.name + "/" + std::to_string(seed);
      points.push_back(std::move(p));
    }
  }
  return points;
}

std::vector<Point> capped_writeback_points(std::uint64_t seed, bool tiny) {
  using workload::AppId;
  const std::vector<std::vector<AppId>> mixes = {{AppId::kLes, AppId::kCcm},
                                                           {AppId::kBvi, AppId::kCcm}};
  std::vector<Point> points;
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    for (const double delay_s : {0.0, 30.0}) {
      Point p;
      p.apps = apps_for(mixes[m], seed, m, tiny);
      p.params = sim::SimParams::paper_main_memory(8 * kMB);
      p.params.cache.per_process_cap = 2 * kMB;
      p.params.cache.delayed_write_age = Ticks::from_seconds(delay_s);
      p.label = "capped_writeback/" + mix_label(p.apps) + "/delay" +
                std::to_string(static_cast<int>(delay_s)) + "s/" + std::to_string(seed);
      points.push_back(std::move(p));
    }
  }
  return points;
}

std::vector<Point> journaled_sweep_points(std::uint64_t seed, bool tiny) {
  const std::size_t count = tiny ? 16 : 100;
  std::vector<Point> points;
  for (std::size_t i = 0; i < count; ++i) {
    Point p;
    p.apps = apps_for({workload::AppId::kGcm}, seed, i, tiny);
    p.params = sim::SimParams::no_cache();
    p.label = "journaled_sweep/gcm/" + std::to_string(i) + "/" + std::to_string(seed);
    points.push_back(std::move(p));
  }
  return points;
}

std::vector<Point> trace_replay_points(std::uint64_t seed, bool /*tiny*/) {
  struct Disks {
    std::int32_t count;
    bool queueing;
  };
  std::vector<Point> points;
  for (const Disks disks : {Disks{1, false}, Disks{1, true}, Disks{2, true}, Disks{4, true}}) {
    Point p;
    p.params = sim::SimParams::no_cache();
    p.params.disk_count = disks.count;
    p.params.disk_queueing = disks.queueing;
    p.replay = true;
    p.label = "trace_replay/disks" + std::to_string(disks.count) +
              (disks.queueing ? "q" : "") + "/" + std::to_string(seed);
    points.push_back(std::move(p));
  }
  return points;
}

// Pinned digests: FNV-1a over every point's serialize_sim_result payload, in
// point order, at kDefaultSeed and full size. A simulator or codec change
// that moves any byte of any result must re-pin these deliberately.
const WorkloadDef kWorkloads[] = {
    {"cache_sweep", false, cache_sweep_points, 0x50f6fdc71f7d3317},
    {"capped_writeback", false, capped_writeback_points, 0xfd37d660ca6bf90c},
    {"journaled_sweep", true, journaled_sweep_points, 0xf2eba6bb6e6e1023},
    {"trace_replay", false, trace_replay_points, 0xa77063b517349b69},
};

const WorkloadDef& find_workload(std::string_view name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (w.name == name) return w;
  }
  std::string known;
  for (const WorkloadDef& w : kWorkloads) known += (known.empty() ? "" : ", ") + std::string(w.name);
  throw UsageError("unknown workload '" + std::string(name) + "' (known: " + known + ")");
}

/// Writes forma's synthesized trace, tiled `tiles` times back to back in
/// start-time order, as a text trace file.
void write_tiled_trace(const std::string& path, std::uint64_t seed, bool tiny) {
  const trace::Trace base =
      workload::synthesize_trace(profile(workload::AppId::kForma, mix(seed, 99), tiny));
  const int tiles = tiny ? 1 : 4;
  Ticks span;
  std::uint32_t max_op = 0;
  for (const trace::TraceRecord& r : base) {
    span = std::max(span, r.start_time + r.completion_time);
    max_op = std::max(max_op, r.operation_id);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  trace::TraceWriter writer(out);
  for (int t = 0; t < tiles; ++t) {
    for (trace::TraceRecord r : base) {
      r.start_time += (span + Ticks::from_seconds(1)) * t;
      r.operation_id += max_op * static_cast<std::uint32_t>(t);
      writer.write(r);
    }
  }
  out.flush();
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

// ---- Fixture and passes --------------------------------------------------------

/// Everything set-up builds: points (profiles), the trace file, and the two
/// started pools. Timed as setup_s.
struct Fixture {
  std::vector<Point> points;
  std::vector<std::size_t> indices;  ///< 0..n-1: what the runner sweeps over
  std::string trace_path;
  std::string journal_dir;
  std::unique_ptr<runner::ExperimentRunner> plain;      ///< no journal
  std::unique_ptr<runner::ExperimentRunner> journaled;  ///< journal in journal_dir
};

unsigned runner_threads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

std::unique_ptr<Fixture> make_fixture(const WorkloadDef& w, const Flags& flags,
                                      const std::string& work_dir) {
  auto fx = std::make_unique<Fixture>();
  fx->points = w.make_points(flags.seed, flags.tiny);
  fx->indices.resize(fx->points.size());
  std::iota(fx->indices.begin(), fx->indices.end(), std::size_t{0});
  if (std::any_of(fx->points.begin(), fx->points.end(), [](const Point& p) { return p.replay; })) {
    fx->trace_path = work_dir + "/forma-tiled.trace";
    write_tiled_trace(fx->trace_path, flags.seed, flags.tiny);
  }
  fx->journal_dir = work_dir + "/journal";
  runner::RunnerOptions options;
  options.threads = runner_threads();
  if (!w.journaled) fx->plain = std::make_unique<runner::ExperimentRunner>(options);
  options.journal_path = fx->journal_dir + "/sweep.journal";
  fx->journaled = std::make_unique<runner::ExperimentRunner>(options);
  return fx;
}

enum class PassKind {
  kPlain,         ///< no journal
  kJournalFresh,  ///< journaled, from an empty journal directory
  kResume,        ///< journaled, over the finished journal: restores every point
};

struct PassContext {
  const Fixture* fx = nullptr;
  SpanLog* spans = nullptr;  ///< null = untraced
  std::uint32_t pass_span = 0;
  obs::AttributionLedger* ledgers = nullptr;
};

/// The point whose result the codec is about to encode: encode runs on the
/// worker right after the point function returns.
thread_local std::int64_t t_current_point = -1;

sim::SimResult run_point(const PassContext& ctx, std::size_t i) {
  const Point& point = ctx.fx->points[i];
  t_current_point = static_cast<std::int64_t>(i);
  SpanScope span(ctx.spans, "point", ctx.pass_span, static_cast<std::int64_t>(i));
  CallTally workload_tally;
  CallTally trace_tally;
  sim::SimParams params = point.params;
  if (ctx.ledgers != nullptr) params.attribution = &ctx.ledgers[i];
  sim::Simulator simulator(params);
  for (const workload::AppProfile& app : point.apps) {
    std::unique_ptr<workload::RequestSource> source =
        std::make_unique<workload::AppRequestGenerator>(app);
    if (ctx.spans != nullptr) {
      source = std::make_unique<TimedRequestSource>(std::move(source), workload_tally);
    }
    simulator.add_process(app.name, std::move(source));
  }
  if (point.replay) {
    std::unique_ptr<trace::RecordSource> records = trace::open_record_stream(ctx.fx->trace_path);
    if (ctx.spans != nullptr) {
      records = std::make_unique<TimedRecordSource>(std::move(records), trace_tally);
    }
    simulator.add_process("replay",
                          std::make_unique<sim::StreamingReplaySource>(std::move(records)));
  }
  sim::SimResult result;
  {
    SpanScope run(ctx.spans, "sim.run", span.id(), static_cast<std::int64_t>(i));
    result = simulator.run();
  }
  span.span().workload_calls = workload_tally.calls;
  span.span().workload_ns = workload_tally.ns;
  span.span().trace_calls = trace_tally.calls;
  span.span().trace_ns = trace_tally.ns;
  return result;
}

/// The runner's journal codec, backed by the lossless SimResult round trip.
/// Traced passes get a span per encode/decode call.
class SimResultCodec {
 public:
  explicit SimResultCodec(const PassContext& ctx) : ctx_(&ctx) {}

  [[nodiscard]] std::string encode(const sim::SimResult& result) const {
    SpanScope span(ctx_->spans, "codec.encode", ctx_->pass_span, t_current_point);
    return sim::serialize_sim_result(result);
  }
  [[nodiscard]] sim::SimResult decode(std::string_view text) const {
    // Restores run on the calling thread in point order.
    SpanScope span(ctx_->spans, "codec.decode", ctx_->pass_span, decoded_++);
    return sim::parse_sim_result(text);
  }
  [[nodiscard]] std::uint64_t digest(std::size_t i) const {
    util::Fnv1a fnv;
    fnv.add_text(ctx_->fx->points[i].label);
    return fnv.value();
  }

 private:
  const PassContext* ctx_;
  mutable std::int64_t decoded_ = 0;
};

/// Bytes written by this process so far (/proc/self/io wchar); -1 when the
/// kernel does not expose it.
std::int64_t written_bytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  std::int64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return -1;
}

struct PassResult {
  double wall_s = 0.0;  ///< until every point settled
  std::uint32_t span_id = 0;
  std::uint32_t merge_span_id = 0;
  std::vector<std::string> payloads;  ///< serialize_sim_result per point; "" if failed
  std::vector<sim::SimResult> results;
  std::size_t failed = 0;
  std::string first_error;
  double write_mb = 0.0;
  std::int64_t attr_ops = 0;
};

PassResult run_pass(const WorkloadDef& w, Fixture& fx, PassKind kind, SpanLog* spans) {
  PassResult out;
  const std::size_t n = fx.points.size();
  std::unique_ptr<obs::AttributionLedger[]> ledgers;
  if (w.journaled && kind != PassKind::kResume) {
    ledgers = std::make_unique<obs::AttributionLedger[]>(n);
  }
  if (kind == PassKind::kJournalFresh) {
    fs::remove_all(fx.journal_dir);
    fs::create_directories(fx.journal_dir);
  }
  PassContext ctx{&fx, spans, 0, ledgers.get()};
  const SimResultCodec codec(ctx);
  const auto fn = [&ctx](std::size_t i) { return run_point(ctx, i); };
  std::vector<runner::PointResult<sim::SimResult>> settled;
  const std::int64_t wchar_before = written_bytes();
  try {
    SpanScope pass(spans, kind == PassKind::kResume ? "resume" : "pass", 0, -1);
    ctx.pass_span = pass.id();
    out.span_id = pass.id();
    const std::int64_t start = now_ns();
    settled = kind == PassKind::kPlain ? fx.plain->run_settled(fx.indices, fn)
                                       : fx.journaled->run_settled(fx.indices, fn, codec);
    out.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  } catch (const std::exception& e) {
    // A restore that cannot decode its payload aborts the whole pass.
    out.failed = n;
    out.first_error = e.what();
    out.payloads.assign(n, std::string());
    return out;
  }
  const std::int64_t wchar_after = written_bytes();
  out.write_mb = wchar_before < 0 ? 0.0 : static_cast<double>(wchar_after - wchar_before) / 1e6;
  if (ledgers != nullptr) {
    SpanScope merge(spans, "obs.merge", out.span_id, -1);
    out.merge_span_id = merge.id();
    obs::AttrSummary merged;
    for (std::size_t i = 0; i < n; ++i) {
      obs::merge_attr_summary(merged, ledgers[i].summarize());
      out.attr_ops += ledgers[i].ops();
    }
  }
  out.payloads.resize(n);
  out.results.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!settled[i].ok()) {
      ++out.failed;
      try {
        std::rethrow_exception(settled[i].error);
      } catch (const std::exception& e) {
        if (out.first_error.empty()) out.first_error = e.what();
      }
      continue;
    }
    out.payloads[i] = sim::serialize_sim_result(*settled[i].value);
    out.results[i] = std::move(*settled[i].value);
  }
  return out;
}

std::uint64_t payload_digest(const std::vector<std::string>& payloads) {
  util::Fnv1a fnv;
  for (const std::string& payload : payloads) {
    fnv.add(static_cast<std::uint64_t>(payload.size()));
    fnv.add_text(payload);
  }
  return fnv.value();
}

/// Self-test hook: flips one digit inside point `index`'s journal payload.
void flip_journal_byte(const std::string& journal_path, std::size_t index) {
  std::string text = trace::read_file(journal_path);
  const std::string key = "{\"index\":" + std::to_string(index) + ",";
  const std::size_t line = text.find(key);
  const std::size_t payload = line == std::string::npos ? line : text.find("\"result\":", line);
  const std::size_t eol = line == std::string::npos ? line : text.find('\n', line);
  if (payload == std::string::npos || payload > eol) {
    throw std::runtime_error("flip: no journal payload for point " + std::to_string(index));
  }
  const std::size_t at = text.find_first_of("123456789", payload + (eol - payload) / 2);
  if (at == std::string::npos || at > eol) throw std::runtime_error("flip: no digit to flip");
  text[at] = text[at] == '9' ? '8' : static_cast<char>(text[at] + 1);
  util::write_file_atomic(journal_path, text);
}

/// Removes the invocation's work directory on every exit path.
class WorkDir {
 public:
  explicit WorkDir(std::string path) : path_(std::move(path)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---- Metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double value) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  if (ec != std::errc() || !std::isfinite(value)) return "0";
  return std::string(buf, ptr);
}

/// Per-layer split of one traced pass, computed from its spans: a layer's
/// self time is its span's duration minus what its children cover.
struct LayerSplit {
  double wall_s = 0.0;
  double point_s = 0.0;
  double sim_run_s = 0.0;
  double sim_self_s = 0.0;
  double encode_s = 0.0;
  double decode_s = 0.0;
  double workload_s = 0.0;
  std::int64_t workload_calls = 0;
  double trace_s = 0.0;
  std::int64_t trace_calls = 0;
  double merge_s = 0.0;
  double overhead_s = 0.0;
};

LayerSplit split_pass(const std::vector<Span>& spans, const PassResult& pass, unsigned threads) {
  LayerSplit s;
  std::vector<std::uint32_t> points;
  for (const Span& span : spans) {
    const double d = static_cast<double>(span.duration_ns()) * 1e-9;
    if (span.id == pass.span_id) s.wall_s = d;
    if (span.id == pass.merge_span_id && pass.merge_span_id != 0) s.merge_s = d;
    if (span.parent != pass.span_id) continue;
    const std::string_view name = span.name;
    if (name == "point") {
      s.point_s += d;
      s.workload_s += static_cast<double>(span.workload_ns) * 1e-9;
      s.workload_calls += span.workload_calls;
      s.trace_s += static_cast<double>(span.trace_ns) * 1e-9;
      s.trace_calls += span.trace_calls;
      points.push_back(span.id);
    } else if (name == "codec.encode") {
      s.encode_s += d;
    } else if (name == "codec.decode") {
      s.decode_s += d;
    }
  }
  std::sort(points.begin(), points.end());
  for (const Span& span : spans) {
    if (std::string_view(span.name) == "sim.run" &&
        std::binary_search(points.begin(), points.end(), span.parent)) {
      s.sim_run_s += static_cast<double>(span.duration_ns()) * 1e-9;
    }
  }
  // The sources run inside Simulator::run, so they are its children.
  s.sim_self_s = s.sim_run_s - s.workload_s - s.trace_s;
  s.overhead_s = static_cast<double>(threads) * s.wall_s - s.point_s - s.encode_s - s.decode_s;
  return s;
}

template <typename Field>
double median_of(const std::vector<LayerSplit>& splits, Field field) {
  std::vector<double> values;
  for (const LayerSplit& s : splits) values.push_back(static_cast<double>(s.*field));
  return median(values);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---- The run ------------------------------------------------------------------

struct Verifier {
  std::vector<std::string> reference;  ///< payloads of the first pass
  std::string reference_journal;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;

  void note(const char* what, const PassResult& pass) {
    attempted += static_cast<std::int64_t>(pass.payloads.size());
    std::int64_t bad = static_cast<std::int64_t>(pass.failed);
    for (std::size_t i = 0; i < pass.payloads.size() && i < reference.size(); ++i) {
      if (!pass.payloads[i].empty() && pass.payloads[i] != reference[i]) ++bad;
    }
    failed += bad;
    if (bad > 0 && problems.size() < 8) {
      problems.push_back(std::string(what) + ": " + std::to_string(bad) + " point(s) failed or " +
                         "mismatched" + (pass.first_error.empty() ? "" : ": " + pass.first_error));
    }
  }
  void check_journal(const char* what, const std::string& path) {
    if (trace::read_file(path) == reference_journal) return;
    ++failed;
    if (problems.size() < 8) problems.push_back(std::string(what) + ": journal bytes differ");
  }
};

int run(const Flags& flags) {
  const WorkloadDef& w = find_workload(flags.workload);
  const unsigned threads = runner_threads();
  const WorkDir work(flags.tmp_dir + "/perfbench-" + std::string(w.name) + "-" +
                     std::to_string(::getpid()));

  // Set-up: profiles, trace file and pools, repeated; the last one is kept.
  std::vector<double> setup_times;
  std::unique_ptr<Fixture> fx;
  const std::int64_t setup_start = now_ns();
  for (int rep = 0; rep < kMaxSetupReps; ++rep) {
    if (rep >= kMinSetupReps && now_ns() - setup_start >= kSetupBudgetNs) break;
    fx.reset();
    const std::int64_t start = now_ns();
    fx = make_fixture(w, flags, work.path());
    setup_times.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  const std::string journal_path = fx->journal_dir + "/sweep.journal";

  // Warm-up: one journaled pass, untimed. Its payloads and journal are the
  // reference every later pass must reproduce byte for byte.
  Verifier verify;
  PassResult warm = run_pass(w, *fx, PassKind::kJournalFresh, nullptr);
  verify.reference = warm.payloads;
  verify.note("warm-up pass", warm);
  if (warm.failed == 0) verify.reference_journal = trace::read_file(journal_path);
  const std::uint64_t digest = payload_digest(warm.payloads);
  const bool pinned = flags.seed == kDefaultSeed && !flags.tiny && w.pinned_digest != 0;
  if (pinned && digest != w.pinned_digest) {
    verify.failed += static_cast<std::int64_t>(fx->points.size());
    char buf[128];
    std::snprintf(buf, sizeof buf, "digest 0x%016llx != pinned 0x%016llx",
                  static_cast<unsigned long long>(digest),
                  static_cast<unsigned long long>(w.pinned_digest));
    verify.problems.emplace_back(buf);
  }

  SpanLog span_log;
  SpanLog* const traced = flags.trace ? &span_log : nullptr;
  const PassKind warm_kind = w.journaled ? PassKind::kJournalFresh : PassKind::kPlain;

  // Warm passes, each followed by resume passes over the finished journal
  // (every point restored) for about kResumeShare of its time. Interleaving
  // spreads both kinds over the whole run, so a slow drift of the host (disk
  // latency, CPU share) reaches both medians alike. A traced run alternates
  // untraced and traced passes of each kind, so the tracing overhead is
  // measured under the same conditions.
  std::vector<double> walls;
  std::vector<double> traced_walls;
  std::vector<double> resumes;
  std::vector<PassResult> traced_passes;
  std::vector<PassResult> traced_resumes;
  const int per_kind = flags.trace ? 2 : 1;
  const std::int64_t budget = static_cast<std::int64_t>(flags.seconds * 1e9);
  const std::int64_t loop_start = now_ns();
  for (int i = 0; i < per_kind * kMinTimedPasses || now_ns() - loop_start < budget; ++i) {
    const bool trace_this = flags.trace && i % 2 == 1;
    PassResult pass = run_pass(w, *fx, warm_kind, trace_this ? traced : nullptr);
    verify.note("warm pass", pass);
    if (warm_kind == PassKind::kJournalFresh) verify.check_journal("warm pass", journal_path);
    const double wall_s = pass.wall_s;
    (trace_this ? traced_walls : walls).push_back(wall_s);
    if (trace_this) {
      pass.payloads.clear();
      pass.results.clear();
      traced_passes.push_back(std::move(pass));
    }

    if (flags.flip_point >= 0) {
      flip_journal_byte(journal_path, static_cast<std::size_t>(flags.flip_point));
    }
    const std::int64_t resume_until = now_ns() + static_cast<std::int64_t>(wall_s * kResumeShare * 1e9);
    for (int r = 0; r < per_kind || now_ns() < resume_until; ++r) {
      const bool trace_resume = flags.trace && r % 2 == 1;
      PassResult resume = run_pass(w, *fx, PassKind::kResume, trace_resume ? traced : nullptr);
      verify.note("resume pass", resume);
      verify.check_journal("resume pass", journal_path);
      if (trace_resume) {
        traced_resumes.push_back(std::move(resume));
      } else {
        resumes.push_back(resume.wall_s);
      }
    }
    if (flags.flip_point >= 0) break;  // self-test: one corrupted resume is enough
  }
  fx.reset();

  // Deterministic tallies of the reference results.
  sim::CacheMetrics cache;
  std::int64_t requests = 0;
  std::int64_t disk_ops = 0;
  double disk_mb = 0.0;
  double payload_bytes = 0.0;
  for (std::size_t i = 0; i < warm.results.size(); ++i) {
    const sim::SimResult& r = warm.results[i];
    cache.read_requests += r.cache.read_requests;
    cache.read_full_hits += r.cache.read_full_hits;
    cache.write_requests += r.cache.write_requests;
    cache.write_absorbed += r.cache.write_absorbed;
    cache.readahead_used_blocks += r.cache.readahead_used_blocks;
    cache.readahead_fetched_blocks += r.cache.readahead_fetched_blocks;
    cache.evictions += r.cache.evictions;
    cache.space_waits += r.cache.space_waits;
    for (const sim::ProcessResult& p : r.processes) requests += p.io_count;
    disk_ops += r.disk.read_ops + r.disk.write_ops;
    disk_mb += static_cast<double>(r.disk.bytes_read + r.disk.bytes_written) / 1e6;
    payload_bytes += static_cast<double>(warm.payloads[i].size());
  }

  std::vector<Metric> metrics;
  if (!flags.trace) {
    metrics = {{"wall_s", median(walls), "s"},
               {"resume_s", median(resumes), "s"},
               {"setup_s", median(setup_times), "s"},
               {"peak_rss_mb", peak_rss_mb(), "MB"}};
  } else {
    const std::vector<Span> all = span_log.spans();
    std::vector<LayerSplit> splits;
    std::vector<double> write_mb;
    for (const PassResult& pass : traced_passes) {
      splits.push_back(split_pass(all, pass, threads));
      write_mb.push_back(pass.write_mb);
    }
    std::vector<LayerSplit> resume_splits;
    for (const PassResult& pass : traced_resumes) {
      resume_splits.push_back(split_pass(all, pass, threads));
    }
    const double sim_self = median_of(splits, &LayerSplit::sim_self_s);
    const double trace_s = median_of(splits, &LayerSplit::trace_s);
    const double trace_records = median_of(splits, &LayerSplit::trace_calls);
    const std::int64_t attr_ops = traced_passes.empty() ? 0 : traced_passes.front().attr_ops;
    metrics = {
        {"sim.run_self_s", sim_self, "s"},
        {"sim.ns_per_request",
         requests > 0 ? sim_self * 1e9 / static_cast<double>(requests) : 0.0, "ns"},
        {"sim.requests", static_cast<double>(requests), "count"},
        {"sim.cache.read_requests", static_cast<double>(cache.read_requests), "count"},
        {"sim.cache.write_requests", static_cast<double>(cache.write_requests), "count"},
        {"sim.cache.evictions", static_cast<double>(cache.evictions), "count"},
        {"sim.cache.space_waits", static_cast<double>(cache.space_waits), "count"},
        {"sim.cache.readahead_fetched_blocks",
         static_cast<double>(cache.readahead_fetched_blocks), "count"},
        {"sim.cache.write_absorbed", static_cast<double>(cache.write_absorbed), "count"},
        {"sim.cache.read_hit_frac", cache.read_hit_fraction(), "ratio"},
        {"sim.cache.readahead_accuracy", cache.readahead_accuracy(), "ratio"},
        {"sim.disk.ops", static_cast<double>(disk_ops), "count"},
        {"sim.disk.mb", disk_mb, "MB"},
        {"sim.codec.encode_s", median_of(splits, &LayerSplit::encode_s), "s"},
        {"sim.codec.decode_s", median_of(resume_splits, &LayerSplit::decode_s), "s"},
        {"sim.codec.bytes", payload_bytes, "bytes"},
        {"workload.next_s", median_of(splits, &LayerSplit::workload_s), "s"},
        {"workload.requests", median_of(splits, &LayerSplit::workload_calls), "count"},
        {"trace.decode_s", trace_s, "s"},
        {"trace.records", trace_records, "count"},
        {"trace.ns_per_record", trace_records > 0 ? trace_s * 1e9 / trace_records : 0.0, "ns"},
        {"runner.point_s", median_of(splits, &LayerSplit::point_s), "s"},
        {"runner.overhead_s", median_of(splits, &LayerSplit::overhead_s), "s"},
        {"runner.journal_bytes", static_cast<double>(verify.reference_journal.size()), "bytes"},
        {"runner.write_mb", median(write_mb), "MB"},
        {"obs.attr_ops", static_cast<double>(attr_ops), "count"},
        {"obs.merge_s", median_of(splits, &LayerSplit::merge_s), "s"},
        {"tracing_overhead_frac", median(traced_walls) / median(walls) - 1.0, "ratio"},
    };
    const double point_s = median_of(splits, &LayerSplit::point_s);
    const double overhead_s = median_of(splits, &LayerSplit::overhead_s);
    const double traced_wall = median_of(splits, &LayerSplit::wall_s);
    std::printf("layer share: sim.run_self_s / runner.point_s = %.3f\n",
                point_s > 0 ? sim_self / point_s : 0.0);
    std::printf("layer share: runner.overhead_s / (threads x wall) = %.3f (threads %u)\n",
                traced_wall > 0 ? overhead_s / (threads * traced_wall) : 0.0, threads);
    std::printf("layer share: trace.decode_s / runner.point_s = %.3f\n",
                point_s > 0 ? trace_s / point_s : 0.0);
    span_log.write_chrome(flags.spans_out);
    std::printf("wrote %zu spans to %s\n", all.size(), flags.spans_out.c_str());
  }

  const bool correct = verify.failed == 0;
  std::printf("workload %s: seed %llu, %zu points, %u threads, %zu+%zu warm passes, "
              "%zu+%zu resume passes\n",
              std::string(w.name).c_str(), static_cast<unsigned long long>(flags.seed),
              warm.payloads.size(), threads, walls.size(), traced_walls.size(), resumes.size(),
              traced_resumes.size());
  std::printf("payload digest 0x%016llx (%s)\n", static_cast<unsigned long long>(digest),
              pinned ? "pinned" : "not pinned at this seed/size; passes compared to each other");
  std::printf("failed_frac %.6g (%lld failed of %lld attempted)\n",
              verify.attempted > 0 ? static_cast<double>(verify.failed) /
                                         static_cast<double>(verify.attempted)
                                   : 0.0,
              static_cast<long long>(verify.failed), static_cast<long long>(verify.attempted));
  for (const std::string& problem : verify.problems) std::printf("MISMATCH %s\n", problem.c_str());
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(verify.attempted) +
                     ", \"failed\": " + std::to_string(verify.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("metric %-36s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_flags(argc, argv));
  } catch (const UsageError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
