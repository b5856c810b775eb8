// Telemetry layer tests: MetricsRegistry semantics, PhaseProfiler
// accumulation, SpanRecorder export structure, the consistency checker, the
// venus-replay recording's validity, and the contract that enabling
// telemetry never changes simulation results.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/span.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "workload/profiles.hpp"

namespace craysim::obs {
namespace {

TEST(MetricsRegistry, CountersAccumulateAndExportSorted) {
  MetricsRegistry registry;
  registry.counter("b.second").add(2);
  registry.counter("a.first").add(1);
  registry.counter("b.second").add(3);
  registry.gauge("c.third").set(1.5);

  EXPECT_EQ(registry.counter("b.second").value(), 5);
  EXPECT_EQ(registry.size(), 3u);
  const std::vector<std::string> names = registry.metric_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "a.first");
  EXPECT_EQ(names[1], "b.second");
  EXPECT_EQ(names[2], "c.third");

  const std::string jsonl = registry.snapshot_jsonl();
  EXPECT_EQ(jsonl,
            "{\"metric\":\"a.first\",\"type\":\"counter\",\"value\":1}\n"
            "{\"metric\":\"b.second\",\"type\":\"counter\",\"value\":5}\n"
            "{\"metric\":\"c.third\",\"type\":\"gauge\",\"value\":1.5}\n");
}

TEST(MetricsRegistry, SameNameSameHandle) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry registry;
  (void)registry.counter("x");
  EXPECT_THROW((void)registry.gauge("x"), ConfigError);
  EXPECT_THROW((void)registry.histogram("x"), ConfigError);
}

TEST(MetricsRegistry, HistogramSummaryIsExact) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat");
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  const Histogram::Summary s = h.summarize();
  EXPECT_EQ(s.count, 100);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  // Nearest-rank (round-half-up) on the stored samples: index
  // round(q * 99) of the sorted 1..100.
  EXPECT_DOUBLE_EQ(s.p50, 51.0);
  EXPECT_DOUBLE_EQ(s.p90, 90.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
}

TEST(MetricsRegistry, HistogramEdgeCases) {
  MetricsRegistry registry;
  // Empty: summarize() must not touch the (absent) samples.
  const Histogram::Summary empty = registry.histogram("none").summarize();
  EXPECT_EQ(empty.count, 0);
  EXPECT_DOUBLE_EQ(empty.min, 0.0);
  EXPECT_DOUBLE_EQ(empty.max, 0.0);
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  EXPECT_DOUBLE_EQ(empty.p99, 0.0);

  // One sample: every statistic collapses onto it.
  Histogram& one = registry.histogram("one");
  one.record(42.5);
  const Histogram::Summary s1 = one.summarize();
  EXPECT_EQ(s1.count, 1);
  EXPECT_DOUBLE_EQ(s1.min, 42.5);
  EXPECT_DOUBLE_EQ(s1.max, 42.5);
  EXPECT_DOUBLE_EQ(s1.mean, 42.5);
  EXPECT_DOUBLE_EQ(s1.p50, 42.5);
  EXPECT_DOUBLE_EQ(s1.p90, 42.5);
  EXPECT_DOUBLE_EQ(s1.p99, 42.5);

  // All-equal samples: percentiles must not interpolate away from the value.
  Histogram& flat = registry.histogram("flat");
  for (int i = 0; i < 1000; ++i) flat.record(7.0);
  const Histogram::Summary sf = flat.summarize();
  EXPECT_EQ(sf.count, 1000);
  EXPECT_DOUBLE_EQ(sf.mean, 7.0);
  EXPECT_DOUBLE_EQ(sf.p50, 7.0);
  EXPECT_DOUBLE_EQ(sf.p99, 7.0);
}

TEST(PhaseProfiler, ScopesAccumulateByName) {
  PhaseProfiler phases;
  { const auto s = phases.scope("work"); }
  { const auto s = phases.scope("work"); }
  phases.add("io", 0.25);
  const auto all = phases.phases();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].name, "work");
  EXPECT_EQ(all[0].count, 2);
  EXPECT_EQ(all[1].name, "io");
  EXPECT_DOUBLE_EQ(all[1].seconds, 0.25);
  EXPECT_GE(phases.total_seconds(), 0.25);

  MetricsRegistry registry;
  phases.publish_metrics(registry);
  EXPECT_DOUBLE_EQ(registry.gauge("phase.io_s").value(), 0.25);
  EXPECT_GE(registry.gauge("phase.total_s").value(), 0.25);
}

TEST(SpanRecorder, ChromeJsonStructure) {
  SpanRecorder spans;
  spans.name_process(1, "procs");
  spans.begin(1, 7, "run", Ticks{100}, {{"cpu", 0}});
  spans.end(1, 7, "run", Ticks{150});
  spans.instant(4, 0, "evict", Ticks{120}, {{"blocks", 3}});
  spans.async_begin(3, 42, "io", "fetch", Ticks{110});
  spans.async_end(3, 42, "io", "fetch", Ticks{140});
  spans.complete(2, 0, "read", Ticks{100}, Ticks{25}, {{"bytes", 4096}});
  spans.counter(4, "dirty_blocks", Ticks{130}, "blocks", 9);

  EXPECT_TRUE(check_consistency(spans).empty());
  const std::string json = spans.chrome_json();
  // Ticks are 10 us each, so ts values are exact microseconds.
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"run\",\"ph\":\"B\",\"pid\":1,\"tid\":7,\"ts\":1000,"
                      "\"args\":{\"cpu\":0}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"fetch\",\"ph\":\"b\",\"pid\":3,\"id\":42,\"cat\":\"io\","
                      "\"ts\":1100}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"read\",\"ph\":\"X\",\"pid\":2,\"tid\":0,\"ts\":1000,"
                      "\"dur\":250,\"args\":{\"bytes\":4096}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
                      "\"args\":{\"name\":\"procs\"}}"),
            std::string::npos);
}

TEST(SpanRecorder, EmptyAndMetadataOnlyTracesAreValidJson) {
  // A recorder that never saw an event still exports a loadable skeleton
  // (no trailing comma, both top-level fields present).
  SpanRecorder empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(check_consistency(empty).empty());
  EXPECT_EQ(empty.chrome_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n");

  // Metadata-only (a simulation with zero I/O): exactly one M row, still no
  // trailing comma.
  SpanRecorder meta;
  meta.name_process(1, "procs");
  const std::string json = meta.chrome_json();
  EXPECT_EQ(json.find("\"ph\":\"M\""), json.rfind("\"ph\":\"M\""));
  EXPECT_NE(json.find("\"args\":{\"name\":\"procs\"}}\n]}"), std::string::npos);
}

TEST(SpanRecorder, ZeroDurationSpanSurvivesConsistencyAndExport) {
  SpanRecorder spans;
  spans.begin(1, 1, "blip", Ticks{100});
  spans.end(1, 1, "blip", Ticks{100});
  spans.complete(2, 0, "flat", Ticks{50}, Ticks::zero());
  EXPECT_TRUE(check_consistency(spans).empty());
  const std::string json = spans.chrome_json();
  EXPECT_NE(json.find("\"dur\":0"), std::string::npos);
}

TEST(SpanRecorder, WriterSortsByTimestamp) {
  SpanRecorder spans;
  spans.instant(1, 0, "late", Ticks{300});
  spans.instant(1, 0, "early", Ticks{100});
  const std::string json = spans.chrome_json();
  EXPECT_LT(json.find("early"), json.find("late"));
}

TEST(CheckConsistency, CatchesUnbalancedAndBackwardsSpans) {
  {
    SpanRecorder spans;
    spans.begin(1, 1, "run", Ticks{10});
    EXPECT_NE(check_consistency(spans).find("unclosed"), std::string::npos);
  }
  {
    SpanRecorder spans;
    spans.end(1, 1, "run", Ticks{10});
    EXPECT_NE(check_consistency(spans).find("empty track"), std::string::npos);
  }
  {
    SpanRecorder spans;
    spans.begin(1, 1, "a", Ticks{10});
    spans.end(1, 1, "b", Ticks{20});
    EXPECT_NE(check_consistency(spans).find("closes"), std::string::npos);
  }
  {
    SpanRecorder spans;
    spans.begin(1, 1, "a", Ticks{20});
    spans.end(1, 1, "a", Ticks{10});
    EXPECT_NE(check_consistency(spans).find("before it begins"), std::string::npos);
  }
  {
    SpanRecorder spans;
    spans.async_end(3, 5, "io", "fetch", Ticks{10});
    EXPECT_NE(check_consistency(spans).find("async end"), std::string::npos);
  }
}

/// Scans the serialized JSON and asserts every "ts" is nondecreasing — the
/// property Perfetto needs and the writer's sort guarantees.
void expect_monotonic_ts(const std::string& json) {
  std::int64_t last = -1;
  std::size_t pos = 0;
  std::size_t seen = 0;
  while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
    pos += 5;
    const std::int64_t ts = std::strtoll(json.c_str() + pos, nullptr, 10);
    ASSERT_GE(ts, last) << "timestamp goes backwards at offset " << pos;
    last = ts;
    ++seen;
  }
  EXPECT_GT(seen, 0u);
}

TEST(SimulatorSpans, VenusReplayIsConsistentAndMonotonic) {
  SpanRecorder spans;
  sim::SimParams params = sim::SimParams::paper_main_memory(Bytes{16} * kMB);
  params.spans = &spans;
  sim::Simulator simulator(params);
  simulator.add_app(workload::make_profile(workload::AppId::kVenus));
  const sim::SimResult result = simulator.run();

  EXPECT_GT(result.total_wall, Ticks::zero());
  EXPECT_FALSE(spans.empty());
  EXPECT_EQ(check_consistency(spans), "");
  expect_monotonic_ts(spans.chrome_json());

  // The instrumentation covered every layer: process spans, disk slices,
  // async I/O ops, and cache activity.
  bool saw_track[5] = {};
  for (const auto& e : spans.events()) {
    if (e.pid < 5) saw_track[e.pid] = true;
  }
  EXPECT_TRUE(saw_track[track::kProcesses]);
  EXPECT_TRUE(saw_track[track::kDisks]);
  EXPECT_TRUE(saw_track[track::kIoOps]);
  EXPECT_TRUE(saw_track[track::kCache]);
}

/// A synchronous read, then an async 1 MB write that is still on its way to
/// disk when the process finishes.
class ReadThenAsyncWrite final : public workload::RequestSource {
 public:
  std::optional<workload::Request> next() override {
    if (issued_ == 2) return std::nullopt;
    workload::Request request;
    request.compute = Ticks::from_ms(1);
    request.file = 1;
    request.length = issued_ == 0 ? 64 * kKiB : Bytes{1} * kMB;
    request.write = issued_ == 1;
    request.async = issued_ == 1;
    ++issued_;
    return request;
  }

 private:
  int issued_ = 0;
};

// Bypass transfers take no in-flight table entry, so run()'s exit condition
// counts them on their own: the async write must complete, and close its
// span, before the run returns.
TEST(SimulatorSpans, NoCacheAsyncTailClosesEverySpan) {
  SpanRecorder spans;
  sim::SimParams params = sim::SimParams::no_cache();
  params.spans = &spans;
  params.counter_interval = Ticks::from_ms(10);
  sim::Simulator simulator(params);
  simulator.add_process("tail", std::make_unique<ReadThenAsyncWrite>());
  (void)simulator.run();
  EXPECT_EQ(check_consistency(spans), "");
  int bypass_ends = 0;
  for (const auto& e : spans.events()) {
    if (e.ph == 'e' && e.name == "bypass") ++bypass_ends;
  }
  EXPECT_EQ(bypass_ends, 2);
}

TEST(SimulatorSpans, TelemetryDoesNotChangeResults) {
  const auto run_once = [](SpanRecorder* spans) {
    sim::SimParams params = sim::SimParams::paper_main_memory(Bytes{16} * kMB);
    params.spans = spans;
    sim::Simulator simulator(params);
    simulator.add_app(workload::make_profile(workload::AppId::kVenus));
    return simulator.run();
  };
  SpanRecorder spans;
  const sim::SimResult off = run_once(nullptr);
  const sim::SimResult on = run_once(&spans);
  // summary() formats every headline statistic; identical strings mean the
  // instrumented run is indistinguishable from the plain one.
  EXPECT_EQ(off.summary(), on.summary());
  EXPECT_EQ(off.total_wall, on.total_wall);
  EXPECT_EQ(off.cache.evictions, on.cache.evictions);
  EXPECT_EQ(off.disk.read_ops, on.disk.read_ops);
  EXPECT_FALSE(spans.empty());
}

TEST(SimulatorSpans, CounterSamplingDoesNotChangeResults) {
  const auto run_once = [](SpanRecorder* spans, Ticks interval) {
    sim::SimParams params = sim::SimParams::paper_main_memory(Bytes{16} * kMB);
    params.spans = spans;
    params.counter_interval = interval;
    sim::Simulator simulator(params);
    simulator.add_app(workload::make_profile(workload::AppId::kVenus));
    return simulator.run();
  };
  const sim::SimResult off = run_once(nullptr, Ticks::zero());
  // counter_interval without a recorder attached must also be inert.
  const sim::SimResult orphan = run_once(nullptr, Ticks::from_ms(50));
  SpanRecorder spans;
  const sim::SimResult on = run_once(&spans, Ticks::from_ms(50));

  EXPECT_EQ(off.summary(), orphan.summary());
  EXPECT_EQ(off.summary(), on.summary());
  EXPECT_EQ(off.total_wall, on.total_wall);
  EXPECT_EQ(off.cache.evictions, on.cache.evictions);
  EXPECT_EQ(off.disk.read_ops, on.disk.read_ops);

  // The sampler actually produced the promised tracks: cache occupancy,
  // read-ahead tallies, inflight ops, and per-disk queue depth.
  EXPECT_TRUE(check_consistency(spans).empty());
  bool saw_dirty = false;
  bool saw_readahead = false;
  bool saw_inflight = false;
  bool saw_queue = false;
  for (const auto& e : spans.events()) {
    if (e.ph != 'C') continue;
    saw_dirty |= e.name == "dirty_blocks";
    saw_readahead |= e.name == "readahead_hit_blocks";
    saw_inflight |= e.name == "inflight_ops";
    saw_queue |= e.name.rfind("queue_depth.disk", 0) == 0;
  }
  EXPECT_TRUE(saw_dirty);
  EXPECT_TRUE(saw_readahead);
  EXPECT_TRUE(saw_inflight);
  EXPECT_TRUE(saw_queue);

  // The JSONL export is sorted: t_us never decreases within any series.
  std::ostringstream series;
  write_counter_series_jsonl(spans, series, "p");
  std::map<std::string, std::int64_t> last_ts;
  std::istringstream lines(series.str());
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(lines, line)) {
    const std::size_t name_pos = line.find("\"series\":\"") + 10;
    const std::string name = line.substr(name_pos, line.find('"', name_pos) - name_pos);
    const std::size_t ts_pos = line.find("\"t_us\":") + 7;
    const std::int64_t ts = std::strtoll(line.c_str() + ts_pos, nullptr, 10);
    auto [it, fresh] = last_ts.try_emplace(name, ts);
    if (!fresh) {
      ASSERT_GE(ts, it->second) << "series " << name << " goes backwards";
      it->second = ts;
    }
    ++parsed;
  }
  EXPECT_GT(parsed, 100u);
}

TEST(SimResultMetrics, PublishCoversCacheAndDisk) {
  sim::SimParams params = sim::SimParams::paper_main_memory(Bytes{16} * kMB);
  sim::Simulator simulator(params);
  simulator.add_app(workload::make_profile(workload::AppId::kGcm));
  const sim::SimResult result = simulator.run();

  MetricsRegistry registry;
  result.publish_metrics(registry);
  EXPECT_EQ(registry.counter("sim.cache.read_requests").value(),
            result.cache.read_requests);
  EXPECT_EQ(registry.counter("sim.disk.read_ops").value(), result.disk.read_ops);
  EXPECT_DOUBLE_EQ(registry.gauge("sim.cpu_utilization").value(), result.cpu_utilization());
  EXPECT_GT(registry.size(), 25u);
}

}  // namespace
}  // namespace craysim::obs
