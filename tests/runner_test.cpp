// ExperimentRunner contract tests: submission-order results, bit-identical
// output for any thread count, and per-point exception isolation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "runner/runner.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "util/digest.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

namespace craysim::runner {
namespace {

/// Digest of every integer-valued observable of a simulation result (floats
/// excluded so the check is portable; they are all derived from these).
std::uint64_t digest_result(const sim::SimResult& r) {
  util::Fnv1a d;
  d.add(r.total_wall.count());
  d.add(r.cpu_busy.count());
  d.add(r.cpu_idle.count());
  d.add(r.overhead_time.count());
  d.add(r.cache.read_requests);
  d.add(r.cache.read_full_hits);
  d.add(r.cache.read_partial_hits);
  d.add(r.cache.read_misses);
  d.add(r.cache.write_requests);
  d.add(r.cache.write_absorbed);
  d.add(r.cache.readahead_issued);
  d.add(r.cache.readahead_used_blocks);
  d.add(r.cache.readahead_fetched_blocks);
  d.add(r.cache.evictions);
  d.add(r.cache.space_waits);
  d.add(r.cache.writes_cancelled_blocks);
  d.add(r.disk.read_ops);
  d.add(r.disk.write_ops);
  d.add(r.disk.bytes_read);
  d.add(r.disk.bytes_written);
  d.add(r.disk.busy_time.count());
  d.add(r.disk.queue_wait_time.count());
  for (const auto& proc : r.processes) {
    d.add(proc.pid);
    d.add(proc.finish_time.count());
    d.add(proc.cpu_time.count());
    d.add(proc.blocked_time.count());
    d.add(proc.io_count);
    d.add(proc.bytes_read);
    d.add(proc.bytes_written);
  }
  return d.value();
}

/// A deliberately small application so a sweep point simulates in
/// milliseconds.
workload::AppProfile tiny_app() {
  workload::AppProfile p;
  p.name = "tiny";
  p.description = "runner-test workload";
  p.cpu_time = Ticks::from_seconds(2.0);
  p.cycles = 8;
  p.files.push_back({"input", 4 * kMB});
  p.files.push_back({"output", 4 * kMB});
  workload::EdgeBurst startup;
  startup.files = {0};
  startup.write = false;
  startup.request_size = 64 * kKiB;
  startup.requests = 16;
  p.startup.push_back(startup);
  workload::EdgeBurst finale;
  finale.files = {1};
  finale.write = true;
  finale.request_size = 64 * kKiB;
  finale.requests = 16;
  p.finale.push_back(finale);
  workload::CycleBurst cycle;
  cycle.files = {1};
  cycle.write = true;
  cycle.request_size = 32 * kKiB;
  cycle.requests = 8;
  p.cycle.push_back(cycle);
  return p;
}

struct SweepPoint {
  Bytes cache_size = 0;
  bool write_behind = false;
};

std::uint64_t run_point(const SweepPoint& point) {
  sim::SimParams params = sim::SimParams::paper_main_memory(point.cache_size);
  params.cache.write_behind = point.write_behind;
  sim::Simulator simulator(params);
  simulator.add_app(tiny_app());
  return digest_result(simulator.run());
}

TEST(ExperimentRunnerTest, ResultsArriveInSubmissionOrder) {
  ExperimentRunner pool(RunnerOptions{.threads = 4});
  EXPECT_EQ(pool.thread_count(), 4u);

  std::vector<int> points(32);
  for (int i = 0; i < 32; ++i) points[static_cast<std::size_t>(i)] = i;
  const auto results = pool.run(points, [](int i) {
    // Stagger execution so completion order differs from submission order.
    std::this_thread::sleep_for(std::chrono::milliseconds((32 - i) % 4));
    return i * 7 + 1;
  });
  ASSERT_EQ(results.size(), points.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i) * 7 + 1) << "slot " << i;
  }
}

TEST(ExperimentRunnerTest, BackToBackBatchesNeverLeakWorkAcrossBatches) {
  // Regression test for batch-rollover: a straggler worker still leaving
  // batch k's claim loop must never steal an index of batch k+1 or invoke
  // batch k's (destroyed) point function. Batches smaller than the thread
  // count maximize the straggler window; each index must run exactly once.
  ExperimentRunner pool(RunnerOptions{.threads = 8});
  for (int batch = 0; batch < 400; ++batch) {
    const std::size_t count = 1 + static_cast<std::size_t>(batch % 7);
    std::vector<std::atomic<int>> hits(count);
    std::vector<std::size_t> points(count);
    for (std::size_t i = 0; i < count; ++i) points[i] = i;
    const auto results = pool.run(points, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      return i;
    });
    ASSERT_EQ(results.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "batch " << batch << " index " << i;
      ASSERT_EQ(results[i], i);
    }
  }
}

TEST(ExperimentRunnerTest, EmptyAndSmallBatches) {
  ExperimentRunner pool(RunnerOptions{.threads = 8});
  const auto none = pool.run(std::vector<int>{}, [](int i) { return i; });
  EXPECT_TRUE(none.empty());
  // Fewer points than threads: the surplus workers must not touch anything.
  const auto two = pool.run(std::vector<int>{5, 6}, [](int i) { return i * i; });
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], 25);
  EXPECT_EQ(two[1], 36);
}

TEST(ExperimentRunnerTest, SimulationsAreBitIdenticalForAnyThreadCount) {
  std::vector<SweepPoint> points;
  for (const Bytes mb : {4, 8, 16}) {
    points.push_back({mb * kMB, true});
    points.push_back({mb * kMB, false});
  }

  ExperimentRunner serial(RunnerOptions{.threads = 1});
  ExperimentRunner parallel(RunnerOptions{.threads = 4});
  const auto expected = serial.run(points, run_point);
  const auto actual = parallel.run(points, run_point);
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]) << "sweep point " << i;
  }
}

TEST(ExperimentRunnerTest, SharedTraceReplayIsBitIdenticalAndCopyFree) {
  const auto shared =
      std::make_shared<const trace::Trace>(workload::synthesize_trace(tiny_app()));
  ASSERT_FALSE(shared->empty());

  auto replay_point = [&shared](Bytes cache_size) {
    sim::SimParams params = sim::SimParams::paper_main_memory(cache_size);
    sim::Simulator simulator(params);
    simulator.add_process("replay", std::make_unique<sim::StreamingReplaySource>(
                                        std::make_unique<trace::MemoryRecordSource>(shared)));
    return digest_result(simulator.run());
  };
  const std::vector<Bytes> sizes = {2 * kMB, 4 * kMB, 8 * kMB, 16 * kMB};

  ExperimentRunner serial(RunnerOptions{.threads = 1});
  ExperimentRunner parallel(RunnerOptions{.threads = 3});
  const auto expected = serial.run(sizes, replay_point);
  const auto actual = parallel.run(sizes, replay_point);
  EXPECT_EQ(expected, actual);
  // All replay sources have been destroyed; the trace is still ours alone.
  EXPECT_EQ(shared.use_count(), 1);
}

TEST(ExperimentRunnerTest, ExceptionInOnePointDoesNotPoisonSiblings) {
  ExperimentRunner pool(RunnerOptions{.threads = 4});
  std::vector<int> points(8);
  for (int i = 0; i < 8; ++i) points[static_cast<std::size_t>(i)] = i;

  const auto settled = pool.run_settled(points, [](int i) -> int {
    if (i == 2 || i == 5) throw std::runtime_error("boom " + std::to_string(i));
    return i * 3;
  });
  ASSERT_EQ(settled.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    const auto& result = settled[static_cast<std::size_t>(i)];
    if (i == 2 || i == 5) {
      EXPECT_FALSE(result.ok());
      EXPECT_THROW(std::rethrow_exception(result.error), std::runtime_error);
    } else {
      ASSERT_TRUE(result.ok()) << "sibling " << i << " was poisoned";
      EXPECT_EQ(*result.value, i * 3);
    }
  }

  // run() surfaces the first failure by submission order, whatever the
  // execution order was.
  try {
    (void)pool.run(points, [](int i) -> int {
      std::this_thread::sleep_for(std::chrono::milliseconds(i == 2 ? 3 : 0));
      if (i == 2 || i == 5) throw std::runtime_error("boom " + std::to_string(i));
      return i;
    });
    FAIL() << "run() must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 2");
  }
}

TEST(ExperimentRunnerTest, EnvironmentOverridesThreadCount) {
  ASSERT_EQ(setenv("CRAYSIM_RUNNER_THREADS", "2", 1), 0);
  EXPECT_EQ(RunnerOptions::from_env().threads, 2u);
  ASSERT_EQ(setenv("CRAYSIM_RUNNER_THREADS", "garbage", 1), 0);
  EXPECT_EQ(RunnerOptions::from_env().threads, 0u);
  ASSERT_EQ(unsetenv("CRAYSIM_RUNNER_THREADS"), 0);
  EXPECT_EQ(RunnerOptions::from_env().threads, 0u);
}

TEST(ExperimentRunnerTest, TelemetryAccountsForEveryPoint) {
  RunnerOptions options;
  options.threads = 3;
  options.collect_telemetry = true;
  ExperimentRunner pool(options);
  constexpr std::size_t kPoints = 40;
  std::atomic<int> ran{0};
  pool.run_indexed(kPoints, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  });
  pool.run_indexed(kPoints, [&](std::size_t) { ran.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ran.load(), 2 * static_cast<int>(kPoints));

  obs::MetricsRegistry registry;
  pool.publish_metrics(registry);
  EXPECT_EQ(registry.gauge("runner.threads").value(), 3.0);
  EXPECT_EQ(registry.counter("runner.batches").value(), 2);
  // Every executed point lands in exactly one worker's tally.
  EXPECT_EQ(registry.counter("runner.points").value(), 2 * static_cast<std::int64_t>(kPoints));
  std::int64_t per_worker = 0;
  for (int w = 0; w < 3; ++w) {
    per_worker +=
        registry.counter("runner.worker." + std::to_string(w) + ".points").value();
  }
  EXPECT_EQ(per_worker, 2 * static_cast<std::int64_t>(kPoints));
  EXPECT_GT(registry.gauge("runner.wall_s").value(), 0.0);
  EXPECT_GT(registry.gauge("runner.worker.0.busy_s").value(), 0.0);
  // The first claim of each batch saw the full backlog.
  EXPECT_EQ(registry.gauge("runner.queue_depth.max").value(),
            static_cast<double>(kPoints));
}

TEST(ExperimentRunnerTest, TelemetryOffPublishesNoWorkerBreakdown) {
  RunnerOptions options;
  options.threads = 2;
  ExperimentRunner pool(options);
  pool.run_indexed(4, [](std::size_t) {});
  obs::MetricsRegistry registry;
  pool.publish_metrics(registry);
  // Without collect_telemetry nothing is tracked, by design — the claim
  // path must stay clock-free.
  EXPECT_EQ(registry.counter("runner.batches").value(), 0);
  EXPECT_EQ(registry.counter("runner.points").value(), 0);
  const auto names = registry.metric_names();
  for (const auto& name : names) {
    EXPECT_EQ(name.find("runner.worker."), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace craysim::runner
