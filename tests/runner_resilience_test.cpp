// Resilience contract tests for the experiment runner (docs/RESILIENCE.md):
// journaled sweeps resume byte-identically at any thread count, cooperative
// deadlines settle hung points as structured timeouts, retries follow the
// pinned deterministic backoff schedule, chaos injection is reproducible
// across thread counts, and a journal from a different sweep is rejected
// instead of being silently reinterpreted.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "runner/runner.hpp"
#include "sim/simulator.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "workload/profiles.hpp"

namespace craysim::runner {
namespace {

/// Lossless test codec: hex-encoded uint64 payloads, input digest derived
/// from the point index alone. Deliberately trivial so the tests exercise
/// the runner's journal machinery, not a serializer.
struct U64Codec {
  std::uint64_t digest_salt = 0x1000;

  [[nodiscard]] std::string encode(std::uint64_t v) const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
    return buf;
  }
  [[nodiscard]] std::uint64_t decode(std::string_view text) const {
    return std::strtoull(std::string(text).c_str(), nullptr, 16);
  }
  [[nodiscard]] std::uint64_t digest(std::size_t point) const {
    return digest_salt + point;
  }
};

std::string temp_journal(const char* name) {
  return testing::TempDir() + "runner_resilience_" + name + "_" +
         std::to_string(::getpid()) + ".journal";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spill(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  ASSERT_TRUE(out.good()) << path;
}

/// The sweep's point values: deterministic, distinct, nonzero.
std::uint64_t point_value(std::size_t i) { return i * i * 977 + 13; }

void check_resume_byte_identity(unsigned threads, const char* tag) {
  const std::string path = temp_journal(tag);
  std::remove(path.c_str());
  constexpr std::size_t kPoints = 8;
  std::vector<std::size_t> points(kPoints);
  for (std::size_t i = 0; i < kPoints; ++i) points[i] = i;
  const U64Codec codec;

  RunnerOptions options;
  options.threads = threads;
  options.journal_path = path;

  std::vector<std::uint64_t> reference;
  std::string reference_bytes;
  {
    ExperimentRunner pool(options);
    reference = pool.run(points, [](std::size_t i) { return point_value(i); }, codec);
    reference_bytes = slurp(path);
  }
  ASSERT_EQ(reference.size(), kPoints);
  ASSERT_FALSE(reference_bytes.empty());

  // Simulate a crash after 3 settled points: keep the header plus the first
  // three records (the file is sorted by index, so these are points 0..2).
  std::istringstream lines(reference_bytes);
  std::string truncated;
  std::string line;
  for (int kept = 0; kept < 4 && std::getline(lines, line); ++kept) {
    truncated += line + "\n";
  }
  spill(path, truncated);

  std::atomic<int> executed{0};
  {
    ExperimentRunner pool(options);
    const auto settled = pool.run_settled(points, [&](std::size_t i) {
      executed.fetch_add(1, std::memory_order_relaxed);
      return point_value(i);
    }, codec);
    ASSERT_EQ(settled.size(), kPoints);
    for (std::size_t i = 0; i < kPoints; ++i) {
      ASSERT_TRUE(settled[i].ok()) << "point " << i;
      EXPECT_EQ(*settled[i].value, reference[i]) << "point " << i;
      EXPECT_EQ(settled[i].outcome.from_journal, i < 3) << "point " << i;
      EXPECT_EQ(settled[i].outcome.attempts, 1) << "point " << i;
    }
    obs::MetricsRegistry registry;
    pool.publish_metrics(registry);
    EXPECT_EQ(registry.counter("runner.points_restored").value(), 3);
  }
  // Only the unsettled points re-executed, and the journal converged on the
  // exact bytes of the uninterrupted run.
  EXPECT_EQ(executed.load(), static_cast<int>(kPoints) - 3);
  EXPECT_EQ(slurp(path), reference_bytes);
  std::remove(path.c_str());
}

TEST(RunnerResilienceTest, ResumeIsByteIdenticalSerial) {
  check_resume_byte_identity(1, "serial");
}

TEST(RunnerResilienceTest, ResumeIsByteIdenticalParallel) {
  check_resume_byte_identity(4, "parallel");
}

TEST(RunnerResilienceTest, JournalFromDifferentSweepIsRejected) {
  const std::string path = temp_journal("mismatch");
  std::remove(path.c_str());
  std::vector<std::size_t> points = {0, 1, 2};
  RunnerOptions options;
  options.threads = 1;
  options.journal_path = path;
  {
    ExperimentRunner pool(options);
    (void)pool.run(points, [](std::size_t i) { return point_value(i); }, U64Codec{});
  }
  // Same path, different input identity: the sweep digest no longer matches.
  ExperimentRunner pool(options);
  EXPECT_THROW((void)pool.run(points, [](std::size_t i) { return point_value(i); },
                              U64Codec{.digest_salt = 0x2000}),
               Error);
  // Different point count, same reason.
  std::vector<std::size_t> fewer = {0, 1};
  EXPECT_THROW((void)pool.run(fewer, [](std::size_t i) { return point_value(i); }, U64Codec{}),
               Error);
  std::remove(path.c_str());
}

TEST(RunnerResilienceTest, DeadlineSettlesHungPointAsTimeout) {
  RunnerOptions options;
  options.threads = 2;
  options.point_deadline = std::chrono::milliseconds(50);
  ExperimentRunner pool(options);

  std::vector<int> points = {0, 1, 2, 3};
  const auto settled =
      pool.run_settled(points, [](int i, const util::CancelToken& token) -> int {
        if (i == 2) {
          // A hung point that cooperates: polls its token until the deadline
          // trips, then surrenders.
          while (!token.cancelled()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          throw CancelledError("hung point gave up");
        }
        return i * 10;
      });
  ASSERT_EQ(settled.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const auto& result = settled[static_cast<std::size_t>(i)];
    if (i == 2) {
      EXPECT_FALSE(result.ok());
      EXPECT_EQ(result.outcome.status, PointStatus::kTimedOut);
      EXPECT_THROW(std::rethrow_exception(result.error), CancelledError);
    } else {
      ASSERT_TRUE(result.ok()) << "sibling " << i;
      EXPECT_EQ(*result.value, i * 10);
      EXPECT_EQ(result.outcome.status, PointStatus::kOk);
    }
  }
}

TEST(RunnerResilienceTest, SimulatorAbandonsRunWhenCancelled) {
  util::CancelToken token;
  token.request_cancel();
  sim::SimParams params = sim::SimParams::paper_main_memory(Bytes{4} * kMB);
  params.cancel = &token;
  sim::Simulator simulator(params);
  simulator.add_app(workload::make_profile(workload::AppId::kVenus, 11));
  EXPECT_THROW((void)simulator.run(), CancelledError);
}

/// One read after `compute` of pure CPU work. Alone on a no-cache
/// simulator, nearly all of its events are quantum expiries.
class ComputeThenRead final : public workload::RequestSource {
 public:
  explicit ComputeThenRead(Ticks compute) : compute_(compute) {}

  std::optional<workload::Request> next() override {
    if (issued_) return std::nullopt;
    issued_ = true;
    workload::Request request;
    request.compute = compute_;
    request.file = 1;
    request.length = 4096;
    return request;
  }

 private:
  Ticks compute_;
  bool issued_ = false;
};

sim::SimResult run_compute_bound(Ticks compute, const util::CancelToken* cancel) {
  sim::SimParams params = sim::SimParams::no_cache();
  params.cancel = cancel;
  sim::Simulator simulator(params);
  simulator.add_process("cruncher", std::make_unique<ComputeThenRead>(compute));
  return simulator.run();
}

// The quantum expiries of a compute-bound process, with no other process
// and no cache, are accounted without passing through the event heap. They
// must still count against the cancel poll stride: otherwise a cancelled
// run computes on to t = 5e4 s instead of stopping.
TEST(RunnerResilienceTest, CancelStopsAComputeBoundProcess) {
  util::CancelToken token;
  token.request_cancel();
  EXPECT_THROW((void)run_compute_bound(Ticks::from_seconds(5e4), &token), CancelledError);
}

// ...and they must stop at the 1e6 s simulated-time safety limit.
TEST(RunnerResilienceTest, WallLimitStopsAComputeBoundProcess) {
  try {
    (void)run_compute_bound(Ticks::from_seconds(2e6), nullptr);
    FAIL() << "2e6 s of compute must trip the 1e6 s safety limit";
  } catch (const Error& error) {
    EXPECT_STREQ(error.what(), "simulation exceeded wall-clock safety limit");
  }
}

/// Synchronous reads of `length` bytes, each after 5 ms of compute (a
/// quarter quantum), without end. Alone on a no-cache simulator, every
/// wake-up from a read is dispatched in place, outside the event heap.
class ComputeReadLoop final : public workload::RequestSource {
 public:
  ComputeReadLoop(Bytes length, std::int64_t* issued) : length_(length), issued_(issued) {}

  std::optional<workload::Request> next() override {
    ++*issued_;
    workload::Request request;
    request.compute = Ticks::from_ms(5);
    request.file = 1;
    request.offset = offset_;
    request.length = length_;
    offset_ += length_;
    return request;
  }

 private:
  Bytes length_;
  std::int64_t* issued_;
  Bytes offset_ = 0;
};

sim::SimResult run_io_bound(Bytes length, const util::CancelToken* cancel,
                            std::int64_t* issued) {
  sim::SimParams params = sim::SimParams::no_cache();
  params.cancel = cancel;
  sim::Simulator simulator(params);
  simulator.add_process("reader", std::make_unique<ComputeReadLoop>(length, issued));
  return simulator.run();
}

// The in-place dispatches of an I/O-bound process count against the same
// cancel countdown as the event loop, so a fired token stops it. Each read
// counts three times (its completion, its in-place dispatch and the slice
// after it), so the token, polled every 4096 counts, stops the process
// within 4096 / 3 reads; counting only the heap's events, it would take
// 2048...
TEST(RunnerResilienceTest, CancelStopsAnIoBoundProcess) {
  util::CancelToken token;
  token.request_cancel();
  std::int64_t issued = 0;
  EXPECT_THROW((void)run_io_bound(64 * kKiB, &token, &issued), CancelledError);
  EXPECT_LE(issued, 4096 / 3 + 1);
}

// ...and no dispatch runs in place past the 1e6 s simulated-time limit. At
// 64 MB a read (about 7 s of transfer), the limit falls after roughly
// 150,000 requests.
TEST(RunnerResilienceTest, WallLimitStopsAnIoBoundProcess) {
  std::int64_t issued = 0;
  try {
    (void)run_io_bound(Bytes{64} * kMB, nullptr, &issued);
    FAIL() << "an endless reader must trip the 1e6 s safety limit";
  } catch (const Error& error) {
    EXPECT_STREQ(error.what(), "simulation exceeded wall-clock safety limit");
  }
}

TEST(RunnerResilienceTest, RetryFollowsThePinnedBackoffSchedule) {
  RunnerOptions options;
  options.threads = 1;
  options.max_attempts = 4;
  options.retry_backoff = std::chrono::milliseconds(1);

  // The schedule is a pure function of (seed, point, attempt): repeatable,
  // exponentially doubling, and jittered within the documented band.
  for (const std::size_t point : {std::size_t{0}, std::size_t{3}, std::size_t{17}}) {
    for (const std::int32_t attempt : {2, 3, 4}) {
      const auto first = retry_delay(options, point, attempt);
      EXPECT_EQ(first, retry_delay(options, point, attempt)) << point << "/" << attempt;
      const double base =
          static_cast<double>(options.retry_backoff.count()) *
          static_cast<double>(1 << (attempt - 2));
      EXPECT_GE(static_cast<double>(first.count()), base * (1.0 - kRetryJitter) - 1.0);
      EXPECT_LE(static_cast<double>(first.count()), base * (1.0 + kRetryJitter) + 1.0);
    }
  }

  std::vector<int> failures_left = {0, 2, 0, 1};
  ExperimentRunner pool(options);
  std::vector<std::size_t> points = {0, 1, 2, 3};
  const auto settled = pool.run_settled(points, [&](std::size_t i) -> std::uint64_t {
    if (failures_left[i] > 0) {
      --failures_left[i];
      throw std::runtime_error("transient failure at point " + std::to_string(i));
    }
    return point_value(i);
  });
  ASSERT_EQ(settled.size(), 4u);
  EXPECT_EQ(settled[0].outcome.attempts, 1);
  EXPECT_EQ(settled[1].outcome.attempts, 3);
  EXPECT_EQ(settled[2].outcome.attempts, 1);
  EXPECT_EQ(settled[3].outcome.attempts, 2);
  for (const auto& result : settled) {
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.outcome.status, PointStatus::kOk);
  }
  // The slept backoff is exactly the pinned schedule, summed per retry.
  EXPECT_EQ(settled[0].outcome.backoff_ns, 0);
  EXPECT_EQ(settled[1].outcome.backoff_ns,
            (retry_delay(options, 1, 2) + retry_delay(options, 1, 3)).count());
  EXPECT_EQ(settled[3].outcome.backoff_ns, retry_delay(options, 3, 2).count());

  obs::MetricsRegistry registry;
  pool.publish_metrics(registry);
  EXPECT_EQ(registry.counter("runner.attempts").value(), 1 + 3 + 1 + 2);
  EXPECT_EQ(registry.counter("runner.retries").value(), 3);
  EXPECT_EQ(registry.counter("runner.failures").value(), 0);
}

TEST(RunnerResilienceTest, PointExhaustingItsAttemptsSettlesAsFailed) {
  RunnerOptions options;
  options.threads = 1;
  options.max_attempts = 3;
  options.retry_backoff = std::chrono::microseconds(100);
  ExperimentRunner pool(options);
  std::vector<int> points = {0, 1};
  const auto settled = pool.run_settled(points, [](int i) -> int {
    if (i == 1) throw std::runtime_error("permanently broken");
    return i;
  });
  ASSERT_TRUE(settled[0].ok());
  EXPECT_FALSE(settled[1].ok());
  EXPECT_EQ(settled[1].outcome.status, PointStatus::kFailed);
  EXPECT_EQ(settled[1].outcome.attempts, 3);
  EXPECT_THROW(std::rethrow_exception(settled[1].error), std::runtime_error);
}

TEST(RunnerResilienceTest, ChaosInjectionIsDeterministicAcrossThreadCounts) {
  const auto outcomes_at = [](unsigned threads) {
    RunnerOptions options;
    options.threads = threads;
    options.max_attempts = 2;
    options.retry_backoff = std::chrono::microseconds(50);
    options.chaos.fail_rate = 0.5;
    ExperimentRunner pool(options);
    std::vector<std::size_t> points(24);
    for (std::size_t i = 0; i < points.size(); ++i) points[i] = i;
    const auto settled = pool.run_settled(points, [](std::size_t i) { return point_value(i); });
    std::vector<std::pair<PointStatus, std::int32_t>> outcomes;
    outcomes.reserve(settled.size());
    for (const auto& result : settled) {
      outcomes.emplace_back(result.outcome.status, result.outcome.attempts);
    }
    return outcomes;
  };

  const auto serial = outcomes_at(1);
  const auto parallel = outcomes_at(4);
  EXPECT_EQ(serial, parallel);
  // With fail_rate 0.5 and two attempts, a 24-point sweep should see both
  // clean successes and injected failures — otherwise the plan is inert.
  int ok = 0;
  int retried = 0;
  for (const auto& [status, attempts] : serial) {
    ok += status == PointStatus::kOk ? 1 : 0;
    retried += attempts > 1 ? 1 : 0;
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(retried, 0);
}

TEST(RunnerResilienceTest, HangInjectionRequiresADeadline) {
  RunnerOptions options;
  options.chaos.hang_rate = 0.1;
  ExperimentRunner pool(options);
  std::vector<int> points = {0};
  EXPECT_THROW((void)pool.run_settled(points, [](int i) { return i; }), ConfigError);
}

TEST(RunnerResilienceTest, ChaosHangIsCancelledByTheDeadline) {
  RunnerOptions options;
  options.threads = 1;
  options.point_deadline = std::chrono::milliseconds(30);
  options.chaos.hang_rate = 1.0;  // every attempt hangs until cancelled
  ExperimentRunner pool(options);
  std::vector<int> points = {0, 1};
  const auto settled = pool.run_settled(points, [](int i) { return i; });
  for (const auto& result : settled) {
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.outcome.status, PointStatus::kTimedOut);
  }
}

TEST(RunnerResilienceTest, JournalingWithoutACodecIsRejected) {
  RunnerOptions options;
  options.journal_path = temp_journal("nocodec");
  ExperimentRunner pool(options);
  std::vector<int> points = {0};
  EXPECT_THROW((void)pool.run_settled(points, [](int i) { return i; }), ConfigError);
  std::remove(options.journal_path.c_str());
}

TEST(RunnerResilienceTest, CodecEncodesOnlyWhenAJournalIsOpen) {
  struct CountingCodec {
    std::atomic<int>* encodes;
    [[nodiscard]] std::string encode(std::uint64_t v) const {
      encodes->fetch_add(1, std::memory_order_relaxed);
      return U64Codec{}.encode(v);
    }
    [[nodiscard]] std::uint64_t decode(std::string_view text) const {
      return U64Codec{}.decode(text);
    }
    [[nodiscard]] std::uint64_t digest(std::size_t point) const {
      return U64Codec{}.digest(point);
    }
  };
  const std::vector<std::size_t> points = {0, 1, 2};
  const auto fn = [](std::size_t i) { return point_value(i); };
  std::atomic<int> encodes{0};
  ExperimentRunner plain(RunnerOptions{.threads = 2});
  EXPECT_EQ(plain.run(points, fn, CountingCodec{&encodes}).size(), points.size());
  EXPECT_EQ(encodes.load(), 0);

  const std::string path = temp_journal("encodes");
  std::remove(path.c_str());
  ExperimentRunner journaled(RunnerOptions{.threads = 2, .journal_path = path});
  EXPECT_EQ(journaled.run(points, fn, CountingCodec{&encodes}).size(), points.size());
  EXPECT_EQ(encodes.load(), 3);
  std::remove(path.c_str());
}

TEST(RunnerResilienceTest, DefaultOptionsKeepResultsAndSchema) {
  // Default options run the engine with one attempt, no deadline, no
  // journal and no chaos: every point runs once, in place, with its value
  // or its error; the metric snapshot keeps the non-resilient schema.
  ExperimentRunner pool(RunnerOptions{.threads = 2});
  std::vector<int> points = {0, 1, 2, 3};
  std::atomic<int> executed{0};
  const auto settled = pool.run_settled(points, [&](int i) {
    executed.fetch_add(1, std::memory_order_relaxed);
    if (i == 3) throw std::runtime_error("point 3 is broken");
    return i * 2;
  });
  EXPECT_EQ(executed.load(), 4);
  for (int i = 0; i < 3; ++i) {
    const auto& result = settled[static_cast<std::size_t>(i)];
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result.value, i * 2);
    EXPECT_EQ(result.outcome.status, PointStatus::kOk);
    EXPECT_EQ(result.outcome.attempts, 1);
    EXPECT_FALSE(result.outcome.from_journal);
    EXPECT_EQ(result.outcome.backoff_ns, 0);
    EXPECT_TRUE(result.outcome.error.empty());
  }
  // One failed point settles alone, with one attempt and its message.
  EXPECT_FALSE(settled[3].ok());
  EXPECT_EQ(settled[3].outcome.status, PointStatus::kFailed);
  EXPECT_EQ(settled[3].outcome.attempts, 1);
  EXPECT_EQ(settled[3].outcome.error, "point 3 is broken");
  EXPECT_THROW(std::rethrow_exception(settled[3].error), std::runtime_error);

  // A runner that never engaged resilience publishes none of the resilience
  // metrics — the pinned non-resilient metric schema is unchanged.
  obs::MetricsRegistry registry;
  pool.publish_metrics(registry);
  for (const auto& name : registry.metric_names()) {
    EXPECT_EQ(name.find("runner.attempts"), std::string::npos) << name;
    EXPECT_EQ(name.find("runner.retries"), std::string::npos) << name;
    EXPECT_EQ(name.find("runner.timeouts"), std::string::npos) << name;
    EXPECT_EQ(name.find("runner.failures"), std::string::npos) << name;
    EXPECT_EQ(name.find("runner.points_restored"), std::string::npos) << name;
    EXPECT_EQ(name.find("runner.backoff"), std::string::npos) << name;
    EXPECT_EQ(name.find("runner.chaos"), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace craysim::runner
