// bench::Sweep, the one sweep harness behind the figure/table benches: flag
// parsing (a bad flag is a one-line exit 2, never an abort), the per-attempt
// instrumentation (--deadline stops the simulation; a retried point's blame
// rows describe its last attempt), the no-flag path (nothing built), and the
// deadline flight recorder's arming and dump.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "obs/attr.hpp"
#include "runner/runner.hpp"
#include "sim/simulator.hpp"
#include "sweep.hpp"
#include "util/error.hpp"
#include "workload/profiles.hpp"

namespace craysim {
namespace {

/// A mutable argv built from strings, as main() receives it (the flag
/// parsers consume their flags in place).
class Argv {
 public:
  explicit Argv(std::vector<std::string> words) : words_(std::move(words)) {
    for (std::string& word : words_) pointers_.push_back(word.data());
    pointers_.push_back(nullptr);
    argc = static_cast<int>(words_.size());
  }
  [[nodiscard]] char** argv() { return pointers_.data(); }

  int argc = 0;

 private:
  std::vector<std::string> words_;
  std::vector<char*> pointers_;
};

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "bench_sweep_" + name + "_" + std::to_string(::getpid());
}

bool file_exists(const std::string& path) { return std::ifstream(path).good(); }

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

sim::SimParams venus_params(std::size_t) {
  return sim::SimParams::paper_main_memory(Bytes{32} * kMB);
}

sim::SimResult run_venus(const sim::SimParams& params) {
  sim::Simulator simulator(params);
  simulator.add_app(workload::make_profile(workload::AppId::kVenus, 11));
  return simulator.run();
}

sim::SimParams gcm_params(std::size_t) {
  return sim::SimParams::paper_main_memory(Bytes{16} * kMB);
}

sim::SimResult run_gcm(const sim::SimParams& params) {
  sim::Simulator simulator(params);
  simulator.add_app(workload::make_profile(workload::AppId::kGcm, 11));
  return simulator.run();
}

// --- Flags ------------------------------------------------------------------

TEST(SweepFlags, WellFormedFlagsAreConsumed) {
  Argv args({"bench", "--deadline", "2.5", "--max-attempts", "3", "--chaos-fail", "0.25",
             "--chaos-hang", "0", "--chaos-seed", "0x10", "--keep", "--top", "4",
             "--counter-interval", "50"});
  const bench::ObsArgs obs = bench::ObsArgs::take(args.argc, args.argv());
  const bench::ResilienceArgs res = bench::ResilienceArgs::take(args.argc, args.argv());
  EXPECT_EQ(obs.attr_top, 4u);
  EXPECT_EQ(obs.counter_interval_ms, 50.0);
  EXPECT_EQ(res.deadline_s, 2.5);
  EXPECT_EQ(res.max_attempts, 3);
  EXPECT_EQ(res.chaos_fail_rate, 0.25);
  EXPECT_EQ(res.chaos_hang_rate, 0.0);
  EXPECT_EQ(res.chaos_seed, 0x10u);
  ASSERT_EQ(args.argc, 2);  // only the program name and the unknown flag remain
  EXPECT_EQ(std::string(args.argv()[1]), "--keep");
  EXPECT_EQ(args.argv()[2], nullptr);
}

TEST(SweepFlags, AbsentFlagsKeepTheDefaults) {
  Argv args({"bench"});
  const bench::ObsArgs obs = bench::ObsArgs::take(args.argc, args.argv());
  const bench::ResilienceArgs res = bench::ResilienceArgs::take(args.argc, args.argv());
  EXPECT_EQ(obs.attr_top, 10u);
  EXPECT_EQ(obs.counter_interval_ms, 100.0);
  EXPECT_FALSE(res.any());
}

TEST(SweepFlags, MalformedValuesThrowConfigErrorNamingTheFlag) {
  const std::vector<std::vector<std::string>> obs_cases = {
      {"--top", "x"}, {"--top", "0"}, {"--counter-interval", "0"},
      {"--counter-interval", "-5"}, {"--counter-interval", "ms"}};
  for (const auto& flag : obs_cases) {
    Argv args({"bench", flag[0], flag[1]});
    try {
      (void)bench::ObsArgs::take(args.argc, args.argv());
      ADD_FAILURE() << flag[0] << " " << flag[1] << " was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(flag[0]), std::string::npos) << e.what();
    }
  }
  const std::vector<std::vector<std::string>> res_cases = {
      {"--deadline", "abc"},    {"--deadline", "0"},        {"--deadline", "-1"},
      {"--deadline", "inf"},    {"--deadline", "nan"},      {"--max-attempts", "0"},
      {"--max-attempts", "1.5"}, {"--chaos-fail", "2"},     {"--chaos-fail", "-0.1"},
      {"--chaos-hang", "1.01"}, {"--chaos-seed", "seed"},  {"--chaos-seed", "-3"}};
  for (const auto& flag : res_cases) {
    Argv args({"bench", flag[0], flag[1]});
    try {
      (void)bench::ResilienceArgs::take(args.argc, args.argv());
      ADD_FAILURE() << flag[0] << " " << flag[1] << " was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(flag[0]), std::string::npos) << e.what();
    }
  }
}

TEST(SweepFlags, ChaosHangNeedsADeadline) {
  Argv hang_only({"bench", "--chaos-hang", "0.5"});
  EXPECT_THROW((void)bench::ResilienceArgs::take(hang_only.argc, hang_only.argv()), ConfigError);
  Argv with_deadline({"bench", "--chaos-hang", "0.5", "--deadline", "1"});
  EXPECT_EQ(bench::ResilienceArgs::take(with_deadline.argc, with_deadline.argv()).chaos_hang_rate,
            0.5);
}

TEST(SweepFlags, BadFlagExitsTwoWithOneStderrLine) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto build = [](std::vector<std::string> words) {
    Argv args(std::move(words));
    bench::Sweep sweep(args.argc, args.argv(), {"point"});
  };
  EXPECT_EXIT(build({"bench", "--deadline", "abc"}), testing::ExitedWithCode(2),
              "^config: --deadline expects a number of seconds > 0, got \"abc\"\n$");
  EXPECT_EXIT(build({"bench", "--top", "x"}), testing::ExitedWithCode(2),
              "^config: --top expects an integer >= 1, got \"x\"\n$");
  EXPECT_EXIT(build({"bench", "--chaos-hang", "0.5"}), testing::ExitedWithCode(2),
              "^config: --chaos-hang needs --deadline[^\n]*\n$");
}

// --- The no-flag path --------------------------------------------------------

TEST(Sweep, NoFlagsBuildsNoServerLedgerOrFlightRing) {
  Argv args({"bench"});
  bench::Sweep sweep(args.argc, args.argv(), {"gcm a", "gcm b"});
  EXPECT_EQ(sweep.runner().telemetry_server(), nullptr);
  EXPECT_EQ(sweep.runner().progress(), nullptr);
  EXPECT_FALSE(sweep.observer().attribution_enabled());
  EXPECT_FALSE(sweep.observer().flight_armed());
  EXPECT_FALSE(sweep.observer().enabled());

  std::atomic<int> untelemetered{0};
  const std::vector<sim::SimResult> results =
      sweep.run(gcm_params, [&](const sim::SimParams& params) {
        if (params.spans == nullptr && params.attribution == nullptr) ++untelemetered;
        return run_gcm(params);
      });
  EXPECT_EQ(untelemetered.load(), 2);
  // Instrumentation is passive: the sweep's results equal a bare run's.
  const std::string bare = sim::serialize_sim_result(run_gcm(gcm_params(0)));
  for (const sim::SimResult& result : results) {
    EXPECT_EQ(sim::serialize_sim_result(result), bare);
  }
}

// --- Per-attempt instrumentation ---------------------------------------------

TEST(Sweep, DeadlineStopsTheSimulation) {
  // No chaos: only the simulator's own cancellation poll can end this point
  // before its ~100 ms of work is done.
  Argv args({"bench", "--deadline", "0.001"});
  bench::Sweep sweep(args.argc, args.argv(), {"venus"});
  const auto settled = sweep.run_settled(venus_params, run_venus);
  ASSERT_EQ(settled.size(), 1u);
  EXPECT_FALSE(settled[0].ok());
  EXPECT_EQ(settled[0].outcome.status, runner::PointStatus::kTimedOut);
  EXPECT_NE(settled[0].outcome.error.find("deadline expired"), std::string::npos)
      << settled[0].outcome.error;
}

TEST(Sweep, RetriedPointBlamesOnlyItsLastAttempt) {
  // One clean run's ledger is the reference.
  obs::AttributionLedger reference;
  sim::SimParams params = gcm_params(0);
  params.attribution = &reference;
  (void)run_gcm(params);
  ASSERT_GT(reference.ops(), 0);

  // Attempt 1 simulates fully, then fails; attempt 2 succeeds.
  Argv args({"bench", "--attribution", temp_path("retry_attr.jsonl"), "--max-attempts", "2"});
  bench::Sweep sweep(args.argc, args.argv(), {"flaky gcm"});
  ASSERT_TRUE(sweep.observer().attribution_enabled());
  std::atomic<int> calls{0};
  const auto settled = sweep.run_settled(gcm_params, [&](const sim::SimParams& p) {
    sim::SimResult result = run_gcm(p);
    if (calls.fetch_add(1) == 0) throw std::runtime_error("failed after simulating");
    return result;
  });
  ASSERT_TRUE(settled[0].ok());
  EXPECT_EQ(settled[0].outcome.attempts, 2);
  EXPECT_EQ(sweep.observer().attribution_summary().total.ops, reference.ops());
}

// --- Flight recorder ----------------------------------------------------------

TEST(SweepObserverFlight, ArmsOnlyForJournaledDeadlineSweeps) {
  const std::string journal = temp_path("unarmed.journal");
  Argv deadline_only({"bench", "--deadline", "1"});  // nowhere to dump
  EXPECT_FALSE(bench::Sweep(deadline_only.argc, deadline_only.argv(), {"p"})
                   .observer()
                   .flight_armed());
  Argv journal_only({"bench", "--journal", journal});  // nothing can time out
  EXPECT_FALSE(
      bench::Sweep(journal_only.argc, journal_only.argv(), {"p"}).observer().flight_armed());
  Argv both({"bench", "--journal", journal, "--deadline", "1"});
  bench::Sweep armed(both.argc, both.argv(), {"p"});
  EXPECT_TRUE(armed.observer().flight_armed());
  EXPECT_EQ(armed.observer().flight_path(), journal + ".flight.json");
  std::remove(journal.c_str());
}

TEST(SweepObserverFlight, DumpsTimedOutPointsWithEventTails) {
  const std::string journal = temp_path("flight.journal");
  const std::string flight_file = journal + ".flight.json";
  std::remove(flight_file.c_str());
  // No Perfetto export: the points get flight-only probes.
  Argv args({"bench", "--journal", journal, "--deadline", "0.5"});
  bench::Sweep sweep(args.argc, args.argv(), {"venus RA only", "venus RA+WB", "les"});
  bench::SweepObserver& observer = sweep.observer();
  ASSERT_TRUE(observer.flight_armed());

  sim::SimParams params = sim::SimParams::paper_main_memory(Bytes{16} * kMB);
  observer.instrument(1, params);
  ASSERT_NE(params.spans, nullptr);
  params.spans->begin(1, 1, "disk.read", Ticks::from_ms(1));
  params.spans->end(1, 1, "disk.read", Ticks::from_ms(4));

  std::vector<runner::PointOutcome> outcomes(3);
  // All-ok outcomes write nothing and report no dump path.
  EXPECT_EQ(observer.dump_flight(outcomes), "");
  EXPECT_FALSE(file_exists(flight_file));

  outcomes[1].status = runner::PointStatus::kTimedOut;
  outcomes[1].attempts = 2;
  outcomes[1].error = "deadline exceeded";
  EXPECT_EQ(observer.dump_flight(outcomes), flight_file);
  ASSERT_TRUE(file_exists(flight_file));
  const std::string dump = slurp(flight_file);
  EXPECT_NE(dump.find("\"craysim_flight\":1"), std::string::npos);
  EXPECT_NE(dump.find("\"deadline_s\":0.5"), std::string::npos);
  EXPECT_NE(dump.find("\"point\":1"), std::string::npos);
  EXPECT_NE(dump.find("\"label\":\"venus RA+WB\""), std::string::npos);
  EXPECT_NE(dump.find("\"status\":\"timeout\""), std::string::npos);
  EXPECT_NE(dump.find("\"attempts\":2"), std::string::npos);
  EXPECT_NE(dump.find("\"name\":\"disk.read\""), std::string::npos);
  EXPECT_EQ(dump.find("\"point\":0"), std::string::npos);  // settled fine, not dumped
  std::remove(flight_file.c_str());
}

}  // namespace
}  // namespace craysim
