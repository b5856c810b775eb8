// Latency attribution tests: the conservation contract (components sum to
// measured latency; every ledger scope closes over the same grand totals;
// miss + space reproduce the simulator's blocked time; the disk breakdown
// reproduces DeviceMetrics exactly), the single-writer contract (a second
// simulator on a held ledger is refused; a concurrent reader sees monotonic
// totals and changes nothing), the zero-cost off path (bit-identical
// serialized results and an unchanged metrics schema when
// SimParams::attribution is unset), the journal round trip, and the pinned
// JSONL / metric-name schemas consumed by tools/validate_telemetry.py and
// dashboards. If a golden diff here is intentional, update the goldens,
// docs/OBSERVABILITY.md, and the validator together.
#include "obs/attr.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace craysim {
namespace {

class ScriptedSource final : public workload::RequestSource {
 public:
  explicit ScriptedSource(std::vector<workload::Request> requests)
      : requests_(std::move(requests)) {}

  std::optional<workload::Request> next() override {
    if (pos_ >= requests_.size()) return std::nullopt;
    return requests_[pos_++];
  }
  Ticks final_compute() const override { return Ticks::zero(); }

 private:
  std::vector<workload::Request> requests_;
  std::size_t pos_ = 0;
};

workload::Request req(double compute_s, std::uint32_t file, Bytes offset, Bytes length,
                      bool write, bool async = false) {
  workload::Request r;
  r.compute = Ticks::from_seconds(compute_s);
  r.file = file;
  r.offset = offset;
  r.length = length;
  r.write = write;
  r.async = async;
  return r;
}

std::int64_t comp_sum(const obs::AttrEntry& entry) {
  return std::accumulate(entry.comp.begin(), entry.comp.end(), std::int64_t{0});
}

std::int64_t scope_ticks(const std::vector<obs::AttrEntry>& entries) {
  std::int64_t sum = 0;
  for (const auto& entry : entries) sum += entry.total_ticks;
  return sum;
}

std::int64_t scope_ops(const std::vector<obs::AttrEntry>& entries) {
  std::int64_t sum = 0;
  for (const auto& entry : entries) sum += entry.ops;
  return sum;
}

/// The full conservation contract between a result's attribution summary and
/// the rest of the simulator's accounting.
void expect_conserved(const sim::SimResult& result) {
  const obs::AttrSummary& attr = result.attr;
  ASSERT_TRUE(attr.enabled);
  ASSERT_GT(attr.total.ops, 0);

  // Components telescope to the measured latency.
  EXPECT_EQ(comp_sum(attr.total), attr.total.total_ticks);
  for (const auto& entry : attr.files) EXPECT_EQ(comp_sum(entry), entry.total_ticks);
  for (const auto& entry : attr.procs) EXPECT_EQ(comp_sum(entry), entry.total_ticks);

  // Every scope closes over the same grand totals.
  for (const auto* scope : {&attr.files, &attr.procs, &attr.phases, &attr.sizes}) {
    EXPECT_EQ(scope_ticks(*scope), attr.total.total_ticks);
    EXPECT_EQ(scope_ops(*scope), attr.total.ops);
  }

  // The latency histogram counts every op exactly once.
  EXPECT_EQ(std::accumulate(attr.latency.begin(), attr.latency.end(), std::int64_t{0}),
            attr.total.ops);

  // Blocked-time identity: the miss + space components are the same signed
  // sums the simulator accumulates into per-process blocked time.
  std::int64_t blocked = 0;
  for (const auto& proc : result.processes) blocked += proc.blocked_time.count();
  EXPECT_EQ(attr.component(obs::AttrComponent::kMiss) +
                attr.component(obs::AttrComponent::kSpace),
            blocked);

  // Disk identity: queue reproduces queue_wait_time; the service components
  // reproduce busy_time; op counts and bytes match DeviceMetrics.
  std::int64_t queue = 0;
  std::int64_t service = 0;
  std::int64_t disk_ops = 0;
  std::int64_t disk_bytes = 0;
  for (const auto& disk : attr.disks) {
    const std::int64_t q = disk.comp[static_cast<std::size_t>(obs::AttrDiskComponent::kQueue)];
    queue += q;
    service += disk.total_ticks - q;
    disk_ops += disk.ops;
    disk_bytes += disk.bytes;
    EXPECT_EQ(std::accumulate(disk.comp.begin(), disk.comp.end(), std::int64_t{0}),
              disk.total_ticks);
  }
  EXPECT_EQ(queue, result.disk.queue_wait_time.count());
  EXPECT_EQ(service, result.disk.busy_time.count());
  EXPECT_EQ(disk_ops, result.disk.read_ops + result.disk.write_ops);
  EXPECT_EQ(disk_bytes, result.disk.bytes_read + result.disk.bytes_written);
}

sim::SimResult run_app_attributed(workload::AppId app, obs::AttributionLedger& ledger,
                                  Bytes cache = Bytes{16} * kMB) {
  sim::SimParams params = sim::SimParams::paper_main_memory(cache);
  params.attribution = &ledger;
  sim::Simulator simulator(params);
  simulator.add_app(workload::make_profile(app));
  return simulator.run();
}

TEST(AttrConservation, VenusProfile) {
  obs::AttributionLedger ledger;
  const sim::SimResult result = run_app_attributed(workload::AppId::kVenus, ledger);
  expect_conserved(result);
  // The ledger's own snapshot is what the result carried.
  EXPECT_EQ(ledger.summarize(), result.attr);
  // venus is the paper's heavy writer: write ops and absorption must show.
  EXPECT_GT(result.attr.total.write_ops, 0);
  EXPECT_GT(result.attr.component(obs::AttrComponent::kAbsorb), 0);
}

TEST(AttrConservation, GcmProfile) {
  obs::AttributionLedger ledger;
  const sim::SimResult result = run_app_attributed(workload::AppId::kGcm, ledger);
  expect_conserved(result);
  EXPECT_EQ(result.attr.total.ops,
            result.cache.read_requests + result.cache.write_requests);
}

TEST(AttrConservation, LesProfileWithAsyncIo) {
  obs::AttributionLedger ledger;
  const sim::SimResult result = run_app_attributed(workload::AppId::kLes, ledger);
  expect_conserved(result);
}

TEST(AttrConservation, SpaceWaitsAttributed) {
  // A tiny cache forces space waits (same shape as the edge-case test): the
  // kSpace component must surface and the blocked-time identity must hold
  // through the wait + retry path.
  std::vector<workload::Request> requests;
  for (std::int64_t i = 0; i < 64; ++i) {
    requests.push_back(req(0.0, 1, Bytes{i} * 512 * kKiB, 512 * kKiB, /*write=*/true));
  }
  sim::SimParams params = sim::SimParams::paper_ssd(Bytes{2} * kMB);
  obs::AttributionLedger ledger;
  params.attribution = &ledger;
  sim::Simulator simulator(params);
  simulator.add_process("big", std::make_unique<ScriptedSource>(std::move(requests)));
  const sim::SimResult result = simulator.run();
  ASSERT_GT(result.cache.space_waits, 0);
  expect_conserved(result);
  EXPECT_GT(result.attr.component(obs::AttrComponent::kSpace), 0);
  EXPECT_GT(result.attr.component(obs::AttrComponent::kSched), 0);
}

TEST(AttrConservation, NoCacheBypassSyncAndAsync) {
  sim::SimParams params = sim::SimParams::no_cache();
  obs::AttributionLedger ledger;
  params.attribution = &ledger;
  sim::Simulator simulator(params);
  simulator.add_process("bypass", std::make_unique<ScriptedSource>(std::vector{
                            req(0.01, 1, 0, 256 * kKiB, /*write=*/false),
                            req(0.01, 1, 256 * kKiB, 256 * kKiB, /*write=*/true),
                            req(0.01, 2, 0, 128 * kKiB, /*write=*/true, /*async=*/true),
                            req(0.10, 2, 128 * kKiB, 128 * kKiB, /*write=*/false),
                        }));
  const sim::SimResult result = simulator.run();
  expect_conserved(result);
  ASSERT_EQ(result.attr.disks.size(), 1u);
  EXPECT_EQ(result.attr.disks[0].kind, "bypass");
  // The async write returned at submit time: its op total is fs_call only.
  EXPECT_EQ(result.attr.total.ops, 4);
}

TEST(AttrConservation, LesBypassingASmallCache) {
  // Most of les' reads are async and larger than a 256 KiB cache, so they
  // bypass it. Each must close its record at submit like any async request;
  // left open, the next request's record absorbed it (11,571 ops for 22,272
  // requests).
  obs::AttributionLedger ledger;
  const sim::SimResult result =
      run_app_attributed(workload::AppId::kLes, ledger, Bytes{256} * kKiB);
  expect_conserved(result);
  std::int64_t requests = 0;
  for (const auto& proc : result.processes) requests += proc.io_count;
  EXPECT_EQ(result.attr.total.ops, requests);
  EXPECT_GT(result.disk.read_ops, 0);
}

TEST(AttrPhases, ComputeGapStartsNewEpoch) {
  // Requests separated by >= kAttrPhaseGap of pure compute land in distinct
  // burst epochs; back-to-back requests share one.
  sim::SimParams params = sim::SimParams::paper_main_memory(Bytes{16} * kMB);
  obs::AttributionLedger ledger;
  params.attribution = &ledger;
  sim::Simulator simulator(params);
  simulator.add_process("bursty", std::make_unique<ScriptedSource>(std::vector{
                            req(0.001, 1, 0, 64 * kKiB, true),
                            req(0.001, 1, 64 * kKiB, 64 * kKiB, true),  // same burst
                            req(0.060, 1, 128 * kKiB, 64 * kKiB, true),  // new epoch
                            req(0.060, 1, 192 * kKiB, 64 * kKiB, true),  // new epoch
                        }));
  const sim::SimResult result = simulator.run();
  expect_conserved(result);
  ASSERT_EQ(result.attr.phases.size(), 3u);
  EXPECT_EQ(result.attr.phases[0].key, "phase0");
  EXPECT_EQ(result.attr.phases[0].ops, 2);
  EXPECT_EQ(result.attr.phases[1].key, "phase1");
  EXPECT_EQ(result.attr.phases[2].key, "phase2");
}

TEST(AttrLedger, FileOverflowPoolsIntoOtherRow) {
  obs::AttributionLedger ledger;
  const std::size_t files = obs::AttributionLedger::kFileSlots + 36;
  for (std::uint64_t i = 0; i < files; ++i) {
    obs::AttributionLedger::OpRecord op;
    op.pid = 1;
    op.file_key = (std::uint64_t{1} << 20) | i;
    op.bytes = 1024;
    op.total = Ticks(10);
    op.comp[static_cast<std::size_t>(obs::AttrComponent::kFsCall)] = 10;
    ledger.record_op(op);
  }
  const obs::AttrSummary summary = ledger.summarize();
  // 64 named rows plus the overflow catch-all; nothing lost.
  ASSERT_EQ(summary.files.size(), obs::AttributionLedger::kFileSlots + 1);
  bool has_other = false;
  for (const auto& entry : summary.files) has_other |= entry.key == "other";
  EXPECT_TRUE(has_other);
  EXPECT_EQ(scope_ops(summary.files), static_cast<std::int64_t>(files));
  EXPECT_EQ(scope_ticks(summary.files), summary.total.total_ticks);
}

// ---- Single writer ---------------------------------------------------------

sim::SimResult run_gcm_no_cache(obs::AttributionLedger& ledger,
                                const util::CancelToken* cancel = nullptr) {
  sim::SimParams params = sim::SimParams::no_cache();
  params.attribution = &ledger;
  params.cancel = cancel;
  sim::Simulator simulator(params);
  simulator.add_app(workload::make_profile(workload::AppId::kGcm));
  return simulator.run();
}

/// Issues one read; before that, its first next() runs a second simulator on
/// the same ledger and keeps the error that run threw.
class NestedRunSource final : public workload::RequestSource {
 public:
  explicit NestedRunSource(obs::AttributionLedger& ledger) : ledger_(ledger) {}

  std::optional<workload::Request> next() override {
    if (!first_) return std::nullopt;
    first_ = false;
    sim::SimParams params = sim::SimParams::no_cache();
    params.attribution = &ledger_;
    sim::Simulator nested(params);
    nested.add_process("nested", std::make_unique<ScriptedSource>(std::vector{
                                     req(0.0, 1, 0, 4096, /*write=*/false)}));
    try {
      (void)nested.run();
    } catch (const ConfigError& error) {
      nested_error = error.what();
    }
    return req(0.0, 1, 0, 4096, /*write=*/false);
  }

  std::string nested_error;

 private:
  obs::AttributionLedger& ledger_;
  bool first_ = true;
};

TEST(AttrLedger, SecondWriterIsRefused) {
  obs::AttributionLedger ledger;
  sim::SimParams params = sim::SimParams::no_cache();
  params.attribution = &ledger;
  sim::Simulator outer(params);
  auto source = std::make_unique<NestedRunSource>(ledger);
  const NestedRunSource& nested = *source;
  outer.add_process("outer", std::move(source));
  const sim::SimResult result = outer.run();
  EXPECT_NE(nested.nested_error.find("one writer at a time"), std::string::npos)
      << "nested run saw: '" << nested.nested_error << "'";
  // Only the outer run wrote: its single op.
  EXPECT_EQ(result.attr.total.ops, 1);

  // The claim is given back on every exit, a throwing run's included.
  util::CancelToken token;
  token.request_cancel();
  EXPECT_THROW((void)run_gcm_no_cache(ledger, &token), CancelledError);
  ledger.reset();
  obs::AttributionLedger fresh;
  EXPECT_EQ(run_gcm_no_cache(ledger).attr, run_gcm_no_cache(fresh).attr);
}

// One writer and one concurrent reader: every snapshot's total op count is
// at least the one before it, and reading changes nothing the writer
// records. CI runs this under TSan, which polices the writer's relaxed
// load/store pairs against summarize()'s loads.
TEST(AttrLedger, SummarizeDuringARunIsMonotonicAndChangesNothing) {
  obs::AttributionLedger ledger;
  std::vector<std::int64_t> seen;
  std::jthread reader([&](const std::stop_token& stop) {
    do {
      seen.push_back(ledger.summarize().total.ops);
    } while (!stop.stop_requested());
  });
  const sim::SimResult result = run_gcm_no_cache(ledger);
  reader.request_stop();
  reader.join();

  ASSERT_FALSE(seen.empty());
  for (std::size_t i = 1; i < seen.size(); ++i) {
    ASSERT_LE(seen[i - 1], seen[i]) << "snapshot " << i << " of " << seen.size();
  }
  EXPECT_LE(seen.back(), result.attr.total.ops);
  EXPECT_EQ(ledger.summarize(), result.attr);
  obs::AttributionLedger unread;
  EXPECT_EQ(run_gcm_no_cache(unread).attr, result.attr);
}

// ---- Off-path bit-identity -------------------------------------------------

TEST(AttrOffPath, ResultsBitIdenticalAndSchemaUnchanged) {
  const auto run_gcm = [](obs::AttributionLedger* ledger) {
    sim::SimParams params = sim::SimParams::paper_main_memory(Bytes{16} * kMB);
    params.attribution = ledger;
    sim::Simulator simulator(params);
    simulator.add_app(workload::make_profile(workload::AppId::kGcm));
    return simulator.run();
  };
  const sim::SimResult off = run_gcm(nullptr);
  obs::AttributionLedger ledger;
  sim::SimResult on = run_gcm(&ledger);

  ASSERT_FALSE(off.attr.enabled);
  ASSERT_TRUE(on.attr.enabled);
  // Stripping the attribution summary must leave byte-identical serialized
  // results: attribution observed the run without perturbing it.
  on.attr = obs::AttrSummary{};
  EXPECT_EQ(sim::serialize_sim_result(on), sim::serialize_sim_result(off));

  // The metrics JSONL schema with attribution off is exactly the legacy
  // name set (no sim.attr.* family appears).
  obs::MetricsRegistry registry;
  off.publish_metrics(registry);
  for (const std::string& name : registry.metric_names()) {
    EXPECT_EQ(name.find("sim.attr"), std::string::npos) << name;
  }
}

TEST(AttrOffPath, DisabledSummaryAddsNothingToText) {
  sim::SimParams params = sim::SimParams::paper_main_memory(Bytes{16} * kMB);
  sim::Simulator simulator(params);
  simulator.add_app(workload::make_profile(workload::AppId::kGcm));
  const sim::SimResult result = simulator.run();
  EXPECT_EQ(result.summary().find("attribution"), std::string::npos);
}

// ---- Serialization ---------------------------------------------------------

TEST(AttrSerialize, JournalRoundTripIsLossless) {
  obs::AttributionLedger ledger;
  const sim::SimResult result = run_app_attributed(workload::AppId::kVenus, ledger);
  const sim::SimResult parsed = sim::parse_sim_result(sim::serialize_sim_result(result));
  EXPECT_EQ(parsed.attr, result.attr);
}

TEST(AttrSerialize, LegacyPayloadWithoutAttrSectionStillParses) {
  sim::SimParams params = sim::SimParams::paper_main_memory(Bytes{16} * kMB);
  sim::Simulator simulator(params);
  simulator.add_app(workload::make_profile(workload::AppId::kGcm));
  const sim::SimResult result = simulator.run();
  const sim::SimResult parsed = sim::parse_sim_result(sim::serialize_sim_result(result));
  EXPECT_FALSE(parsed.attr.enabled);
  EXPECT_EQ(parsed.total_wall, result.total_wall);
}

// ---- Schema goldens --------------------------------------------------------

/// One op and one disk transfer with hand-picked components, so every JSONL
/// field is a known constant.
obs::AttrSummary tiny_summary() {
  obs::AttributionLedger ledger;
  ledger.note_process(1, "app");
  obs::AttributionLedger::OpRecord op;
  op.pid = 1;
  op.file_key = (std::uint64_t{1} << 20) | 1;
  op.phase = 0;
  op.bytes = 4096;
  op.write = false;
  op.total = Ticks(100);  // 1000 us -> le_1000 latency bucket
  op.comp[static_cast<std::size_t>(obs::AttrComponent::kFsCall)] = 10;
  op.comp[static_cast<std::size_t>(obs::AttrComponent::kHit)] = 90;
  ledger.record_op(op);
  obs::AttrDiskBreakdown disk;
  disk.overhead = Ticks(1);
  disk.seek = Ticks(2);
  disk.rotation = Ticks(3);
  disk.transfer = Ticks(4);
  ledger.record_disk(obs::AttrDiskKind::kFetch, 4096, disk);
  return ledger.summarize();
}

TEST(AttrGolden, JsonlSchema) {
  std::ostringstream out;
  obs::write_attr_jsonl(out, tiny_summary(), "pt");
  const std::string components =
      "\"components\":{\"fs_call\":100,\"hit\":900,\"readahead\":0,\"absorb\":0,"
      "\"miss\":0,\"space\":0,\"interrupt\":0,\"sched\":0}";
  const std::string entry =
      "\"ops\":1,\"write_ops\":0,\"bytes\":4096,\"io_time_us\":1000," + components;
  const std::string expected =
      "{\"type\":\"total\",\"point\":\"pt\"," + entry + "}\n" +
      "{\"type\":\"file\",\"point\":\"pt\",\"key\":\"p1:f1\"," + entry + "}\n" +
      "{\"type\":\"proc\",\"point\":\"pt\",\"key\":\"app\"," + entry + "}\n" +
      "{\"type\":\"phase\",\"point\":\"pt\",\"key\":\"phase0\"," + entry + "}\n" +
      "{\"type\":\"size\",\"point\":\"pt\",\"key\":\"le_4KiB\"," + entry + "}\n" +
      "{\"type\":\"disk\",\"point\":\"pt\",\"kind\":\"fetch\",\"ops\":1,\"bytes\":4096,"
      "\"total_us\":100,\"components\":{\"queue\":0,\"overhead\":10,\"seek\":20,"
      "\"rotation\":30,\"transfer\":40,\"fault\":0}}\n"
      "{\"type\":\"latency_hist\",\"point\":\"pt\",\"ops\":1,\"buckets\":{\"le_10\":0,"
      "\"le_20\":0,\"le_50\":0,\"le_100\":0,\"le_200\":0,\"le_500\":0,\"le_1000\":1,"
      "\"le_2000\":0,\"le_5000\":0,\"le_10000\":0,\"le_20000\":0,\"le_50000\":0,"
      "\"le_100000\":0,\"le_200000\":0,\"le_500000\":0,\"le_1000000\":0,\"le_inf\":0}}\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(AttrGolden, MetricNames) {
  obs::MetricsRegistry registry;
  obs::publish_attr_metrics(tiny_summary(), registry);

  std::vector<std::string> names = registry.metric_names();
  // 3 counters + io_time_s + 8 component gauges + 17 latency buckets
  // + 8 components x 6 coarse histogram buckets.
  EXPECT_EQ(names.size(), 3u + 1u + 8u + 17u + 48u);

  std::string flat;
  std::string hist;
  for (const std::string& name : names) {
    (name.find(".hist.") != std::string::npos ? hist : flat) += name + "\n";
  }
  EXPECT_EQ(flat,
            "sim.attr.absorb_s\n"
            "sim.attr.bytes\n"
            "sim.attr.fs_call_s\n"
            "sim.attr.hit_s\n"
            "sim.attr.interrupt_s\n"
            "sim.attr.io_time_s\n"
            "sim.attr.latency_us.le_10\n"
            "sim.attr.latency_us.le_100\n"
            "sim.attr.latency_us.le_1000\n"
            "sim.attr.latency_us.le_10000\n"
            "sim.attr.latency_us.le_100000\n"
            "sim.attr.latency_us.le_1000000\n"
            "sim.attr.latency_us.le_20\n"
            "sim.attr.latency_us.le_200\n"
            "sim.attr.latency_us.le_2000\n"
            "sim.attr.latency_us.le_20000\n"
            "sim.attr.latency_us.le_200000\n"
            "sim.attr.latency_us.le_50\n"
            "sim.attr.latency_us.le_500\n"
            "sim.attr.latency_us.le_5000\n"
            "sim.attr.latency_us.le_50000\n"
            "sim.attr.latency_us.le_500000\n"
            "sim.attr.latency_us.le_inf\n"
            "sim.attr.miss_s\n"
            "sim.attr.ops\n"
            "sim.attr.readahead_s\n"
            "sim.attr.sched_s\n"
            "sim.attr.space_s\n"
            "sim.attr.write_ops\n");
  // The coarse per-component histograms: every component family carries the
  // same six-decade ladder.
  for (const char* comp :
       {"absorb", "fs_call", "hit", "interrupt", "miss", "readahead", "sched", "space"}) {
    for (const char* bucket :
         {"le_100us", "le_1ms", "le_10ms", "le_100ms", "le_1s", "le_inf"}) {
      EXPECT_NE(hist.find("sim.attr.hist." + std::string(comp) + "." + bucket),
                std::string::npos)
          << comp << " " << bucket;
    }
  }
}

TEST(AttrGolden, SummaryTextCarriesAttributionLine) {
  obs::AttributionLedger ledger;
  const sim::SimResult result = run_app_attributed(workload::AppId::kGcm, ledger);
  const std::string text = result.summary();
  EXPECT_NE(text.find("attribution: "), std::string::npos);
  EXPECT_NE(text.find("miss "), std::string::npos);
}

TEST(AttrMerge, FoldsPointsByKey) {
  obs::AttributionLedger a;
  obs::AttributionLedger b;
  const sim::SimResult ra = run_app_attributed(workload::AppId::kGcm, a);
  const sim::SimResult rb = run_app_attributed(workload::AppId::kGcm, b);
  obs::AttrSummary merged;
  obs::merge_attr_summary(merged, ra.attr);
  obs::merge_attr_summary(merged, rb.attr);
  EXPECT_EQ(merged.total.ops, 2 * ra.attr.total.ops);
  EXPECT_EQ(merged.total.total_ticks, 2 * ra.attr.total.total_ticks);
  // Identical runs share every key, so row counts don't grow.
  EXPECT_EQ(merged.files.size(), ra.attr.files.size());
  EXPECT_EQ(merged.procs.size(), ra.attr.procs.size());
  for (const auto& entry : merged.files) EXPECT_EQ(comp_sum(entry), entry.total_ticks);
}

}  // namespace
}  // namespace craysim
