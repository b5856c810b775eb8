// Pins the simulator as a function of (params, seed, processes) across the
// configuration space, not only the paper's figures: for every one of the
// seven traced applications and every setting below, the FNV-1a digest of
// serialize_sim_result must equal the value recorded from the per-block
// buffer cache. A rewrite of any simulator layer (cache, disk model, event
// loop) that moves a single byte of any result fails here.
//
// Each point runs two copies of one application (different seeds, separate
// files) so the per-process cap, eviction and flush paths see contention.
// Profiles are cut to at most kMaxCycles iterations of their main loop to keep
// the whole matrix to seconds.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/digest.hpp"
#include "workload/profiles.hpp"

namespace craysim::sim {
namespace {

constexpr std::int32_t kMaxCycles = 10;
constexpr std::size_t kApps = 7;

workload::AppProfile short_profile(workload::AppId app, std::uint64_t seed) {
  workload::AppProfile p = workload::make_profile(app, seed);
  if (p.cycles > kMaxCycles) {
    p.cpu_time = p.cpu_time * kMaxCycles / p.cycles;
    p.cycles = kMaxCycles;
  }
  return p;
}

std::uint64_t digest_point(const SimParams& params, workload::AppId app) {
  Simulator sim(params);
  sim.add_app(short_profile(app, 11));
  sim.add_app(short_profile(app, 22));
  util::Fnv1a fnv;
  fnv.add_text(serialize_sim_result(sim.run()));
  return fnv.value();
}

struct Setting {
  const char* name;
  SimParams (*params)();
  /// Recorded digests, in workload::all_apps() order.
  std::array<std::uint64_t, kApps> digests;
};

void PrintTo(const Setting& setting, std::ostream* os) { *os << setting.name; }

/// The base setting: a 16 MB main-memory cache with read-ahead and
/// write-behind on, one CPU, one unqueued disk. Every other cache row
/// changes one thing about it.
SimParams mm16() { return SimParams::paper_main_memory(Bytes{16} * kMB); }

SimParams with_policy(bool read_ahead, bool write_behind) {
  SimParams p = mm16();
  p.cache.read_ahead = read_ahead;
  p.cache.write_behind = write_behind;
  return p;
}

const Setting kSettings[] = {
    {"no_cache", [] { return SimParams::no_cache(); },
     {0x4835af63c4ef6510, 0x8f3e18583b9818c1, 0x3737c08a7d69f160,
      0x790e8b8d3121d2f8, 0x615d1682f09d854b, 0xe929670f4e2b1732,
      0x6ec2241f6274b205}},
    {"mm16", mm16,
     {0x7c7161783002495c, 0xbe1608a9ead75776, 0x5017590ac09b5d22,
      0x1d6da84f0a46c313, 0x3ded348df00526e6, 0xabf0dc7f30874932,
      0xa343a12752e8bef1}},
    {"ssd256", [] { return SimParams::paper_ssd(Bytes{256} * kMB); },
     {0x57c0d743d539a24e, 0x5089932fd26fa8d7, 0xbd45e4a754bfbe1f,
      0x085057c0beb3be54, 0x7b9f7820c6c84324, 0xedead9a6fd9529db,
      0x57a4f1c295d9bf1b}},
    {"ra0_wb0", [] { return with_policy(false, false); },
     {0x1e6e068296ab42a2, 0xcaeb746790af91ac, 0x43620e3f6b47c047,
      0x4f2e0293849f20ff, 0xe916420f3543cb3f, 0xf630858a3b2c992f,
      0x03ebad94c4c20dd1}},
    {"ra0_wb1", [] { return with_policy(false, true); },
     {0xdd636184f0841328, 0x6af8fbad2753e44e, 0x798acb179eb98767,
      0x84f6b4cc4536d595, 0x783613fe2f8fd3e0, 0xb2bf629960dd4abc,
      0xcdb26556a7fb0e26}},
    {"ra1_wb0", [] { return with_policy(true, false); },
     {0xc6a464aa4ef7754a, 0xf338078b913a6057, 0xb4cb72cb7b8b91ac,
      0x6e495c181a376989, 0x1af12c214c578ca0, 0xdf5eebc728f9252f,
      0x05a2ad0f280e6b1d}},
    {"cpu4",
     [] {
       SimParams p = mm16();
       p.cpu_count = 4;
       return p;
     },
     {0xb1547c5124d0e26c, 0x6398fc8c75208377, 0xa3e3d53cf0af4977,
      0x51b616f6aabb6fc4, 0x241ea87974547200, 0x5ea9f93047e3d80c,
      0xa51f626e4e315b8c}},
    {"disk_queueing",
     [] {
       SimParams p = mm16();
       p.disk_queueing = true;
       return p;
     },
     {0xcabe67412724bf2c, 0x1bf66ae3e44b549b, 0x3eb56a993c187549,
      0x4448f138a1c7f46c, 0x32a286ef4c516755, 0x8d385615b7f0f4c1,
      0xaa790694b41b325a}},
    {"disk_count4",
     [] {
       SimParams p = mm16();
       p.disk_queueing = true;
       p.disk_count = 4;
       return p;
     },
     {0x6ab35405e9c8d104, 0xda9bfa9a5be7287f, 0xd319c8aacdba409a,
      0xe3bd6a485188a105, 0x14e95890604daa83, 0x1f23730711e48f30,
      0x841d63164074e2c0}},
    {"delayed_writes30s",
     [] {
       SimParams p = mm16();
       p.cache.delayed_write_age = Ticks::from_seconds(30);
       return p;
     },
     {0x4d9fab1b75a7024b, 0x850790b30bf8bebf, 0x853f7326b6c5bcc3,
      0x533f72d43fb3ffc3, 0x77fe26c7d41609d8, 0xb7c95779f556e0ee,
      0x7ec94532495a7093}},
    {"per_process_cap4mb",
     [] {
       SimParams p = mm16();
       p.cache.per_process_cap = Bytes{4} * kMB;
       return p;
     },
     {0xee8add7e9f55a568, 0x527be35ee8bc9bd8, 0xb6ddf8a529e0e910,
      0xd859c710dfef4bac, 0xd7c86fed31dc4cfb, 0xe3e92872ddd6c364,
      0x4e4b766bf46d223e}},
    {"block8k",
     [] {
       SimParams p = mm16();
       p.cache.block_size = 8 * kKiB;
       return p;
     },
     {0x8032ca4d1d9f6677, 0x1ad0b273d1228572, 0x9e70abf8d3886f19,
      0x10eb66f895ca2738, 0xfdb67510273763b8, 0xb34cb129751027f9,
      0x6a2b300a2e74470c}},
    {"faults",
     [] {
       SimParams p = mm16();
       p.faults.seed = 17;
       p.faults.disk.transient_error_rate = 0.05;
       p.faults.disk.latency_spike_rate = 0.02;
       return p;
     },
     {0x86ada8254507f23d, 0x32b98882a020ac2e, 0x01ce8afb6b08d4c3,
      0x8de22edf170e1c94, 0x54a61501d0f7f7d9, 0xf8098ab7e06524c2,
      0xe36b7f881b3baaad}},
};

class GoldenMatrixTest : public ::testing::TestWithParam<Setting> {};

TEST_P(GoldenMatrixTest, SerializedResultDigestsMatchRecorded) {
  const Setting& setting = GetParam();
  const std::vector<workload::AppId>& apps = workload::all_apps();
  ASSERT_EQ(apps.size(), kApps);
  std::string actual;
  bool all_match = true;
  for (std::size_t i = 0; i < kApps; ++i) {
    const std::uint64_t got = digest_point(setting.params(), apps[i]);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(got));
    actual += std::string(actual.empty() ? "" : ", ") + hex;
    if (got != setting.digests[i]) {
      all_match = false;
      ADD_FAILURE() << setting.name << "/" << workload::app_name(apps[i]) << ": got " << hex;
    }
  }
  if (!all_match) ADD_FAILURE() << setting.name << " actual digests: {" << actual << "}";
}

INSTANTIATE_TEST_SUITE_P(Settings, GoldenMatrixTest, ::testing::ValuesIn(kSettings),
                         [](const ::testing::TestParamInfo<Setting>& param_info) {
                           return std::string(param_info.param.name);
                         });

}  // namespace
}  // namespace craysim::sim
