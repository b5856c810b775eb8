// Microbenchmarks: buffer-cache planning and flush-path throughput.
#include <benchmark/benchmark.h>

#include "micro_common.hpp"

#include "sim/cache.hpp"

namespace {

using namespace craysim;

sim::CacheParams big_cache() {
  sim::CacheParams p;
  p.capacity = Bytes{256} * kMB;
  p.block_size = 4 * kKiB;
  return p;
}

void BM_CacheSequentialReadHits(benchmark::State& state) {
  sim::CacheMetrics metrics;
  sim::BufferCache cache(big_cache(), metrics);
  // Warm 128 MB of one file.
  const Bytes request = 512 * kKiB;
  for (Bytes off = 0; off < Bytes{128} * kMB; off += request) {
    const auto plan = cache.plan_read(1, 1, off, request, 1000 + static_cast<std::uint64_t>(off));
    for (const auto& run : plan.fetch_runs) cache.fetch_complete(run);
  }
  std::int64_t ops = 0;
  Bytes off = 0;
  for (auto _ : state) {
    const auto plan = cache.plan_read(1, 1, off, request, 1);
    benchmark::DoNotOptimize(plan.full_hit);
    off = (off + request) % (Bytes{128} * kMB);
    ++ops;
  }
  state.SetItemsProcessed(ops);
  state.SetBytesProcessed(ops * request);
}
BENCHMARK(BM_CacheSequentialReadHits);

void BM_CacheWriteBehindAbsorb(benchmark::State& state) {
  sim::CacheMetrics metrics;
  sim::BufferCache cache(big_cache(), metrics);
  const Bytes request = 448 * kKiB;
  std::int64_t ops = 0;
  Bytes off = 0;
  std::uint64_t op = 1;
  for (auto _ : state) {
    const auto plan = cache.plan_write(1, 1, off, request, op++, /*write_behind=*/true);
    benchmark::DoNotOptimize(plan.absorbed);
    off = (off + request) % (Bytes{64} * kMB);
    if (cache.dirty_block_count() > (Bytes{128} * kMB) / (4 * kKiB)) {
      for (const auto& run : cache.collect_flush_batch(1 << 20)) cache.flush_complete(run);
    }
    ++ops;
  }
  state.SetItemsProcessed(ops);
  state.SetBytesProcessed(ops * request);
}
BENCHMARK(BM_CacheWriteBehindAbsorb);

void BM_CacheMissAndEvict(benchmark::State& state) {
  sim::CacheParams params = big_cache();
  params.capacity = Bytes{16} * kMB;  // small: every read evicts
  params.read_ahead = false;
  sim::CacheMetrics metrics;
  sim::BufferCache cache(params, metrics);
  const Bytes request = 256 * kKiB;
  std::int64_t ops = 0;
  Bytes off = 0;
  std::uint64_t op = 1;
  for (auto _ : state) {
    const auto plan = cache.plan_read(1, 1, off, request, op);
    op += plan.fetch_runs.size();
    for (const auto& run : plan.fetch_runs) cache.fetch_complete(run);
    off += request;  // endless streaming
    ++ops;
  }
  state.SetItemsProcessed(ops);
  state.SetBytesProcessed(ops * request);
}
BENCHMARK(BM_CacheMissAndEvict);

void BM_CacheCappedEvict(benchmark::State& state) {
  // Two processes share a small cache, each held to a quarter of it: once
  // a process reaches its allowance, every block it inserts evicts its own
  // oldest clean block (the Section 6.2 per-process cap).
  sim::CacheParams params = big_cache();
  params.capacity = Bytes{8} * kMB;
  params.per_process_cap = Bytes{2} * kMB;
  params.read_ahead = false;
  sim::CacheMetrics metrics;
  sim::BufferCache cache(params, metrics);
  const Bytes request = 64 * kKiB;
  Bytes offsets[2] = {0, 0};
  std::int64_t ops = 0;
  std::uint64_t op = 1;
  for (auto _ : state) {
    const auto pid = static_cast<std::uint32_t>(1 + (ops & 1));
    Bytes& off = offsets[pid - 1];
    const auto plan = cache.plan_read(pid, pid, off, request, op);
    benchmark::DoNotOptimize(plan.fetch_runs.data());
    op += plan.fetch_runs.size();
    for (const auto& run : plan.fetch_runs) cache.fetch_complete(run);
    off += request;  // each process streams its own file
    ++ops;
  }
  state.SetItemsProcessed(ops);
  state.SetBytesProcessed(ops * request);
}
BENCHMARK(BM_CacheCappedEvict);

void BM_CacheSmallRandomReads(benchmark::State& state) {
  // One-block reads at random blocks of a file twice the cache's size: every
  // extent is a single block, the worst case for extent bookkeeping.
  sim::CacheParams params = big_cache();
  params.capacity = Bytes{16} * kMB;
  params.read_ahead = false;
  sim::CacheMetrics metrics;
  sim::BufferCache cache(params, metrics);
  const Bytes bs = params.block_size;
  const auto file_blocks = static_cast<std::uint64_t>(2 * params.capacity / bs);
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  std::int64_t ops = 0;
  std::uint64_t op = 1;
  for (auto _ : state) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const auto block = static_cast<Bytes>((rng >> 33) % file_blocks);
    const auto plan = cache.plan_read(1, 1, block * bs, bs, op);
    benchmark::DoNotOptimize(plan.full_hit);
    op += plan.fetch_runs.size();
    for (const auto& run : plan.fetch_runs) cache.fetch_complete(run);
    ++ops;
  }
  state.SetItemsProcessed(ops);
  state.SetBytesProcessed(ops * bs);
}
BENCHMARK(BM_CacheSmallRandomReads);

void BM_FlushBatchCollection(benchmark::State& state) {
  sim::CacheMetrics metrics;
  sim::BufferCache cache(big_cache(), metrics);
  std::uint64_t op = 1;
  std::int64_t blocks = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (Bytes off = 0; off < Bytes{64} * kMB; off += 512 * kKiB) {
      (void)cache.plan_write(1, 1, off, 512 * kKiB, op++, true);
    }
    state.ResumeTiming();
    const auto runs = cache.collect_flush_batch(1 << 20, 64);
    for (const auto& run : runs) {
      blocks += run.count;
      cache.flush_complete(run);
    }
  }
  state.SetItemsProcessed(blocks);
}
BENCHMARK(BM_FlushBatchCollection);

}  // namespace

int main(int argc, char** argv) {
  return craysim::bench::run_micro_main(argc, argv, "cache");
}
