// Lockstep check of the extent-granular BufferCache against ReferenceCache,
// the per-block implementation it replaced (tests/reference_cache.*).
//
// Randomized scripts drive both caches with identical operations, and after
// every operation every observable must agree: each plan field, every
// CacheMetrics counter, the dirty/clean/resident block counts,
// owned_blocks() of every pid, and over_watermark(). BufferCache::audit()
// checks the extent cache's own bookkeeping after every operation too.
// Capacities of 4–64 blocks keep self-eviction (a request evicting blocks it
// already counted as present), cap pressure and space waits common; a
// 2,048-block cache under one-block requests makes lookups walk past the
// anchor stride. Completions carry the hint their plan set, a stale hint
// from an earlier run, or an arbitrary slot number: a hint may change how a
// lookup is made, never what it finds.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "reference_cache.hpp"
#include "sim/cache.hpp"
#include "util/error.hpp"

namespace craysim::sim {
namespace {

constexpr std::uint32_t kPids = 4;  // pid 0 included: it never prefers its own blocks

std::string show(std::int64_t value) { return std::to_string(value); }

std::string show(const BlockRun& r) {
  return "{" + std::to_string(r.file) + "," + std::to_string(r.first_block) + "," +
         std::to_string(r.count) + "}";
}

std::string show(const std::optional<BlockRun>& run) { return run ? show(*run) : "-"; }

std::string show(const std::vector<BlockRun>& runs) {
  std::string s = "[";
  for (const BlockRun& r : runs) s += show(r);
  return s + "]";
}

std::string show(const BufferCache::ReadPlan& p) {
  std::string s = "read wait=" + show(p.space_wait) + " bypass=" + show(p.bypass) +
                  " hit=" + show(p.full_hit) + " ra_hit=" + show(p.readahead_hit) +
                  " fetch=" + show(p.fetch_runs) + " join=[";
  for (const std::uint64_t op : p.join_ops) s += std::to_string(op) + ",";
  return s + "] ra=" + show(p.readahead);
}

std::string show(const BufferCache::WritePlan& p) {
  return "write wait=" + show(p.space_wait) + " bypass=" + show(p.bypass) +
         " absorbed=" + show(p.absorbed) + " through=" + show(p.writethrough_runs);
}

template <typename Cache>
std::string observe(const Cache& cache, const CacheMetrics& m) {
  std::string s = "dirty=" + show(cache.dirty_block_count()) +
                  " clean=" + show(cache.clean_block_count()) +
                  " resident=" + show(cache.resident_blocks()) +
                  " watermark=" + show(cache.over_watermark()) + " owned=";
  for (std::uint32_t pid = 0; pid < kPids; ++pid) s += show(cache.owned_blocks(pid)) + ",";
  for (const std::int64_t v :
       {m.read_requests, m.read_full_hits, m.read_partial_hits, m.read_misses, m.write_requests,
        m.write_absorbed, m.readahead_issued, m.readahead_used_blocks,
        m.readahead_fetched_blocks, m.evictions, m.space_waits, m.writes_cancelled_blocks}) {
    s += " " + show(v);
  }
  return s;
}

/// The two caches under one configuration, each with its own metrics.
struct Lockstep {
  explicit Lockstep(const CacheParams& params)
      : ref(params, ref_metrics), ext(params, ext_metrics) {}

  CacheMetrics ref_metrics;
  CacheMetrics ext_metrics;
  ReferenceCache ref;
  BufferCache ext;
};

/// Applies `op` to both caches and expects the same result or the same
/// craysim::Error. Returns the extent cache's result, whose runs carry its
/// hints, or nullopt when either threw (the caches' state is unspecified
/// after an error, so the script starts afresh).
template <typename Op>
auto both(Lockstep& pair, Op op, const std::string& where)
    -> std::optional<decltype(op(pair.ext))> {
  using Result = decltype(op(pair.ext));
  std::optional<Result> want;
  std::optional<Result> got;
  std::string want_error;
  std::string got_error;
  try {
    want = op(pair.ref);
  } catch (const Error& e) {
    want_error = e.what();
  }
  try {
    got = op(pair.ext);
  } catch (const Error& e) {
    got_error = e.what();
  }
  EXPECT_EQ(got_error, want_error) << where;
  if (!want || !got) return std::nullopt;
  EXPECT_EQ(show(*got), show(*want)) << where;
  return got;
}

struct Rng {
  std::uint64_t state;
  std::uint64_t operator()(std::uint64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % bound;
  }
  std::int64_t signed_below(std::int64_t bound) {
    return static_cast<std::int64_t>((*this)(static_cast<std::uint64_t>(bound)));
  }
};

/// What the scripts exercised, summed over all of them.
struct Coverage {
  std::int64_t evictions = 0;
  std::int64_t space_waits = 0;
  std::int64_t bypasses = 0;
  std::int64_t joins = 0;
  std::int64_t readahead_used = 0;
  std::int64_t cancelled = 0;
  std::int64_t errors = 0;
  std::uint64_t anchored = 0;   ///< extents the extent caches' walks anchored
  std::uint64_t unanchored = 0; ///< anchored extents merged away or evicted
};

/// The caches and requests a script draws.
struct Shape {
  std::int64_t min_blocks;  ///< capacity in blocks, drawn from [min, max]
  std::int64_t max_blocks;
  bool one_block;           ///< every request is one aligned block
};
constexpr Shape kSmallCaches{4, 64, false};
constexpr Shape kLargeCache{2048, 2048, true};

void run_script(std::uint64_t seed, int steps, Coverage& coverage, const Shape& shape) {
  Rng rng{seed * 0x9e3779b97f4a7c15ull + 1};
  Rng hint_rng{seed * 0x2545f4914f6cdd1dull + 7};  // apart, so `rng` draws the same script
  CacheParams params;
  params.block_size = rng(2) != 0 ? 8 * kKiB : 4 * kKiB;
  const std::int64_t blocks =
      shape.min_blocks + rng.signed_below(shape.max_blocks - shape.min_blocks + 1);
  params.capacity = blocks * params.block_size;
  params.read_ahead = rng(2) != 0;
  params.per_process_cap = rng(2) != 0 ? 0 : (1 + rng.signed_below(blocks)) * params.block_size;
  params.dirty_high_watermark = 0.25 * static_cast<double>(1 + rng(3));
  auto pair = std::make_unique<Lockstep>(params);

  const std::string config = "seed " + std::to_string(seed) + " (" + std::to_string(blocks) +
                             " blocks of " + std::to_string(params.block_size) + " B, cap " +
                             std::to_string(params.per_process_cap / params.block_size) +
                             ", read-ahead " + show(params.read_ahead) + ")";
  const Bytes half = params.block_size / 2;
  std::uint64_t op = 1;
  std::vector<BlockRun> fetches;  // in flight
  std::vector<BlockRun> flushes;
  std::vector<std::uint32_t> hints;  // every hint a plan has set
  auto track = [&](std::vector<BlockRun>& pending, const auto& runs) {
    for (const BlockRun& run : runs) {
      pending.push_back(run);
      hints.push_back(run.hint);
    }
  };
  Bytes last_end[4] = {};  // per file: where the last read ended
  Ticks now = Ticks::zero();
  auto tally = [&] {
    coverage.evictions += pair->ref_metrics.evictions;
    coverage.readahead_used += pair->ref_metrics.readahead_used_blocks;
    coverage.cancelled += pair->ref_metrics.writes_cancelled_blocks;
    coverage.anchored += pair->ext.index_ops().inserts;
    coverage.unanchored += pair->ext.index_ops().erases;
  };
  // After an error both caches are in an unspecified state: start afresh.
  auto restart = [&] {
    ++coverage.errors;
    tally();
    pair = std::make_unique<Lockstep>(params);
    fetches.clear();
    flushes.clear();
  };

  for (int step = 0; step < steps; ++step) {
    const std::string where = config + ", step " + std::to_string(step);
    now += Ticks(rng.signed_below(20) + 1);
    const auto pid = static_cast<std::uint32_t>(rng(kPids));
    const auto file = static_cast<std::uint32_t>(1 + rng(3));
    // A third of the requests continue the file sequentially (read-ahead).
    const Bytes offset = rng(3) == 0       ? last_end[file]
                         : shape.one_block ? rng.signed_below(2 * blocks) * params.block_size
                                           : rng.signed_below(4 * blocks) * half;
    // Mostly short requests, sometimes up to past the whole cache (bypass).
    const Bytes length =
        shape.one_block
            ? params.block_size
            : (rng(4) == 0 ? rng.signed_below(2 * blocks + 4) : rng.signed_below(9)) * half;
    const std::uint64_t kind = rng(20);

    if (kind < 7) {
      last_end[file] = offset + length;
      const auto plan = both(
          *pair, [&](auto& c) { return c.plan_read(pid, file, offset, length, op); }, where);
      if (!plan) {
        restart();
        continue;
      }
      coverage.space_waits += plan->space_wait ? 1 : 0;
      coverage.bypasses += plan->bypass ? 1 : 0;
      coverage.joins += static_cast<std::int64_t>(plan->join_ops.size());
      if (!plan->space_wait && !plan->bypass) {
        op += plan->fetch_runs.size();
        track(fetches, plan->fetch_runs);
        if (plan->readahead && rng(4) != 0) {
          const BlockRun candidate = *plan->readahead;
          const auto issued = both(
              *pair, [&](auto& c) { return c.try_issue_readahead(pid, candidate, op); }, where);
          if (!issued) {
            restart();
            continue;
          }
          if (*issued) {
            ++op;
            track(fetches, std::vector<BlockRun>{**issued});
          }
        }
      }
    } else if (kind < 12) {
      const bool write_behind = rng(4) != 0;
      const auto plan = both(
          *pair,
          [&](auto& c) { return c.plan_write(pid, file, offset, length, op, write_behind, now); },
          where);
      if (!plan) {
        restart();
        continue;
      }
      ++op;
      track(flushes, plan->writethrough_runs);
    } else if (kind < 14) {
      const std::int64_t max_blocks = 1 + rng.signed_below(2 * blocks);
      const std::int64_t max_run = rng.signed_below(6);  // 0 = unlimited
      const Ticks min_age(rng(3) == 0 ? 0 : rng.signed_below(120));
      const auto runs = both(
          *pair,
          [&](auto& c) { return c.collect_flush_batch(max_blocks, max_run, now, min_age); },
          where);
      if (!runs) return;
      track(flushes, *runs);
    } else if (kind < 19) {
      // Any in-flight run, not only the oldest: completions arrive out of
      // order on a multi-disk farm.
      const bool fetch = flushes.empty() || (!fetches.empty() && rng(2) == 0);
      std::vector<BlockRun>& pending = fetch ? fetches : flushes;
      if (!pending.empty()) {
        const auto i = static_cast<std::size_t>(rng(pending.size()));
        BlockRun run = pending[i];
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        // The hint as planned, a stale one, or an arbitrary slot number
        // (live, dead or out of range). ReferenceCache ignores hints.
        switch (hint_rng(4)) {
          case 0:
            break;
          case 1:
            run.hint = hints[static_cast<std::size_t>(hint_rng(hints.size()))];
            break;
          case 2:
            run.hint = static_cast<std::uint32_t>(hint_rng(4 * static_cast<std::uint64_t>(blocks)));
            break;
          default:
            run.hint = BlockRun::kNoHint;
            break;
        }
        both(
            *pair,
            [&](auto& c) {
              if (fetch) {
                c.fetch_complete(run);
              } else {
                c.flush_complete(run);
              }
              return std::int64_t{0};
            },
            where);
      }
    } else {
      both(*pair, [&](auto& c) { return c.invalidate_file(file); }, where);
    }

    ASSERT_EQ(observe(pair->ext, pair->ext_metrics), observe(pair->ref, pair->ref_metrics))
        << where;
    ASSERT_EQ(pair->ext.audit(), "") << where;
    if (::testing::Test::HasFailure()) return;
  }
  tally();
}

TEST(CacheLockstepTest, RandomScriptsMatchThePerBlockReference) {
  Coverage coverage;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    run_script(seed, 2000, coverage, kSmallCaches);
    if (HasFailure()) return;
  }
  // The generator must actually reach the paths the rewrite had to get right.
  EXPECT_GT(coverage.evictions, 0);
  EXPECT_GT(coverage.space_waits, 0);
  EXPECT_GT(coverage.bypasses, 0);
  EXPECT_GT(coverage.joins, 0);
  EXPECT_GT(coverage.readahead_used, 0);
  EXPECT_GT(coverage.cancelled, 0);
  EXPECT_GT(coverage.errors, 0);
}

TEST(CacheLockstepTest, LargeCacheScriptsWalkPastTheAnchorStride) {
  Coverage coverage;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    run_script(seed, 20000, coverage, kLargeCache);
    if (HasFailure()) return;
  }
  EXPECT_GT(coverage.evictions, 0);
  EXPECT_GT(coverage.anchored, 0u);
  EXPECT_GT(coverage.unanchored, 0u);
}

/// A 4-block cache holding clean blocks 1–3 of file 1 and one dirty block: a
/// read of blocks 0–3 passes the space check with one block missing, then
/// evicts blocks 1, 2 and 3 of its own range one insert at a time and finds
/// the clean list empty for the fourth. That is an error, not a crash.
template <typename Cache>
void expect_empty_lru_error() {
  CacheParams params;
  params.block_size = 4 * kKiB;
  params.capacity = 4 * params.block_size;
  params.read_ahead = false;
  CacheMetrics metrics;
  Cache cache(params, metrics);
  const Bytes bs = params.block_size;
  const auto fill = cache.plan_read(1, 1, bs, 3 * bs, 1);
  for (const BlockRun& run : fill.fetch_runs) cache.fetch_complete(run);
  ASSERT_TRUE(cache.plan_write(1, 2, 0, bs, 2, /*write_behind=*/true).absorbed);
  ASSERT_EQ(cache.clean_block_count(), 3);
  ASSERT_EQ(cache.dirty_block_count(), 1);
  EXPECT_THROW((void)cache.plan_read(1, 1, 0, 4 * bs, 3), Error);
}

TEST(CacheLockstepTest, SelfEvictionThatEmptiesTheLruThrows) {
  expect_empty_lru_error<BufferCache>();
  expect_empty_lru_error<ReferenceCache>();
}

}  // namespace
}  // namespace craysim::sim
