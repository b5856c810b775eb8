#include "reference_cache.hpp"

#include <algorithm>
#include <cassert>

#include "util/error.hpp"

namespace craysim::sim {
namespace {

std::int64_t first_block_of(Bytes offset, Bytes block_size) { return offset / block_size; }

std::int64_t end_block_of(Bytes offset, Bytes length, Bytes block_size) {
  return (offset + length + block_size - 1) / block_size;
}

}  // namespace

ReferenceCache::ReferenceCache(const CacheParams& params, CacheMetrics& metrics)
    : params_(params), metrics_(&metrics) {
  if (params_.block_size <= 0) throw ConfigError("cache block size must be positive");
  if (params_.capacity < params_.block_size) {
    throw ConfigError("cache capacity smaller than one block");
  }
  capacity_blocks_ = params_.capacity / params_.block_size;
  cap_blocks_per_process_ =
      params_.per_process_cap > 0 ? params_.per_process_cap / params_.block_size : 0;
  if (params_.per_process_cap > 0 && cap_blocks_per_process_ == 0) {
    throw ConfigError("per-process cap smaller than one block");
  }
  const auto prealloc =
      static_cast<std::size_t>(std::min<std::int64_t>(capacity_blocks_, 1 << 16));
  pool_.reserve(prealloc);
  index_.reserve(prealloc);
}

std::int64_t ReferenceCache::owned_blocks(std::uint32_t pid) const {
  const auto it = owned_.find(pid);
  return it == owned_.end() ? 0 : it->second;
}

std::uint32_t ReferenceCache::find_slot(std::uint64_t key) const {
  const std::uint32_t* slot = index_.find(key);
  return slot != nullptr ? *slot : kNil;
}

void ReferenceCache::lru_push_back(std::uint32_t slot) {
  Block& block = pool_[slot];
  block.lru_prev = lru_tail_;
  block.lru_next = kNil;
  if (lru_tail_ != kNil) {
    pool_[lru_tail_].lru_next = slot;
  } else {
    lru_head_ = slot;
  }
  lru_tail_ = slot;
  ++clean_count_;
}

void ReferenceCache::lru_unlink(std::uint32_t slot) {
  Block& block = pool_[slot];
  if (block.lru_prev != kNil) {
    pool_[block.lru_prev].lru_next = block.lru_next;
  } else {
    lru_head_ = block.lru_next;
  }
  if (block.lru_next != kNil) {
    pool_[block.lru_next].lru_prev = block.lru_prev;
  } else {
    lru_tail_ = block.lru_prev;
  }
  block.lru_prev = kNil;
  block.lru_next = kNil;
  --clean_count_;
}

void ReferenceCache::dirty_link(std::uint32_t slot) {
  Block& block = pool_[slot];
  const std::uint64_t key = block.key;
  // Find the dirty block to insert after (kNil = new head). Keys are unique
  // (a block links here only on its transition into Dirty), so strict
  // comparisons suffice.
  std::uint32_t after;
  if (dirty_tail_ == kNil || key > pool_[dirty_tail_].key) {
    after = dirty_tail_;  // appending writes: O(1)
  } else if (key < pool_[dirty_head_].key) {
    after = kNil;
  } else if (dirty_hint_ != kNil) {
    // Walk from the previous insertion point — neighbors of the last write
    // (the locality case) are a step or two away.
    after = dirty_hint_;
    if (pool_[after].key < key) {
      while (pool_[after].lru_next != kNil && pool_[pool_[after].lru_next].key < key) {
        after = pool_[after].lru_next;
      }
    } else {
      while (after != kNil && pool_[after].key > key) after = pool_[after].lru_prev;
    }
  } else {
    after = dirty_tail_;
    while (after != kNil && pool_[after].key > key) after = pool_[after].lru_prev;
  }

  block.lru_prev = after;
  if (after == kNil) {
    block.lru_next = dirty_head_;
    dirty_head_ = slot;
  } else {
    block.lru_next = pool_[after].lru_next;
    pool_[after].lru_next = slot;
  }
  if (block.lru_next != kNil) {
    pool_[block.lru_next].lru_prev = slot;
  } else {
    dirty_tail_ = slot;
  }
  dirty_hint_ = slot;
  ++dirty_count_;
}

void ReferenceCache::dirty_unlink(std::uint32_t slot) {
  Block& block = pool_[slot];
  if (dirty_hint_ == slot) dirty_hint_ = block.lru_prev;
  if (block.lru_prev != kNil) {
    pool_[block.lru_prev].lru_next = block.lru_next;
  } else {
    dirty_head_ = block.lru_next;
  }
  if (block.lru_next != kNil) {
    pool_[block.lru_next].lru_prev = block.lru_prev;
  } else {
    dirty_tail_ = block.lru_prev;
  }
  block.lru_prev = kNil;
  block.lru_next = kNil;
  --dirty_count_;
}

void ReferenceCache::free_slot(std::uint32_t slot) {
  Block& block = pool_[slot];
  block.live = false;
  block.lru_prev = kNil;
  block.lru_next = free_head_;  // free list threads through lru_next
  free_head_ = slot;
}

bool ReferenceCache::can_allocate(std::int64_t need, std::uint32_t pid) const {
  if (need <= 0) return true;
  if (need > free_blocks() + clean_count_) return false;
  if (cap_blocks_per_process_ > 0) {
    const std::int64_t own = owned_blocks(pid);
    if (own + need > cap_blocks_per_process_) {
      // Over the cap: the process must be able to evict enough of its own
      // clean blocks to stay within its allowance.
      std::int64_t own_clean = 0;
      for (std::uint32_t s = lru_head_; s != kNil; s = pool_[s].lru_next) {
        if (pool_[s].owner == pid) ++own_clean;
      }
      if (own + need - own_clean > cap_blocks_per_process_) return false;
    }
  }
  return true;
}

void ReferenceCache::evict_one(std::uint32_t prefer_owner) {
  if (lru_head_ == kNil) throw Error("buffer cache: no clean block to evict");
  std::uint32_t victim = lru_head_;
  if (prefer_owner != 0) {
    for (std::uint32_t s = lru_head_; s != kNil; s = pool_[s].lru_next) {
      if (pool_[s].owner == prefer_owner) {
        victim = s;
        break;
      }
    }
  }
  Block& block = pool_[victim];
  assert(block.live && block.state == State::kClean);
  --owned_[block.owner];
  lru_unlink(victim);
  index_.erase(block.key);
  free_slot(victim);
  --live_count_;
  ++metrics_->evictions;
}

std::uint32_t ReferenceCache::insert_block(std::uint64_t key, State state, std::uint32_t pid,
                                        std::uint64_t op_id, bool from_readahead) {
  std::uint32_t prefer = 0;
  if (cap_blocks_per_process_ > 0 && owned_blocks(pid) + 1 > cap_blocks_per_process_) {
    prefer = pid;  // stay within the allowance by evicting our own blocks
  }
  if (free_blocks() == 0 || prefer != 0) evict_one(prefer);

  std::uint32_t slot;
  if (free_head_ != kNil) {
    slot = free_head_;
    free_head_ = pool_[slot].lru_next;
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  Block& block = pool_[slot];
  block = Block{};
  block.key = key;
  block.live = true;
  block.state = state;
  block.owner = pid;
  block.op_id = op_id;
  block.from_readahead = from_readahead;
  if (state == State::kClean) {
    lru_push_back(slot);
  } else if (state == State::kDirty) {
    dirty_link(slot);
  }
  index_.emplace(key) = slot;
  ++live_count_;
  ++owned_[pid];
  return slot;
}

void ReferenceCache::touch_clean(Block& block) {
  assert(block.state == State::kClean);
  const std::uint32_t slot = slot_of(block);
  if (lru_tail_ == slot) return;  // already MRU
  lru_unlink(slot);
  lru_push_back(slot);
}

void ReferenceCache::make_dirty(Block& block, std::uint32_t pid) {
  switch (block.state) {
    case State::kClean:
      lru_unlink(slot_of(block));
      block.state = State::kDirty;
      dirty_link(slot_of(block));
      break;
    case State::kDirty:
      break;
    case State::kFetching:
      // Overwritten before the fetch landed; the fetched data is stale.
      block.state = State::kDirty;
      dirty_link(slot_of(block));
      break;
    case State::kFlushing:
      block.redirtied = true;
      break;
  }
  block.owner = pid;
  block.from_readahead = false;
}

ReferenceCache::ReadPlan ReferenceCache::plan_read(std::uint32_t pid, std::uint32_t file,
                                                   Bytes offset, Bytes length,
                                                   std::uint64_t first_op_id) {
  ReadPlan plan;
  const Bytes bs = params_.block_size;
  const std::int64_t b0 = first_block_of(offset, bs);
  const std::int64_t b1 = end_block_of(offset, length, bs);
  const std::int64_t span = b1 - b0;
  BufferCache::check_blocks(file, b0, b1);
  ++metrics_->read_requests;

  if (span > capacity_blocks_) {
    plan.bypass = true;
    ++metrics_->read_misses;
    return plan;
  }

  // Pass 1 (no mutation): classify blocks.
  std::int64_t missing = 0;
  for (std::int64_t b = b0; b < b1; ++b) {
    if (!index_.contains(key_of(file, b))) ++missing;
  }
  if (missing > 0 && !can_allocate(missing, pid)) {
    plan.space_wait = true;
    --metrics_->read_requests;  // the retry will count it
    return plan;
  }

  // Pass 2: touch hits, join in-flight fetches, insert missing as Fetching.
  std::int64_t present = 0;
  for (std::int64_t b = b0; b < b1; ++b) {
    const std::uint64_t key = key_of(file, b);
    const std::uint32_t slot = find_slot(key);
    if (slot == kNil) {
      const bool extends_run =
          !plan.fetch_runs.empty() && plan.fetch_runs.back().file == file &&
          plan.fetch_runs.back().first_block + plan.fetch_runs.back().count == b;
      if (!extends_run) plan.fetch_runs.push_back({file, b, 0});
      insert_block(key, State::kFetching, pid,
                   first_op_id + plan.fetch_runs.size() - 1, /*from_readahead=*/false);
      ++plan.fetch_runs.back().count;
      continue;
    }
    ++present;
    Block& block = pool_[slot];
    if (block.from_readahead) {
      ++metrics_->readahead_used_blocks;
      block.from_readahead = false;
      plan.readahead_hit = true;
    }
    if (block.state == State::kClean) {
      touch_clean(block);
    } else if (block.state == State::kFetching) {
      if (std::find(plan.join_ops.begin(), plan.join_ops.end(), block.op_id) ==
          plan.join_ops.end()) {
        plan.join_ops.push_back(block.op_id);
      }
    }
    // Dirty/Flushing blocks hold valid data: plain hits.
  }

  plan.full_hit = plan.fetch_runs.empty() && plan.join_ops.empty();
  if (plan.full_hit) {
    ++metrics_->read_full_hits;
  } else if (present > 0) {
    ++metrics_->read_partial_hits;
  } else {
    ++metrics_->read_misses;
  }

  // Sequential detection -> read-ahead suggestion ("prefetching the amount
  // of data just read allowed the application to continue without waiting").
  if (params_.read_ahead) {
    SeqState& seq = sequential_[file];
    if (seq.last_end == offset) {
      const std::int64_t ahead = std::max<std::int64_t>(1, (length + bs - 1) / bs);
      plan.readahead = BlockRun{file, b1, ahead};
    }
    seq.last_end = offset + length;
    seq.last_length = length;
  }
  return plan;
}

ReferenceCache::WritePlan ReferenceCache::plan_write(std::uint32_t pid, std::uint32_t file,
                                               Bytes offset, Bytes length, std::uint64_t op_id,
                                               bool write_behind, Ticks now) {
  WritePlan plan;
  const Bytes bs = params_.block_size;
  const std::int64_t b0 = first_block_of(offset, bs);
  const std::int64_t b1 = end_block_of(offset, length, bs);
  const std::int64_t span = b1 - b0;
  BufferCache::check_blocks(file, b0, b1);
  ++metrics_->write_requests;

  if (span > capacity_blocks_) {
    plan.bypass = true;
    return plan;
  }

  std::int64_t missing = 0;
  for (std::int64_t b = b0; b < b1; ++b) {
    if (!index_.contains(key_of(file, b))) ++missing;
  }
  if (missing > 0 && !can_allocate(missing, pid)) {
    plan.space_wait = true;
    --metrics_->write_requests;
    return plan;
  }

  if (write_behind) {
    for (std::int64_t b = b0; b < b1; ++b) {
      const std::uint64_t key = key_of(file, b);
      const std::uint32_t slot = find_slot(key);
      if (slot == kNil) {
        const std::uint32_t fresh =
            insert_block(key, State::kDirty, pid, op_id, /*from_readahead=*/false);
        pool_[fresh].dirty_since = now;
      } else {
        Block& block = pool_[slot];
        make_dirty(block, pid);
        block.dirty_since = now;
      }
    }
    plan.absorbed = true;
    ++metrics_->write_absorbed;
  } else {
    // Write-through: every block goes to disk now.
    for (std::int64_t b = b0; b < b1; ++b) {
      const std::uint64_t key = key_of(file, b);
      const std::uint32_t slot = find_slot(key);
      if (slot == kNil) {
        insert_block(key, State::kFlushing, pid, op_id, /*from_readahead=*/false);
      } else {
        Block& block = pool_[slot];
        switch (block.state) {
          case State::kClean:
            lru_unlink(slot);
            block.state = State::kFlushing;
            break;
          case State::kDirty:
            dirty_unlink(slot);
            block.state = State::kFlushing;
            break;
          case State::kFetching:
            block.state = State::kFlushing;
            break;
          case State::kFlushing:
            break;
        }
        block.owner = pid;
        block.from_readahead = false;
      }
      if (!plan.writethrough_runs.empty() && plan.writethrough_runs.back().file == file &&
          plan.writethrough_runs.back().first_block + plan.writethrough_runs.back().count == b) {
        ++plan.writethrough_runs.back().count;
      } else {
        plan.writethrough_runs.push_back({file, b, 1});
      }
    }
  }

  // Writes also advance the sequential detector (appending writes should not
  // be mistaken for random reads later).
  if (params_.read_ahead) {
    SeqState& seq = sequential_[file];
    seq.last_end = offset + length;
    seq.last_length = length;
  }
  return plan;
}

std::optional<BlockRun> ReferenceCache::try_issue_readahead(std::uint32_t pid,
                                                         const BlockRun& candidate,
                                                         std::uint64_t op_id) {
  if (candidate.count <= 0 ||
      candidate.first_block + candidate.count > BufferCache::kBlockLimit) {
    return std::nullopt;
  }
  // Only prefetch when the whole candidate is absent (the frontier case).
  for (std::int64_t i = 0; i < candidate.count; ++i) {
    if (index_.contains(key_of(candidate.file, candidate.first_block + i))) {
      return std::nullopt;
    }
  }
  if (!can_allocate(candidate.count, pid)) return std::nullopt;
  for (std::int64_t i = 0; i < candidate.count; ++i) {
    insert_block(key_of(candidate.file, candidate.first_block + i), State::kFetching, pid, op_id,
                 /*from_readahead=*/true);
  }
  ++metrics_->readahead_issued;
  metrics_->readahead_fetched_blocks += candidate.count;
  return candidate;
}

void ReferenceCache::fetch_complete(const BlockRun& run) {
  for (std::int64_t i = 0; i < run.count; ++i) {
    const std::uint32_t slot = find_slot(key_of(run.file, run.first_block + i));
    if (slot == kNil) continue;
    Block& block = pool_[slot];
    if (block.state != State::kFetching) continue;  // overwritten meanwhile
    block.state = State::kClean;
    lru_push_back(slot);
  }
}

void ReferenceCache::flush_complete(const BlockRun& run) {
  for (std::int64_t i = 0; i < run.count; ++i) {
    const std::uint64_t key = key_of(run.file, run.first_block + i);
    const std::uint32_t slot = find_slot(key);
    if (slot == kNil) continue;
    Block& block = pool_[slot];
    if (block.state != State::kFlushing) continue;
    if (block.redirtied) {
      block.redirtied = false;
      block.state = State::kDirty;
      dirty_link(slot);
    } else {
      block.state = State::kClean;
      lru_push_back(slot);
    }
  }
}

std::vector<BlockRun> ReferenceCache::collect_flush_batch(std::int64_t max_blocks,
                                                       std::int64_t max_run_blocks, Ticks now,
                                                       Ticks min_age) {
  std::vector<BlockRun> runs;
  std::int64_t taken = 0;
  std::uint32_t cursor = dirty_head_;
  while (taken < max_blocks && cursor != kNil) {
    Block& block = pool_[cursor];
    assert(block.live && block.state == State::kDirty);
    const std::uint32_t next = block.lru_next;
    if (min_age > Ticks::zero() && block.dirty_since + min_age > now) {
      cursor = next;  // still younger than the delayed-write threshold
      continue;
    }
    dirty_unlink(cursor);
    ++taken;
    block.state = State::kFlushing;
    const std::uint32_t file = file_of(block.key);
    const std::int64_t block_no = block_of(block.key);
    const bool extends = !runs.empty() && runs.back().file == file &&
                         runs.back().first_block + runs.back().count == block_no &&
                         (max_run_blocks <= 0 || runs.back().count < max_run_blocks);
    if (extends) {
      ++runs.back().count;
    } else {
      runs.push_back({file, block_no, 1});
    }
    cursor = next;
  }
  return runs;
}

std::int64_t ReferenceCache::invalidate_file(std::uint32_t file) {
  std::int64_t cancelled = 0;
  for (std::uint32_t slot = 0; slot < pool_.size(); ++slot) {
    Block& block = pool_[slot];
    if (!block.live || file_of(block.key) != file) continue;
    switch (block.state) {
      case State::kClean:
        lru_unlink(slot);
        break;
      case State::kDirty:
        dirty_unlink(slot);
        ++cancelled;
        break;
      case State::kFetching:
      case State::kFlushing:
        // In-flight transfers complete against a dead block; leave them so
        // fetch/flush_complete bookkeeping stays simple.
        continue;
    }
    --owned_[block.owner];
    index_.erase(block.key);
    free_slot(slot);
    --live_count_;
  }
  sequential_.erase(file);
  metrics_->writes_cancelled_blocks += cancelled;
  return cancelled;
}

bool ReferenceCache::over_watermark() const {
  return static_cast<double>(dirty_count_) >
         params_.dirty_high_watermark * static_cast<double>(capacity_blocks_);
}

}  // namespace craysim::sim
