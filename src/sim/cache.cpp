#include "sim/cache.hpp"

#include <algorithm>
#include <cassert>

#include "util/error.hpp"

namespace craysim::sim {
namespace {

std::int64_t first_block_of(Bytes offset, Bytes block_size) { return offset / block_size; }

std::int64_t end_block_of(Bytes offset, Bytes length, Bytes block_size) {
  return (offset + length + block_size - 1) / block_size;
}

/// Appends blocks [first, first + n) of `file` to `runs` exactly as a
/// block-at-a-time walk would: a block extends the last run when it is that
/// run's next block and the run is shorter than `max_run` (<= 0: unlimited).
void append_blocks(std::vector<BlockRun>& runs, std::uint32_t file, std::int64_t first,
                   std::int64_t n, std::int64_t max_run) {
  while (n > 0) {
    const bool extends = !runs.empty() && runs.back().file == file &&
                         runs.back().first_block + runs.back().count == first &&
                         (max_run <= 0 || runs.back().count < max_run);
    if (!extends) runs.push_back({file, first, 0});
    const std::int64_t add = max_run > 0 ? std::min(n, max_run - runs.back().count) : n;
    runs.back().count += add;
    first += add;
    n -= add;
  }
}

}  // namespace

BufferCache::BufferCache(const CacheParams& params, CacheMetrics& metrics)
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
}

bool BufferCache::mergeable(const Extent& front, const Extent& back) {
  return front.end() == back.key && file_of(front.key) == file_of(back.key) &&
         front.state == back.state && front.owner == back.owner && front.op_id == back.op_id &&
         front.dirty_since == back.dirty_since && front.from_readahead == back.from_readahead &&
         front.redirtied == back.redirtied;
}

std::int64_t BufferCache::owned_blocks(std::uint32_t pid) const {
  const auto it = owner_of_pid_.find(pid);
  return it == owner_of_pid_.end() ? 0 : owners_[it->second].owned;
}

std::uint32_t BufferCache::owner_index(std::uint32_t pid) {
  const auto [it, added] =
      owner_of_pid_.try_emplace(pid, static_cast<std::uint32_t>(owners_.size()));
  if (added) owners_.push_back(Owner{.pid = pid});
  return it->second;
}

BufferCache::Segment BufferCache::segment(std::uint64_t key, std::uint64_t end) const {
  static_assert(kNil == util::SortedMap64::kNoValue);
  const util::SortedMap64::Around around = index_.around(key);
  if (around.floor != kNil && key < pool_[around.floor].end()) {
    return {around.floor, std::min(pool_[around.floor].end(), end)};
  }
  return {kNil, std::min(around.next, end)};
}

std::int64_t BufferCache::count_missing(Segment head, std::uint64_t first,
                                        std::uint64_t end) const {
  std::int64_t missing = 0;
  for (std::uint64_t k = first;;) {
    if (head.slot == kNil) missing += static_cast<std::int64_t>(head.end - k);
    k = head.end;
    if (k >= end) return missing;
    head = segment(k, end);
  }
}

std::uint32_t BufferCache::alloc_slot() {
  if (free_head_ == kNil) {
    pool_.emplace_back();
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }
  const std::uint32_t slot = free_head_;  // callers overwrite the whole slot
  free_head_ = pool_[slot].next;
  return slot;
}

void BufferCache::erase_extent(std::uint32_t slot) {
  index_.erase(pool_[slot].key);
  pool_[slot].next = free_head_;  // free list threads through next
  free_head_ = slot;
}

void BufferCache::insert_extent(const Extent& extent) {
  assert(extent.state != State::kClean && extent.count > 0);
  const std::uint32_t slot = alloc_slot();
  pool_[slot] = extent;
  index_.insert(extent.key, slot);
  if (extent.state == State::kDirty) dirty_link(slot);
}

std::uint32_t BufferCache::split(std::uint32_t slot, std::uint64_t at) {
  const std::uint32_t back_slot = alloc_slot();
  Extent& front = pool_[slot];
  Extent& back = pool_[back_slot];
  assert(front.key < at && at < front.end());
  back = front;
  back.key = at;
  back.count = static_cast<std::int64_t>(front.end() - at);
  front.count = static_cast<std::int64_t>(at - front.key);
  index_.insert(at, back_slot);
  if (front.state == State::kClean || front.state == State::kDirty) {
    back.prev = slot;
    if (front.next != kNil) {
      pool_[front.next].prev = back_slot;
    } else if (front.state == State::kClean) {
      lru_tail_ = back_slot;
    } else {
      dirty_tail_ = back_slot;
    }
    front.next = back_slot;
  }
  if (front.state == State::kClean) {
    back.owner_prev = slot;
    if (front.owner_next != kNil) {
      pool_[front.owner_next].owner_prev = back_slot;
    } else {
      owners_[front.owner].tail = back_slot;
    }
    front.owner_next = back_slot;
  }
  return back_slot;
}

std::uint32_t BufferCache::isolate(std::uint32_t slot, std::uint64_t first, std::uint64_t end) {
  if (end < pool_[slot].end()) split(slot, end);
  return first > pool_[slot].key ? split(slot, first) : slot;
}

void BufferCache::clean_push_back(std::uint32_t slot) {
  Extent& extent = pool_[slot];
  Owner& owner = owners_[extent.owner];
  clean_count_ += extent.count;
  owner.clean += extent.count;
  if (lru_tail_ != kNil && mergeable(pool_[lru_tail_], extent)) {
    // The MRU extent is also its owner's newest, so both lists stay intact.
    pool_[lru_tail_].count += extent.count;
    erase_extent(slot);
    return;
  }
  extent.prev = lru_tail_;
  extent.next = kNil;
  if (lru_tail_ != kNil) {
    pool_[lru_tail_].next = slot;
  } else {
    lru_head_ = slot;
  }
  lru_tail_ = slot;
  extent.owner_prev = owner.tail;
  extent.owner_next = kNil;
  if (owner.tail != kNil) {
    pool_[owner.tail].owner_next = slot;
  } else {
    owner.head = slot;
  }
  owner.tail = slot;
}

void BufferCache::clean_unlink(std::uint32_t slot) {
  Extent& extent = pool_[slot];
  Owner& owner = owners_[extent.owner];
  if (extent.prev != kNil) {
    pool_[extent.prev].next = extent.next;
  } else {
    lru_head_ = extent.next;
  }
  if (extent.next != kNil) {
    pool_[extent.next].prev = extent.prev;
  } else {
    lru_tail_ = extent.prev;
  }
  if (extent.owner_prev != kNil) {
    pool_[extent.owner_prev].owner_next = extent.owner_next;
  } else {
    owner.head = extent.owner_next;
  }
  if (extent.owner_next != kNil) {
    pool_[extent.owner_next].owner_prev = extent.owner_prev;
  } else {
    owner.tail = extent.owner_prev;
  }
  extent.prev = kNil;
  extent.next = kNil;
  extent.owner_prev = kNil;
  extent.owner_next = kNil;
  clean_count_ -= extent.count;
  owner.clean -= extent.count;
}

void BufferCache::dirty_link(std::uint32_t slot) {
  const std::uint64_t key = pool_[slot].key;
  // Find the dirty extent to insert after (kNil = new head). Extents do not
  // overlap, so their first keys are unique and strict comparisons suffice.
  std::uint32_t after;
  if (dirty_tail_ == kNil || key > pool_[dirty_tail_].key) {
    after = dirty_tail_;  // appending writes: O(1)
  } else if (key < pool_[dirty_head_].key) {
    after = kNil;
  } else {
    // Walk from the previous insertion point — neighbors of the last write
    // (the locality case) are a step or two away.
    after = dirty_hint_ != kNil ? dirty_hint_ : dirty_tail_;
    if (pool_[after].key < key) {
      while (pool_[after].next != kNil && pool_[pool_[after].next].key < key) {
        after = pool_[after].next;
      }
    } else {
      while (after != kNil && pool_[after].key > key) after = pool_[after].prev;
    }
  }

  Extent& extent = pool_[slot];
  extent.prev = after;
  if (after == kNil) {
    extent.next = dirty_head_;
    dirty_head_ = slot;
  } else {
    extent.next = pool_[after].next;
    pool_[after].next = slot;
  }
  if (extent.next != kNil) {
    pool_[extent.next].prev = slot;
  } else {
    dirty_tail_ = slot;
  }
  dirty_hint_ = slot;
  dirty_count_ += extent.count;
  dirty_merge(slot);
}

void BufferCache::dirty_unlink(std::uint32_t slot) {
  Extent& extent = pool_[slot];
  if (dirty_hint_ == slot) dirty_hint_ = extent.prev;
  if (extent.prev != kNil) {
    pool_[extent.prev].next = extent.next;
  } else {
    dirty_head_ = extent.next;
  }
  if (extent.next != kNil) {
    pool_[extent.next].prev = extent.prev;
  } else {
    dirty_tail_ = extent.prev;
  }
  extent.prev = kNil;
  extent.next = kNil;
  dirty_count_ -= extent.count;
}

void BufferCache::dirty_merge(std::uint32_t slot) {
  // Folds `back` (the list and key successor of `front`) into `front`.
  auto fold = [this](std::uint32_t front, std::uint32_t back) {
    const std::uint32_t after = pool_[back].next;
    pool_[front].count += pool_[back].count;
    pool_[front].next = after;
    if (after != kNil) {
      pool_[after].prev = front;
    } else {
      dirty_tail_ = front;
    }
    if (dirty_hint_ == back) dirty_hint_ = front;
    erase_extent(back);
  };
  const std::uint32_t next = pool_[slot].next;
  if (next != kNil && mergeable(pool_[slot], pool_[next])) fold(slot, next);
  const std::uint32_t prev = pool_[slot].prev;
  if (prev != kNil && mergeable(pool_[prev], pool_[slot])) fold(prev, slot);
}

bool BufferCache::can_allocate(std::int64_t need, std::uint32_t pid) const {
  if (need <= 0) return true;
  if (need > free_blocks() + clean_count_) return false;
  if (cap_blocks_per_process_ > 0) {
    const auto it = owner_of_pid_.find(pid);
    const Owner* owner = it == owner_of_pid_.end() ? nullptr : &owners_[it->second];
    const std::int64_t own = owner != nullptr ? owner->owned : 0;
    if (own + need > cap_blocks_per_process_) {
      // Over the cap: the process must be able to evict enough of its own
      // clean blocks to stay within its allowance.
      const std::int64_t own_clean = owner != nullptr ? owner->clean : 0;
      if (own + need - own_clean > cap_blocks_per_process_) return false;
    }
  }
  return true;
}

void BufferCache::evict_front(std::uint32_t slot, std::int64_t n) {
  Extent& extent = pool_[slot];
  Owner& owner = owners_[extent.owner];
  owner.owned -= n;
  live_count_ -= n;
  metrics_->evictions += n;
  if (n == extent.count) {
    clean_unlink(slot);
    erase_extent(slot);
    return;
  }
  extent.count -= n;
  clean_count_ -= n;
  owner.clean -= n;
  const std::uint64_t key = extent.key + static_cast<std::uint64_t>(n);
  index_.rekey(extent.key, key);
  extent.key = key;
}

void BufferCache::reserve(std::int64_t n, std::uint32_t owner) {
  // The per-block rule for each inserted block: with
  //   prefer = cap > 0 && owned(pid) + 1 > cap   (never for pid 0),
  // evict when free == 0 || prefer; the victim is pid's oldest clean block
  // when prefer holds and pid has one, else the LRU block. Each loop turn
  // applies the rule to as many consecutive blocks as share one victim
  // extent and one branch of the rule.
  Owner& me = owners_[owner];
  const bool capped = cap_blocks_per_process_ > 0 && me.pid != 0;
  while (n > 0) {
    std::int64_t batch = n;
    // Once prefer holds every insert evicts, so owned(pid) never falls and
    // prefer holds for the rest of the request.
    const bool prefer = capped && me.owned + 1 > cap_blocks_per_process_;
    if (prefer || free_blocks() == 0) {
      const std::uint32_t victim = prefer && me.head != kNil ? me.head : lru_head_;
      if (victim == kNil) throw Error("buffer cache: no clean block to evict");
      // Taking another owner's block grows owned(pid) up to where prefer
      // starts to hold.
      if (!prefer && capped && pool_[victim].owner != owner) {
        batch = std::min(batch, cap_blocks_per_process_ - me.owned);
      }
      batch = std::min(batch, pool_[victim].count);
      evict_front(victim, batch);
    } else {
      batch = std::min(batch, free_blocks());
      if (capped) batch = std::min(batch, cap_blocks_per_process_ - me.owned);
    }
    me.owned += batch;
    live_count_ += batch;
    n -= batch;
  }
}

void BufferCache::touch(std::uint32_t slot, std::uint64_t first, std::uint64_t end) {
  // A suffix of the MRU extent is already in the order a touch leaves it.
  if (slot == lru_tail_ && end == pool_[slot].end()) return;
  slot = isolate(slot, first, end);
  clean_unlink(slot);
  clean_push_back(slot);
}

void BufferCache::make_dirty(std::uint32_t slot, std::uint64_t first, std::uint64_t end,
                             std::uint32_t owner, Ticks now) {
  const State state = pool_[slot].state;
  if (state == State::kDirty && pool_[slot].owner == owner && pool_[slot].dirty_since == now) {
    return;
  }
  slot = isolate(slot, first, end);
  if (state == State::kClean) clean_unlink(slot);
  Extent& extent = pool_[slot];
  // Re-owned without moving owned counts, as the per-block cache did.
  extent.owner = owner;
  extent.from_readahead = false;
  extent.dirty_since = now;
  switch (state) {
    case State::kClean:
    case State::kFetching:
      // A Fetching block overwritten before its fetch landed: the fetched
      // data is stale.
      extent.state = State::kDirty;
      extent.op_id = 0;
      dirty_link(slot);
      break;
    case State::kDirty:
      dirty_merge(slot);
      break;
    case State::kFlushing:
      extent.redirtied = true;
      break;
  }
}

void BufferCache::write_through(std::uint32_t slot, std::uint64_t first, std::uint64_t end,
                                std::uint32_t owner) {
  const State state = pool_[slot].state;
  if (state == State::kFlushing && pool_[slot].owner == owner && !pool_[slot].from_readahead) {
    return;
  }
  slot = isolate(slot, first, end);
  if (state == State::kClean) clean_unlink(slot);
  if (state == State::kDirty) dirty_unlink(slot);
  Extent& extent = pool_[slot];
  extent.owner = owner;
  extent.from_readahead = false;
  if (state != State::kFlushing) {
    extent.state = State::kFlushing;
    extent.op_id = 0;
    extent.dirty_since = Ticks::zero();
  }
}

BufferCache::ReadPlan BufferCache::plan_read(std::uint32_t pid, std::uint32_t file, Bytes offset,
                                             Bytes length, std::uint64_t first_op_id) {
  ReadPlan plan;
  const Bytes bs = params_.block_size;
  const std::int64_t b0 = first_block_of(offset, bs);
  const std::int64_t b1 = end_block_of(offset, length, bs);
  const std::int64_t span = b1 - b0;
  ++metrics_->read_requests;

  if (span > capacity_blocks_) {
    plan.bypass = true;
    ++metrics_->read_misses;
    return plan;
  }

  // Pass 1 (no mutation): count missing blocks.
  const std::uint64_t first = key_of(file, b0);
  const std::uint64_t end = key_of(file, b1);
  const Segment head = segment(first, end);
  const std::int64_t missing = count_missing(head, first, end);
  if (missing > 0 && !can_allocate(missing, pid)) {
    plan.space_wait = true;
    --metrics_->read_requests;  // the retry will count it
    return plan;
  }

  // Pass 2, segment by segment in ascending order: touch hits, join
  // in-flight fetches, insert missing blocks as Fetching. Nothing has
  // changed since pass 1 looked up the first segment.
  const std::uint32_t owner = owner_index(pid);
  std::int64_t present = 0;
  for (std::uint64_t k = first; k < end;) {
    auto [slot, seg_end] = k == first ? head : segment(k, end);
    const auto n = static_cast<std::int64_t>(seg_end - k);
    if (slot == kNil) {
      const std::int64_t block = block_of(k);
      const bool extends_run = !plan.fetch_runs.empty() &&
                               plan.fetch_runs.back().first_block + plan.fetch_runs.back().count ==
                                   block;
      if (!extends_run) plan.fetch_runs.push_back({file, block, 0});
      reserve(n, owner);
      Extent fetching;
      fetching.key = k;
      fetching.count = n;
      fetching.state = State::kFetching;
      fetching.owner = owner;
      fetching.op_id = first_op_id + plan.fetch_runs.size() - 1;
      insert_extent(fetching);
      plan.fetch_runs.back().count += n;
    } else {
      present += n;
      if (pool_[slot].from_readahead) {
        metrics_->readahead_used_blocks += n;
        plan.readahead_hit = true;
        slot = isolate(slot, k, seg_end);
        pool_[slot].from_readahead = false;
      }
      const Extent& hit = pool_[slot];
      if (hit.state == State::kClean) {
        touch(slot, k, seg_end);
      } else if (hit.state == State::kFetching &&
                 std::find(plan.join_ops.begin(), plan.join_ops.end(), hit.op_id) ==
                     plan.join_ops.end()) {
        plan.join_ops.push_back(hit.op_id);
      }
      // Dirty/Flushing blocks hold valid data: plain hits.
    }
    // Inserting may have evicted blocks further on in this request, so the
    // next segment is looked up afresh.
    k = seg_end;
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
  }
  return plan;
}

BufferCache::WritePlan BufferCache::plan_write(std::uint32_t pid, std::uint32_t file,
                                               Bytes offset, Bytes length,
                                               std::uint64_t /*op_id*/, bool write_behind,
                                               Ticks now) {
  WritePlan plan;
  const Bytes bs = params_.block_size;
  const std::int64_t b0 = first_block_of(offset, bs);
  const std::int64_t b1 = end_block_of(offset, length, bs);
  const std::int64_t span = b1 - b0;
  ++metrics_->write_requests;

  if (span > capacity_blocks_) {
    plan.bypass = true;
    return plan;
  }

  const std::uint64_t first = key_of(file, b0);
  const std::uint64_t end = key_of(file, b1);
  const Segment head = segment(first, end);
  const std::int64_t missing = count_missing(head, first, end);
  if (missing > 0 && !can_allocate(missing, pid)) {
    plan.space_wait = true;
    --metrics_->write_requests;
    return plan;
  }

  // Under write-behind every block ends Dirty (or redirtied while Flushing);
  // under write-through every block goes to disk now.
  const std::uint32_t owner = owner_index(pid);
  for (std::uint64_t k = first; k < end;) {
    const auto [slot, seg_end] = k == first ? head : segment(k, end);
    if (slot == kNil) {
      reserve(static_cast<std::int64_t>(seg_end - k), owner);
      Extent fresh;
      fresh.key = k;
      fresh.count = static_cast<std::int64_t>(seg_end - k);
      fresh.owner = owner;
      fresh.state = write_behind ? State::kDirty : State::kFlushing;
      if (write_behind) fresh.dirty_since = now;
      insert_extent(fresh);
    } else if (write_behind) {
      make_dirty(slot, k, seg_end, owner, now);
    } else {
      write_through(slot, k, seg_end, owner);
    }
    k = seg_end;
  }
  if (write_behind) {
    plan.absorbed = true;
    ++metrics_->write_absorbed;
  } else if (span > 0) {
    plan.writethrough_runs.push_back({file, b0, span});
  }

  // Writes also advance the sequential detector (appending writes should not
  // be mistaken for random reads later).
  if (params_.read_ahead) sequential_[file].last_end = offset + length;
  return plan;
}

std::optional<BlockRun> BufferCache::try_issue_readahead(std::uint32_t pid,
                                                         const BlockRun& candidate,
                                                         std::uint64_t op_id) {
  if (candidate.count <= 0) return std::nullopt;
  // Only prefetch when the whole candidate is absent (the frontier case).
  const std::uint64_t first = key_of(candidate.file, candidate.first_block);
  const std::uint64_t end = first + static_cast<std::uint64_t>(candidate.count);
  const Segment seg = segment(first, end);
  if (seg.slot != kNil || seg.end != end) return std::nullopt;
  if (!can_allocate(candidate.count, pid)) return std::nullopt;
  const std::uint32_t owner = owner_index(pid);
  reserve(candidate.count, owner);
  Extent prefetch;
  prefetch.key = first;
  prefetch.count = candidate.count;
  prefetch.state = State::kFetching;
  prefetch.owner = owner;
  prefetch.op_id = op_id;
  prefetch.from_readahead = true;
  insert_extent(prefetch);
  ++metrics_->readahead_issued;
  metrics_->readahead_fetched_blocks += candidate.count;
  return candidate;
}

// Completions ignore op ids: every Fetching (Flushing) block in the run
// completes, whichever operation it was tagged with.
void BufferCache::fetch_complete(const BlockRun& run) {
  const std::uint64_t first = key_of(run.file, run.first_block);
  const std::uint64_t end =
      first + static_cast<std::uint64_t>(std::max<std::int64_t>(run.count, 0));
  for (std::uint64_t k = first; k < end;) {
    auto [slot, seg_end] = segment(k, end);
    if (slot != kNil && pool_[slot].state == State::kFetching) {  // else overwritten meanwhile
      slot = isolate(slot, k, seg_end);
      pool_[slot].state = State::kClean;
      pool_[slot].op_id = 0;
      clean_push_back(slot);
    }
    k = seg_end;
  }
}

void BufferCache::flush_complete(const BlockRun& run) {
  const std::uint64_t first = key_of(run.file, run.first_block);
  const std::uint64_t end =
      first + static_cast<std::uint64_t>(std::max<std::int64_t>(run.count, 0));
  for (std::uint64_t k = first; k < end;) {
    auto [slot, seg_end] = segment(k, end);
    if (slot != kNil && pool_[slot].state == State::kFlushing) {
      slot = isolate(slot, k, seg_end);
      Extent& extent = pool_[slot];
      if (extent.redirtied) {
        extent.redirtied = false;
        extent.state = State::kDirty;
        dirty_link(slot);
      } else {
        extent.state = State::kClean;
        extent.dirty_since = Ticks::zero();
        clean_push_back(slot);
      }
    }
    k = seg_end;
  }
}

std::vector<BlockRun> BufferCache::collect_flush_batch(std::int64_t max_blocks,
                                                       std::int64_t max_run_blocks, Ticks now,
                                                       Ticks min_age) {
  std::vector<BlockRun> runs;
  std::int64_t taken = 0;
  std::uint32_t cursor = dirty_head_;
  while (taken < max_blocks && cursor != kNil) {
    assert(pool_[cursor].state == State::kDirty);
    const std::uint32_t next = pool_[cursor].next;
    if (min_age > Ticks::zero() && pool_[cursor].dirty_since + min_age > now) {
      cursor = next;  // still younger than the delayed-write threshold
      continue;
    }
    // The lowest keys go first; a partly taken extent leaves its tail dirty
    // (and ends the batch).
    const std::int64_t take = std::min(pool_[cursor].count, max_blocks - taken);
    if (take < pool_[cursor].count) {
      split(cursor, pool_[cursor].key + static_cast<std::uint64_t>(take));
    }
    dirty_unlink(cursor);
    Extent& extent = pool_[cursor];
    extent.state = State::kFlushing;
    extent.dirty_since = Ticks::zero();
    taken += take;
    append_blocks(runs, file_of(extent.key), block_of(extent.key), take, max_run_blocks);
    cursor = next;
  }
  return runs;
}

std::int64_t BufferCache::invalidate_file(std::uint32_t file) {
  std::int64_t cancelled = 0;
  for (auto entry = index_.ceil(key_of(file, 0)); entry && file_of(entry->key) == file;
       entry = index_.ceil(entry->key + 1)) {
    const std::uint32_t slot = entry->value;
    Extent& extent = pool_[slot];
    switch (extent.state) {
      case State::kClean:
        clean_unlink(slot);
        break;
      case State::kDirty:
        dirty_unlink(slot);
        cancelled += extent.count;
        break;
      case State::kFetching:
      case State::kFlushing:
        // In-flight transfers complete against a dead block; leave them so
        // fetch/flush_complete bookkeeping stays simple.
        continue;
    }
    owners_[extent.owner].owned -= extent.count;
    live_count_ -= extent.count;
    erase_extent(slot);
  }
  sequential_.erase(file);
  metrics_->writes_cancelled_blocks += cancelled;
  return cancelled;
}

bool BufferCache::over_watermark() const {
  return static_cast<double>(dirty_count_) >
         params_.dirty_high_watermark * static_cast<double>(capacity_blocks_);
}

}  // namespace craysim::sim
