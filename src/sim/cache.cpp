#include "sim/cache.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>

#include "util/error.hpp"

namespace craysim::sim {
namespace {

std::int64_t first_block_of(Bytes offset, Bytes block_size) { return offset / block_size; }

std::int64_t end_block_of(Bytes offset, Bytes length, Bytes block_size) {
  return (offset + length + block_size - 1) / block_size;
}

/// Appends blocks [first, first + n) of `file`, held by cache slot `slot`,
/// to `runs` exactly as a block-at-a-time walk would: a block extends the
/// last run when it is that run's next block and the run is shorter than
/// `max_run` (<= 0: unlimited). A new run takes `slot` as its hint.
void append_blocks(std::vector<BlockRun>& runs, std::uint32_t file, std::int64_t first,
                   std::int64_t n, std::int64_t max_run, std::uint32_t slot) {
  while (n > 0) {
    const bool extends = !runs.empty() && runs.back().file == file &&
                         runs.back().first_block + runs.back().count == first &&
                         (max_run <= 0 || runs.back().count < max_run);
    if (!extends) runs.push_back({file, first, 0, slot});
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
  // An extent never holds more blocks than the cache, and counts them in 32 bits.
  if (capacity_blocks_ > std::numeric_limits<std::uint32_t>::max()) {
    throw ConfigError("cache capacity of 2^32 blocks or more");
  }
  cap_blocks_per_process_ =
      params_.per_process_cap > 0 ? params_.per_process_cap / params_.block_size : 0;
  if (params_.per_process_cap > 0 && cap_blocks_per_process_ == 0) {
    throw ConfigError("per-process cap smaller than one block");
  }
}

bool BufferCache::mergeable(const Extent& front, const Extent& back) {
  return front.end() == back.key && file_of(front.key) == file_of(back.key) &&
         front.state == back.state && front.owner == back.owner && front.stamp == back.stamp &&
         front.from_readahead == back.from_readahead && front.redirtied == back.redirtied;
}

void BufferCache::check_blocks(std::uint32_t file, std::int64_t first, std::int64_t end) {
  if (end <= kBlockLimit) return;
  throw Error("buffer cache: block " + std::to_string(std::max(first, kBlockLimit)) +
              " of file " + std::to_string(file) + " is past the last cacheable block, " +
              std::to_string(kBlockLimit - 1));
}

std::int64_t BufferCache::owned_blocks(std::uint32_t pid) const {
  const std::uint32_t* owner = owner_of_pid_.find(pid);
  return owner == nullptr ? 0 : owners_[*owner].owned;
}

std::uint32_t BufferCache::owner_index(std::uint32_t pid) {
  const std::size_t known = owner_of_pid_.size();
  std::uint32_t& owner = owner_of_pid_.emplace(pid);
  if (owner_of_pid_.size() != known) {
    owner = static_cast<std::uint32_t>(owners_.size());
    owners_.push_back(Owner{.pid = pid});
  }
  return owner;
}

BufferCache::Segment BufferCache::segment(std::uint64_t key, std::uint64_t end,
                                          std::uint32_t hint, std::uint32_t second) {
  // The chain is exact, so from any live extent at or before `key`, `key`
  // lies in it, in the gap after it, or in (or before) its successor. Only a
  // hint more than one extent short of `key` is left to floor_of.
  for (const std::uint32_t from : {hint, second}) {
    if (from >= pool_.size() || pool_[from].count == 0 || pool_[from].key > key) continue;
    const Extent& near = pool_[from];
    if (key < near.end()) return {from, std::min(near.end(), end), from};
    if (near.succ == kNil) return {kNil, end, kNil, from};
    const Extent& succ = pool_[near.succ];
    if (key < succ.key) return {kNil, std::min(succ.key, end), near.succ, from};
    if (key < succ.end()) return {near.succ, std::min(succ.end(), end), near.succ};
  }
  const std::uint32_t floor = floor_of(key);
  if (floor != kNil && key < pool_[floor].end()) {
    return {floor, std::min(pool_[floor].end(), end), floor};
  }
  const std::uint32_t next = floor != kNil ? pool_[floor].succ : chain_head_;
  return {kNil, next != kNil ? std::min(pool_[next].key, end) : end, next, floor};
}

std::uint32_t BufferCache::floor_of(std::uint64_t key) {
  static_assert(kNil == util::SortedMap64::kNoValue);
  ++index_ops_.lookups;
  std::uint32_t at = anchors_.floor(key);
  if (at == kNil) {
    at = chain_head_;
    if (at == kNil || pool_[at].key > key) return kNil;
  }
  for (std::uint32_t steps = 1;; ++steps) {
    const std::uint32_t next = pool_[at].succ;
    if (next == kNil || pool_[next].key > key) return at;
    at = next;
    ++index_ops_.walk_steps;
    if (steps % kAnchorStride == 0 && !pool_[at].anchored) {
      anchors_.insert(pool_[at].key, at);
      ++index_ops_.inserts;
      pool_[at].anchored = true;
    }
  }
}

std::uint32_t BufferCache::gap_pred(const Segment& gap, std::uint64_t key) {
  // reserve only frees slots, so a dead neighbour has not been reused, and a
  // live one is still beside the gap: evictions remove extents but add none.
  if (gap.before == kNil || pool_[gap.before].count != 0) return gap.before;
  if (gap.after != kNil && pool_[gap.after].count != 0) return pool_[gap.after].pred;
  return floor_of(key);
}

std::int64_t BufferCache::count_missing(Segment head, std::uint64_t first, std::uint64_t end) {
  std::int64_t missing = 0;
  for (std::uint64_t k = first;;) {
    if (head.slot == kNil) missing += static_cast<std::int64_t>(head.end - k);
    k = head.end;
    if (k >= end) return missing;
    head = segment(k, end, head.after);
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
  Extent& extent = pool_[slot];
  if (extent.anchored) {
    anchors_.erase(extent.key);
    ++index_ops_.erases;
  }
  (extent.pred != kNil ? pool_[extent.pred].succ : chain_head_) = extent.succ;
  if (extent.succ != kNil) pool_[extent.succ].pred = extent.pred;
  extent.count = 0;          // dead: no lookup starts from it
  extent.next = free_head_;  // free list threads through next
  free_head_ = slot;
}

std::uint32_t BufferCache::insert_extent(const Extent& extent, std::uint32_t pred) {
  assert(extent.state != State::kClean && extent.count > 0 && !extent.anchored);
  const std::uint32_t slot = alloc_slot();
  Extent& inserted = pool_[slot];
  inserted = extent;
  std::uint32_t& link = pred != kNil ? pool_[pred].succ : chain_head_;
  inserted.pred = pred;
  inserted.succ = link;
  if (link != kNil) pool_[link].pred = slot;
  link = slot;
  return extent.state == State::kDirty ? dirty_link(slot) : slot;
}

std::uint32_t BufferCache::split(std::uint32_t slot, std::uint64_t at) {
  const std::uint32_t back_slot = alloc_slot();
  Extent& front = pool_[slot];
  Extent& back = pool_[back_slot];
  assert(front.key < at && at < front.end());
  back = front;
  back.key = at;
  back.count = static_cast<std::uint32_t>(front.end() - at);
  back.anchored = false;
  front.count = static_cast<std::uint32_t>(at - front.key);
  back.pred = slot;
  if (back.succ != kNil) pool_[back.succ].pred = back_slot;
  front.succ = back_slot;
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

std::uint32_t BufferCache::clean_push_back(std::uint32_t slot) {
  Extent& extent = pool_[slot];
  Owner& owner = owners_[extent.owner];
  clean_count_ += extent.count;
  owner.clean += extent.count;
  if (lru_tail_ != kNil && mergeable(pool_[lru_tail_], extent)) {
    // The MRU extent is also its owner's newest, so both lists stay intact.
    pool_[lru_tail_].count += extent.count;
    erase_extent(slot);
    return lru_tail_;
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
  return slot;
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

std::uint32_t BufferCache::dirty_link(std::uint32_t slot) {
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
  return dirty_merge(slot);
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

std::uint32_t BufferCache::dirty_merge(std::uint32_t slot) {
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
  if (prev != kNil && mergeable(pool_[prev], pool_[slot])) {
    fold(prev, slot);
    return prev;
  }
  return slot;
}

bool BufferCache::can_allocate(std::int64_t need, std::uint32_t pid) const {
  if (need <= 0) return true;
  if (need > free_blocks() + clean_count_) return false;
  if (cap_blocks_per_process_ > 0) {
    const std::uint32_t* index = owner_of_pid_.find(pid);
    const Owner* owner = index == nullptr ? nullptr : &owners_[*index];
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
  extent.count -= static_cast<std::uint32_t>(n);
  clean_count_ -= n;
  owner.clean -= n;
  const std::uint64_t key = extent.key + static_cast<std::uint64_t>(n);
  if (extent.anchored) {
    anchors_.rekey(extent.key, key);
    ++index_ops_.rekeys;
  }
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
      batch = std::min<std::int64_t>(batch, pool_[victim].count);
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

std::uint32_t BufferCache::touch(std::uint32_t slot, std::uint64_t first, std::uint64_t end) {
  // A suffix of the MRU extent is already in the order a touch leaves it.
  if (slot == lru_tail_ && end == pool_[slot].end()) return slot;
  slot = isolate(slot, first, end);
  clean_unlink(slot);
  return clean_push_back(slot);
}

std::uint32_t BufferCache::make_dirty(std::uint32_t slot, std::uint64_t first, std::uint64_t end,
                                      std::uint32_t owner, Ticks now) {
  const State state = pool_[slot].state;
  if (state == State::kDirty && pool_[slot].owner == owner &&
      pool_[slot].stamp == stamp_of(now)) {
    return slot;
  }
  slot = isolate(slot, first, end);
  if (state == State::kClean) clean_unlink(slot);
  Extent& extent = pool_[slot];
  // Re-owned without moving owned counts, as the per-block cache did.
  extent.owner = owner;
  extent.from_readahead = false;
  extent.stamp = stamp_of(now);  // over a Fetching extent's op id
  switch (state) {
    case State::kClean:
    case State::kFetching:
      // A Fetching block overwritten before its fetch landed: the fetched
      // data is stale.
      extent.state = State::kDirty;
      return dirty_link(slot);
    case State::kDirty:
      return dirty_merge(slot);
    case State::kFlushing:
      extent.redirtied = true;
      break;
  }
  return slot;
}

std::uint32_t BufferCache::write_through(std::uint32_t slot, std::uint64_t first,
                                         std::uint64_t end, std::uint32_t owner) {
  const State state = pool_[slot].state;
  if (state == State::kFlushing && pool_[slot].owner == owner && !pool_[slot].from_readahead) {
    return slot;
  }
  slot = isolate(slot, first, end);
  if (state == State::kClean) clean_unlink(slot);
  if (state == State::kDirty) dirty_unlink(slot);
  Extent& extent = pool_[slot];
  extent.owner = owner;
  extent.from_readahead = false;
  if (state != State::kFlushing) {
    extent.state = State::kFlushing;
    extent.stamp = 0;
  }
  return slot;
}

BufferCache::ReadPlan BufferCache::plan_read(std::uint32_t pid, std::uint32_t file, Bytes offset,
                                             Bytes length, std::uint64_t first_op_id) {
  ReadPlan plan;
  const Bytes bs = params_.block_size;
  const std::int64_t b0 = first_block_of(offset, bs);
  const std::int64_t b1 = end_block_of(offset, length, bs);
  const std::int64_t span = b1 - b0;
  check_blocks(file, b0, b1);
  ++metrics_->read_requests;

  if (span > capacity_blocks_) {
    plan.bypass = true;
    ++metrics_->read_misses;
    return plan;
  }

  // Pass 1 (no mutation): count missing blocks.
  const std::uint64_t first = key_of(file, b0);
  const std::uint64_t end = key_of(file, b1);
  FileState& file_state = files_.emplace(file);
  const Segment head = segment(first, end, file_state.finger, last_walk_);
  const std::int64_t missing = count_missing(head, first, end);
  if (missing > 0 && !can_allocate(missing, pid)) {
    plan.space_wait = true;
    --metrics_->read_requests;  // the retry will count it
    return plan;
  }

  // Pass 2, segment by segment in ascending order: touch hits, join
  // in-flight fetches, insert missing blocks as Fetching. Nothing has
  // changed since pass 1 looked up the first segment. `at` is the extent
  // that holds the blocks handled last.
  const std::uint32_t owner = owner_index(pid);
  std::int64_t present = 0;
  std::uint32_t at = head.after;
  for (std::uint64_t k = first; k < end;) {
    const Segment seg = k == first ? head : segment(k, end, at);
    const std::uint64_t seg_end = seg.end;
    std::uint32_t slot = seg.slot;
    const auto n = static_cast<std::int64_t>(seg_end - k);
    if (slot == kNil) {
      const std::int64_t block = block_of(k);
      const bool extends_run = !plan.fetch_runs.empty() &&
                               plan.fetch_runs.back().first_block + plan.fetch_runs.back().count ==
                                   block;
      reserve(n, owner);
      Extent fetching;
      fetching.key = k;
      fetching.count = static_cast<std::uint32_t>(n);
      fetching.state = State::kFetching;
      fetching.owner = owner;
      fetching.stamp = first_op_id + plan.fetch_runs.size() - (extends_run ? 1 : 0);
      at = insert_extent(fetching, gap_pred(seg, k));
      if (!extends_run) plan.fetch_runs.push_back({file, block, 0, at});
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
      at = slot;
      if (hit.state == State::kClean) {
        at = touch(slot, k, seg_end);
      } else if (hit.state == State::kFetching &&
                 std::find(plan.join_ops.begin(), plan.join_ops.end(), hit.op_id()) ==
                     plan.join_ops.end()) {
        plan.join_ops.push_back(hit.op_id());
      }
      // Dirty/Flushing blocks hold valid data: plain hits.
    }
    // Inserting may have evicted blocks further on in this request, so the
    // next segment is looked up afresh.
    k = seg_end;
  }
  file_state.finger = last_walk_ = at;

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
    if (file_state.last_end == offset) {
      const std::int64_t ahead = std::max<std::int64_t>(1, (length + bs - 1) / bs);
      plan.readahead = BlockRun{file, b1, ahead};
    }
    file_state.last_end = offset + length;
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
  check_blocks(file, b0, b1);
  ++metrics_->write_requests;

  if (span > capacity_blocks_) {
    plan.bypass = true;
    return plan;
  }

  const std::uint64_t first = key_of(file, b0);
  const std::uint64_t end = key_of(file, b1);
  FileState& file_state = files_.emplace(file);
  const Segment head = segment(first, end, file_state.finger, last_walk_);
  const std::int64_t missing = count_missing(head, first, end);
  if (missing > 0 && !can_allocate(missing, pid)) {
    plan.space_wait = true;
    --metrics_->write_requests;
    return plan;
  }

  // Under write-behind every block ends Dirty (or redirtied while Flushing);
  // under write-through every block goes to disk now.
  const std::uint32_t owner = owner_index(pid);
  std::uint32_t at = head.after;
  std::uint32_t first_slot = kNil;  // holds block b0 once the walk has handled it
  for (std::uint64_t k = first; k < end;) {
    const Segment seg = k == first ? head : segment(k, end, at);
    if (seg.slot == kNil) {
      reserve(static_cast<std::int64_t>(seg.end - k), owner);
      Extent fresh;
      fresh.key = k;
      fresh.count = static_cast<std::uint32_t>(seg.end - k);
      fresh.owner = owner;
      fresh.state = write_behind ? State::kDirty : State::kFlushing;
      if (write_behind) fresh.stamp = stamp_of(now);
      at = insert_extent(fresh, gap_pred(seg, k));
    } else if (write_behind) {
      at = make_dirty(seg.slot, k, seg.end, owner, now);
    } else {
      at = write_through(seg.slot, k, seg.end, owner);
    }
    if (k == first) first_slot = at;
    k = seg.end;
  }
  file_state.finger = last_walk_ = at;
  if (write_behind) {
    plan.absorbed = true;
    ++metrics_->write_absorbed;
  } else if (span > 0) {
    plan.writethrough_runs.push_back({file, b0, span, first_slot});
  }

  // Writes also advance the sequential detector (appending writes should not
  // be mistaken for random reads later).
  if (params_.read_ahead) file_state.last_end = offset + length;
  return plan;
}

std::optional<BlockRun> BufferCache::try_issue_readahead(std::uint32_t pid,
                                                         const BlockRun& candidate,
                                                         std::uint64_t op_id) {
  if (candidate.count <= 0 || candidate.first_block + candidate.count > kBlockLimit) {
    return std::nullopt;
  }
  // Only prefetch when the whole candidate is absent (the frontier case).
  const std::uint64_t first = key_of(candidate.file, candidate.first_block);
  const std::uint64_t end = first + static_cast<std::uint64_t>(candidate.count);
  const Segment seg = segment(first, end, last_walk_);
  if (seg.slot != kNil || seg.end != end) return std::nullopt;
  if (!can_allocate(candidate.count, pid)) return std::nullopt;
  const std::uint32_t owner = owner_index(pid);
  reserve(candidate.count, owner);
  Extent prefetch;
  prefetch.key = first;
  prefetch.count = static_cast<std::uint32_t>(candidate.count);  // can_allocate bounds it
  prefetch.state = State::kFetching;
  prefetch.owner = owner;
  prefetch.stamp = op_id;
  prefetch.from_readahead = true;
  last_walk_ = insert_extent(prefetch, gap_pred(seg, first));
  ++metrics_->readahead_issued;
  metrics_->readahead_fetched_blocks += candidate.count;
  BlockRun issued = candidate;
  issued.hint = last_walk_;
  return issued;
}

// Completions ignore op ids: every Fetching (Flushing) block in the run
// completes, whichever operation it was tagged with.
void BufferCache::fetch_complete(const BlockRun& run) {
  const std::uint64_t first = key_of(run.file, run.first_block);
  const std::uint64_t end =
      first + static_cast<std::uint64_t>(std::max<std::int64_t>(run.count, 0));
  std::uint32_t at = last_walk_;
  for (std::uint64_t k = first; k < end;) {
    const Segment seg = k == first ? segment(k, end, run.hint, at) : segment(k, end, at);
    at = seg.after;
    if (seg.slot != kNil && pool_[seg.slot].state == State::kFetching) {  // else overwritten
      const std::uint32_t slot = isolate(seg.slot, k, seg.end);
      pool_[slot].state = State::kClean;
      pool_[slot].stamp = 0;
      at = clean_push_back(slot);
    }
    k = seg.end;
  }
  last_walk_ = at;
}

void BufferCache::flush_complete(const BlockRun& run) {
  const std::uint64_t first = key_of(run.file, run.first_block);
  const std::uint64_t end =
      first + static_cast<std::uint64_t>(std::max<std::int64_t>(run.count, 0));
  std::uint32_t at = last_walk_;
  for (std::uint64_t k = first; k < end;) {
    const Segment seg = k == first ? segment(k, end, run.hint, at) : segment(k, end, at);
    at = seg.after;
    if (seg.slot != kNil && pool_[seg.slot].state == State::kFlushing) {
      const std::uint32_t slot = isolate(seg.slot, k, seg.end);
      Extent& extent = pool_[slot];
      if (extent.redirtied) {
        extent.redirtied = false;
        extent.state = State::kDirty;
        at = dirty_link(slot);
      } else {
        extent.state = State::kClean;
        extent.stamp = 0;
        at = clean_push_back(slot);
      }
    }
    k = seg.end;
  }
  last_walk_ = at;
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
    if (min_age > Ticks::zero() && pool_[cursor].dirty_since() + min_age > now) {
      cursor = next;  // still younger than the delayed-write threshold
      continue;
    }
    // The lowest keys go first; a partly taken extent leaves its tail dirty
    // (and ends the batch).
    const std::int64_t take = std::min<std::int64_t>(pool_[cursor].count, max_blocks - taken);
    if (take < pool_[cursor].count) {
      split(cursor, pool_[cursor].key + static_cast<std::uint64_t>(take));
    }
    dirty_unlink(cursor);
    Extent& extent = pool_[cursor];
    extent.state = State::kFlushing;
    extent.stamp = 0;
    taken += take;
    append_blocks(runs, file_of(extent.key), block_of(extent.key), take, max_run_blocks, cursor);
    cursor = next;
  }
  return runs;
}

std::int64_t BufferCache::invalidate_file(std::uint32_t file) {
  std::int64_t cancelled = 0;
  const std::uint64_t first = key_of(file, 0);
  const std::uint32_t floor = floor_of(first);
  std::uint32_t slot = floor == kNil                ? chain_head_
                       : pool_[floor].key == first ? floor
                                                   : pool_[floor].succ;
  while (slot != kNil && file_of(pool_[slot].key) == file) {
    Extent& extent = pool_[slot];
    const std::uint32_t succ = extent.succ;
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
        slot = succ;
        continue;
    }
    owners_[extent.owner].owned -= extent.count;
    live_count_ -= extent.count;
    erase_extent(slot);
    slot = succ;
  }
  files_.erase(file);
  metrics_->writes_cancelled_blocks += cancelled;
  return cancelled;
}

bool BufferCache::over_watermark() const {
  return static_cast<double>(dirty_count_) >
         params_.dirty_high_watermark * static_cast<double>(capacity_blocks_);
}

std::string BufferCache::audit() const {
  const auto at = [](std::uint64_t key) {
    return " (file " + std::to_string(file_of(key)) + ", block " +
           std::to_string(block_of(key)) + ")";
  };
  // The chain from its head: ascending keys, no overlap, `pred` mirroring
  // `succ`, anchors indexed under their keys.
  std::uint64_t covered = 0;  // end of the previous extent
  std::int64_t live = 0;
  std::size_t chained = 0;
  std::size_t anchored = 0;
  std::uint32_t behind = kNil;  // the previous extent on the chain
  for (std::uint32_t slot = chain_head_; slot != kNil; slot = pool_[slot].succ) {
    const Extent& extent = pool_[slot];
    if (++chained > pool_.size()) return "chain loops";
    if (extent.count == 0) return "chain holds a dead slot" + at(extent.key);
    if (extent.pred != behind) return "pred does not mirror succ" + at(extent.key);
    if (extent.key < covered) return "extent overlaps its predecessor" + at(extent.key);
    if (extent.anchored) {
      const auto entry = anchors_.ceil(extent.key);
      if (!entry || entry->key != extent.key || entry->value != slot) {
        return "anchored extent missing from the index" + at(extent.key);
      }
      ++anchored;
    }
    const bool stamped = extent.state == State::kFetching || extent.state == State::kDirty ||
                         (extent.state == State::kFlushing && extent.redirtied);
    if (extent.stamp != 0 && !stamped) {
      return "op id or dirty time outside Fetching, Dirty and redirtied Flushing" +
             at(extent.key);
    }
    if (extent.redirtied && extent.state != State::kFlushing) {
      return "redirtied extent is not Flushing" + at(extent.key);
    }
    covered = extent.end();
    live += extent.count;
    behind = slot;
  }
  if (live != live_count_) {
    return "live extents hold " + std::to_string(live) + " blocks, resident count is " +
           std::to_string(live_count_);
  }
  for (auto entry = anchors_.ceil(0); entry; entry = anchors_.ceil(entry->key + 1)) {
    const Extent& extent = pool_[entry->value];
    if (extent.count == 0 || !extent.anchored || extent.key != entry->key) {
      return "index entry names no live anchored extent with its key" + at(entry->key);
    }
  }
  if (anchored != anchors_.size()) return "index holds extents the chain does not anchor";
  std::size_t dead = 0;
  for (std::uint32_t slot = free_head_; slot != kNil; slot = pool_[slot].next) {
    if (pool_[slot].count != 0) return "free slot " + std::to_string(slot) + " holds blocks";
    if (++dead > pool_.size()) return "free list loops";
  }
  if (dead + chained != pool_.size()) return "slots neither free nor chained";

  // Blocks on the list from `head` through `next`, or -1 unless every extent
  // on it is live and `belongs`, its back links hold and it ends at `tail`.
  const auto list_blocks = [this](std::uint32_t head, std::uint32_t tail,
                                  std::uint32_t Extent::*next, std::uint32_t Extent::*prev,
                                  auto belongs) -> std::int64_t {
    std::int64_t blocks = 0;
    std::uint32_t before = kNil;
    std::size_t steps = 0;
    for (std::uint32_t slot = head; slot != kNil; slot = pool_[slot].*next) {
      const Extent& extent = pool_[slot];
      if (extent.count == 0 || !belongs(extent) || extent.*prev != before ||
          ++steps > pool_.size()) {
        return -1;
      }
      blocks += extent.count;
      before = slot;
    }
    return before == tail ? blocks : -1;
  };
  const auto in = [](State state) { return [state](const Extent& e) { return e.state == state; }; };
  if (list_blocks(lru_head_, lru_tail_, &Extent::next, &Extent::prev, in(State::kClean)) !=
      clean_count_) {
    return "clean list does not sum to the clean count";
  }
  if (list_blocks(dirty_head_, dirty_tail_, &Extent::next, &Extent::prev, in(State::kDirty)) !=
      dirty_count_) {
    return "dirty list does not sum to the dirty count";
  }
  std::int64_t owned_clean = 0;
  for (std::uint32_t i = 0; i < owners_.size(); ++i) {
    const auto mine = [i](const Extent& e) { return e.state == State::kClean && e.owner == i; };
    if (list_blocks(owners_[i].head, owners_[i].tail, &Extent::owner_next, &Extent::owner_prev,
                    mine) != owners_[i].clean) {
      return "clean list of pid " + std::to_string(owners_[i].pid) + " does not sum to its count";
    }
    owned_clean += owners_[i].clean;
  }
  if (owned_clean != clean_count_) return "owners' clean lists do not sum to the clean count";
  return {};
}

}  // namespace craysim::sim
