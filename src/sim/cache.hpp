// The block buffer cache of Section 6: LRU replacement, read-ahead,
// write-behind, and optional per-process ownership caps.
//
// The cache is pure bookkeeping — it never advances time. The simulator asks
// it to *plan* each read/write; the plan says which block runs must move
// to/from the disk and which in-flight operations the request must join.
// Completion notifications flow back through fetch_complete/flush_complete.
//
// Storage layout (hot path): bookkeeping is per *extent*, a run of
// key-contiguous blocks of one file that share state, owner, fetch op, dirty
// time and flags. Extents live in a slot pool (stable indices, free-list
// recycled) behind an index ordered by (file, first block). The clean LRU and
// the key-ordered dirty list are intrusive lists of extents. An operation
// that covers part of an extent splits it, and an extent that continues its
// list neighbour with the same attributes merges into it, so a 128-block
// request costs a handful of extent operations instead of 128 block ones.
//
// Observable behaviour is exactly that of a per-block cache; the per-block
// implementation survives as the lockstep reference in tests/. What keeps
// extents exact:
//  * Inside a clean extent, LRU order is ascending block number: touches,
//    fetch_complete and flush_complete all move blocks to the MRU end in
//    ascending order. The LRU block is the lowest block of the head extent.
//  * A clean block never changes owner, so each owner's clean list, kept
//    beside the global LRU, is that LRU filtered by owner. The per-process
//    cap check and the owner-preferring eviction are therefore O(1).
//  * Inserting may evict blocks later in the same request, so a request
//    walks its blocks one segment (an extent's blocks, or a run of absent
//    blocks) at a time and looks each segment up afresh.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/params.hpp"
#include "util/sorted_map.hpp"
#include "util/units.hpp"

namespace craysim::sim {

/// A contiguous block range of one file (unit: cache blocks).
struct BlockRun {
  std::uint32_t file = 0;
  std::int64_t first_block = 0;
  std::int64_t count = 0;

  [[nodiscard]] Bytes bytes(Bytes block_size) const { return count * block_size; }
  friend bool operator==(const BlockRun&, const BlockRun&) = default;
};

class BufferCache {
 public:
  BufferCache(const CacheParams& params, CacheMetrics& metrics);

  struct ReadPlan {
    bool space_wait = false;   ///< no allocatable space: retry after a flush
    bool bypass = false;       ///< request larger than the cache: go direct
    bool full_hit = false;     ///< served entirely from cache
    bool readahead_hit = false;  ///< some touched block arrived via prefetch
    std::vector<BlockRun> fetch_runs;        ///< fetches this request starts
    std::vector<std::uint64_t> join_ops;     ///< in-flight fetches to wait on
    std::optional<BlockRun> readahead;       ///< suggested sequential prefetch
  };

  struct WritePlan {
    bool space_wait = false;
    bool bypass = false;
    bool absorbed = false;                   ///< write-behind: returns immediately
    std::vector<BlockRun> writethrough_runs; ///< must reach disk before returning
  };

  /// Plans a read. On success, missing blocks are inserted in Fetching
  /// state; the blocks of fetch_runs[i] are tagged with operation id
  /// `first_op_id + i`, and the caller must issue run i under exactly that
  /// id so later requests can join it. No state is modified when space_wait
  /// or bypass is returned. Inserting can evict blocks of the same request
  /// that were counted present; if that leaves an insert with no clean block
  /// to evict, the request throws craysim::Error (as plan_write and
  /// try_issue_readahead do in the same situation).
  [[nodiscard]] ReadPlan plan_read(std::uint32_t pid, std::uint32_t file, Bytes offset,
                                   Bytes length, std::uint64_t first_op_id);

  /// Plans a write. Under write-behind the data lands dirty in the cache
  /// (stamped with `now` for delayed-write age policies); otherwise blocks
  /// enter Flushing state and the caller must issue the write-through runs.
  [[nodiscard]] WritePlan plan_write(std::uint32_t pid, std::uint32_t file, Bytes offset,
                                     Bytes length, std::uint64_t op_id, bool write_behind,
                                     Ticks now = Ticks::zero());

  /// Attempts to start the suggested prefetch. Never waits: returns nullopt
  /// when blocks are already present/in-flight or space is unavailable.
  [[nodiscard]] std::optional<BlockRun> try_issue_readahead(std::uint32_t pid,
                                                            const BlockRun& candidate,
                                                            std::uint64_t op_id);

  /// Marks a completed demand/readahead fetch: Fetching -> Clean.
  void fetch_complete(const BlockRun& run);

  /// Marks a completed flush or write-through: Flushing -> Clean.
  void flush_complete(const BlockRun& run);

  /// Collects up to `max_blocks` dirty blocks into contiguous runs (each at
  /// most `max_run_blocks` long; <=0 means unlimited) and marks them
  /// Flushing; the caller issues the disk writes. With `min_age` > 0 only
  /// blocks dirtied at or before `now - min_age` are taken — the Sprite-style
  /// delayed-write policy of Section 2.1 (pass min_age zero to force a full
  /// flush under space pressure).
  [[nodiscard]] std::vector<BlockRun> collect_flush_batch(std::int64_t max_blocks,
                                                          std::int64_t max_run_blocks = 0,
                                                          Ticks now = Ticks::zero(),
                                                          Ticks min_age = Ticks::zero());

  /// Drops every block of `file` (close-and-delete): clean/fetched data is
  /// discarded, dirty blocks are cancelled before ever reaching the disk —
  /// the temporary-file savings delayed writes exist for. Blocks currently
  /// Fetching or Flushing are left to complete. Returns the number of dirty
  /// blocks whose writes were avoided.
  std::int64_t invalidate_file(std::uint32_t file);

  [[nodiscard]] std::int64_t dirty_block_count() const { return dirty_count_; }
  [[nodiscard]] std::int64_t clean_block_count() const { return clean_count_; }
  [[nodiscard]] bool over_watermark() const;
  [[nodiscard]] Bytes block_size() const { return params_.block_size; }
  [[nodiscard]] std::int64_t capacity_blocks() const { return capacity_blocks_; }
  [[nodiscard]] std::int64_t resident_blocks() const { return live_count_; }
  [[nodiscard]] std::int64_t owned_blocks(std::uint32_t pid) const;

 private:
  enum class State : std::uint8_t { kClean, kDirty, kFetching, kFlushing };

  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// `count` blocks from `key` on that share every attribute. Attributes a
  /// state never reads are held at zero (op_id outside Fetching; dirty_since
  /// outside Dirty and redirtied Flushing) so that neighbours can merge.
  struct Extent {
    std::uint64_t key = 0;         ///< file<<32 | first block
    std::int64_t count = 0;
    std::uint64_t op_id = 0;       ///< fetch op while Fetching
    Ticks dirty_since;             ///< when the blocks were last made dirty
    std::uint32_t owner = 0;       ///< index into owners_
    // Intrusive list links (slot indices): the clean LRU while Clean, the
    // key-ordered dirty list while Dirty (the states are disjoint, so one
    // pair of links serves both) — and the free list through `next` while
    // the slot is dead.
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint32_t owner_prev = kNil;  ///< the owner's clean list while Clean
    std::uint32_t owner_next = kNil;
    State state = State::kClean;
    bool from_readahead = false;   ///< fetched by prefetch, not yet referenced
    bool redirtied = false;        ///< written while Flushing

    [[nodiscard]] std::uint64_t end() const { return key + static_cast<std::uint64_t>(count); }
  };

  struct Owner {
    std::uint32_t pid = 0;
    /// Blocks charged to the process: +1 per block it inserts, -1 per block
    /// evicted or invalidated while it owns it. Writes re-own blocks without
    /// moving this count.
    std::int64_t owned = 0;
    std::int64_t clean = 0;        ///< blocks on its clean list
    std::uint32_t head = kNil;     ///< its clean list, LRU at head
    std::uint32_t tail = kNil;
  };

  static std::uint64_t key_of(std::uint32_t file, std::int64_t block) {
    return (static_cast<std::uint64_t>(file) << 32) | static_cast<std::uint64_t>(block);
  }
  static std::uint32_t file_of(std::uint64_t key) { return static_cast<std::uint32_t>(key >> 32); }
  static std::int64_t block_of(std::uint64_t key) {
    return static_cast<std::int64_t>(key & 0xffffffffull);
  }
  /// Can `back` fold into `front`: same attributes, and `back` starts where
  /// `front` ends?
  static bool mergeable(const Extent& front, const Extent& back);

  /// Blocks of a request from some key up to `end` that share one fate: the
  /// blocks of extent `slot`, or (slot == kNil) blocks absent from the cache.
  struct Segment {
    std::uint32_t slot = kNil;
    std::uint64_t end = 0;
  };

  [[nodiscard]] std::int64_t free_blocks() const { return capacity_blocks_ - live_count_; }
  /// Can `need` new blocks be produced (free + evictable clean)?
  [[nodiscard]] bool can_allocate(std::int64_t need, std::uint32_t pid) const;
  /// The segment starting at `key`: the extent holding `key` up to its end
  /// or `end`, or the absent blocks up to the next extent or `end`.
  [[nodiscard]] Segment segment(std::uint64_t key, std::uint64_t end) const;
  /// Absent blocks in [first, end), given `head` = segment(first, end).
  [[nodiscard]] std::int64_t count_missing(Segment head, std::uint64_t first,
                                           std::uint64_t end) const;
  /// The owners_ index of `pid`, adding an entry on first use.
  std::uint32_t owner_index(std::uint32_t pid);
  /// Makes room for `n` blocks that `owner` inserts one at a time, evicting
  /// exactly the blocks the per-block rule would, and charges them to it.
  /// Pre-condition: can_allocate held for the whole request.
  void reserve(std::int64_t n, std::uint32_t owner);
  /// Evicts the `n` lowest (least recently used) blocks of clean extent `slot`.
  void evict_front(std::uint32_t slot, std::int64_t n);
  /// Indexes a new Fetching, Dirty or Flushing extent (linking a Dirty one).
  void insert_extent(const Extent& extent);
  /// Splits `slot` at key `at`, strictly inside it; the back part follows the
  /// front on its lists. Returns the back part.
  std::uint32_t split(std::uint32_t slot, std::uint64_t at);
  /// Splits `slot` so that keys [first, end) form one extent; returns it.
  std::uint32_t isolate(std::uint32_t slot, std::uint64_t first, std::uint64_t end);
  /// Moves blocks [first, end) of clean extent `slot` to the MRU end.
  void touch(std::uint32_t slot, std::uint64_t first, std::uint64_t end);
  /// A write-behind write over blocks [first, end) of extent `slot`.
  void make_dirty(std::uint32_t slot, std::uint64_t first, std::uint64_t end,
                  std::uint32_t owner, Ticks now);
  /// A write-through write over blocks [first, end) of extent `slot`.
  void write_through(std::uint32_t slot, std::uint64_t first, std::uint64_t end,
                     std::uint32_t owner);
  /// Appends a Clean extent at the MRU end of the LRU and of its owner's
  /// list, folding it into the tail extent when it continues it.
  void clean_push_back(std::uint32_t slot);
  /// Unlinks a Clean extent from the LRU and its owner's list.
  void clean_unlink(std::uint32_t slot);
  /// Inserts a Dirty extent into the intrusive dirty list at its ascending
  /// key position (sequential writes append in O(1) via the tail/hint
  /// checks), bumps dirty_count_, and merges it with the neighbours it
  /// continues.
  void dirty_link(std::uint32_t slot);
  /// Unlinks a Dirty extent from the dirty list and drops dirty_count_.
  void dirty_unlink(std::uint32_t slot);
  /// Folds dirty extent `slot` into the list neighbours it continues.
  void dirty_merge(std::uint32_t slot);
  std::uint32_t alloc_slot();
  /// Drops `slot` from the index and releases it to the free list.
  void erase_extent(std::uint32_t slot);

  CacheParams params_;
  CacheMetrics* metrics_;
  std::int64_t capacity_blocks_;
  std::int64_t cap_blocks_per_process_;  ///< 0 = unlimited
  std::vector<Extent> pool_;             ///< slot storage, stable indices
  std::uint32_t free_head_ = kNil;       ///< free list through next
  util::SortedMap64 index_;              ///< first key -> slot
  std::uint32_t lru_head_ = kNil;        ///< clean extents, LRU at head
  std::uint32_t lru_tail_ = kNil;        ///< MRU end
  std::int64_t clean_count_ = 0;         ///< counts are in blocks
  std::int64_t live_count_ = 0;
  // Intrusive dirty list, ascending by key so flush batches form contiguous
  // runs. dirty_hint_ remembers the last insertion point: workloads with
  // write locality (the common case) link neighbors in O(1) instead of
  // walking from an end.
  std::uint32_t dirty_head_ = kNil;
  std::uint32_t dirty_tail_ = kNil;
  std::uint32_t dirty_hint_ = kNil;
  std::int64_t dirty_count_ = 0;
  std::vector<Owner> owners_;  ///< one per pid seen, in order of first use
  std::unordered_map<std::uint32_t, std::uint32_t> owner_of_pid_;  ///< pid -> owners_ index
  // Per-file sequential detector for read-ahead: where the last access ended.
  struct SeqState {
    Bytes last_end = -1;
  };
  std::unordered_map<std::uint32_t, SeqState> sequential_;
};

}  // namespace craysim::sim
