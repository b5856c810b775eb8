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
// recycled), chained in (file, first block) order. The clean LRU and the
// key-ordered dirty list are intrusive lists of extents. An operation
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
//
// The extents form one chain in key order, linked both ways (`succ`,
// `pred`), so a split, an insert into a gap, a merge or an eviction relinks
// its neighbours in O(1). Most lookups start from a nearby extent: the
// extent the walk just handled, the extent where the file's last request
// ended, the extent a completion's plan created, or the extent where the
// cache's last walk ended. The few that none of these resolves start at an
// *anchor*, an extent the ordered index holds, and walk the chain forward
// (docs/PERF.md, "Buffer cache").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/params.hpp"
#include "util/flat_map.hpp"
#include "util/sorted_map.hpp"
#include "util/units.hpp"

namespace craysim::sim {

/// A contiguous block range of one file (unit: cache blocks).
struct BlockRun {
  static constexpr std::uint32_t kNoHint = 0xffffffffu;

  std::uint32_t file = 0;
  std::int64_t first_block = 0;
  std::int64_t count = 0;
  /// For a run the cache planned: the cache slot that held the run's first
  /// block, where the run's completion starts its lookup. It is advice (any
  /// value is safe), so runs compare equal by their blocks alone.
  std::uint32_t hint = kNoHint;

  [[nodiscard]] Bytes bytes(Bytes block_size) const { return count * block_size; }
  friend bool operator==(const BlockRun& a, const BlockRun& b) {
    return a.file == b.file && a.first_block == b.first_block && a.count == b.count;
  }
};

/// Operations on the buffer cache's anchor index, and the chain steps of
/// the lookups that searched it: a deterministic measure of the cache's
/// work, kept out of CacheMetrics and SimResult.
struct CacheIndexOps {
  std::uint64_t lookups = 0;  ///< searches: lookups no neighbour resolved,
                              ///< and one per invalidate_file
  std::uint64_t inserts = 0;  ///< an extent anchored
  std::uint64_t erases = 0;   ///< an anchored extent merged away or evicted
  std::uint64_t rekeys = 0;   ///< an anchored extent's first key moved up in place
  std::uint64_t walk_steps = 0;  ///< chain steps those searches took from their anchor
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

  /// Keys pack `file << 32 | block`, and the key one past a request's last
  /// block must pack too, so block numbers stop below 2^32 - 1.
  static constexpr std::int64_t kBlockLimit = (std::int64_t{1} << 32) - 1;
  /// Throws craysim::Error, naming the file and the first block at or past
  /// kBlockLimit, unless blocks [first, end) of `file` lie below it.
  static void check_blocks(std::uint32_t file, std::int64_t first, std::int64_t end);

  /// Plans a read. On success, missing blocks are inserted in Fetching
  /// state; the blocks of fetch_runs[i] are tagged with operation id
  /// `first_op_id + i`, and the caller must issue run i under exactly that
  /// id so later requests can join it. No state is modified when space_wait
  /// or bypass is returned. Inserting can evict blocks of the same request
  /// that were counted present; if that leaves an insert with no clean block
  /// to evict, the request throws craysim::Error (as plan_write and
  /// try_issue_readahead do in the same situation). A request that reaches
  /// block kBlockLimit throws craysim::Error before anything is counted, as
  /// in plan_write.
  [[nodiscard]] ReadPlan plan_read(std::uint32_t pid, std::uint32_t file, Bytes offset,
                                   Bytes length, std::uint64_t first_op_id);

  /// Plans a write. Under write-behind the data lands dirty in the cache
  /// (stamped with `now` for delayed-write age policies); otherwise blocks
  /// enter Flushing state and the caller must issue the write-through runs.
  [[nodiscard]] WritePlan plan_write(std::uint32_t pid, std::uint32_t file, Bytes offset,
                                     Bytes length, std::uint64_t op_id, bool write_behind,
                                     Ticks now = Ticks::zero());

  /// Attempts to start the suggested prefetch. Never waits: returns nullopt
  /// when blocks are already present/in-flight, space is unavailable or the
  /// candidate reaches block kBlockLimit.
  [[nodiscard]] std::optional<BlockRun> try_issue_readahead(std::uint32_t pid,
                                                            const BlockRun& candidate,
                                                            std::uint64_t op_id);

  /// Marks a completed demand/readahead fetch: Fetching -> Clean. The lookup
  /// starts from `run.hint`, as the plan set it.
  void fetch_complete(const BlockRun& run);

  /// Marks a completed flush or write-through: Flushing -> Clean. The lookup
  /// starts from `run.hint`, as the plan or flush batch set it.
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
  [[nodiscard]] const CacheIndexOps& index_ops() const { return index_ops_; }

  /// Checks the bookkeeping against itself: the chain visits the live
  /// extents in key order without overlap and `pred` mirrors `succ`, the
  /// index holds exactly the anchored extents under their keys, op ids and
  /// dirty times appear only in the states that read them, the clean, dirty
  /// and per-owner lists sum to their counts, and the live extents sum to
  /// resident_blocks(). Returns the first violation found, or an empty
  /// string. For tests: it walks every extent.
  [[nodiscard]] std::string audit() const;

 private:
  enum class State : std::uint8_t { kClean, kDirty, kFetching, kFlushing };

  static constexpr std::uint32_t kNil = 0xffffffffu;
  static_assert(kNil == BlockRun::kNoHint);
  /// A lookup's walk anchors every kAnchorStride-th extent it passes.
  static constexpr std::uint32_t kAnchorStride = 16;

  /// `count` blocks from `key` on that share every attribute.
  struct Extent {
    std::uint64_t key = 0;         ///< file<<32 | first block
    /// The fetch op id while Fetching; when the blocks were last made dirty
    /// (a Ticks count) while Dirty or redirtied Flushing; zero otherwise, so
    /// that neighbours can merge. No state reads both, so they share a field.
    std::uint64_t stamp = 0;
    std::uint32_t count = 0;       ///< blocks; 0 while the slot is dead
    std::uint32_t owner = 0;       ///< index into owners_
    std::uint32_t succ = kNil;     ///< the extent with the next key
    std::uint32_t pred = kNil;     ///< the extent with the previous key
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
    bool anchored = false;         ///< held by the index under `key`

    [[nodiscard]] std::uint64_t end() const { return key + count; }
    [[nodiscard]] std::uint64_t op_id() const { return stamp; }
    [[nodiscard]] Ticks dirty_since() const { return Ticks(static_cast<std::int64_t>(stamp)); }
  };
  // A pass over a large cache touches every extent of its working set: a
  // 64-byte extent raised cache_sweep's peak RSS by 9 %.
  static_assert(sizeof(Extent) == 56);

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
  static std::uint64_t stamp_of(Ticks dirty_since) {
    return static_cast<std::uint64_t>(dirty_since.count());
  }
  /// Can `back` fold into `front`: same attributes, and `back` starts where
  /// `front` ends?
  static bool mergeable(const Extent& front, const Extent& back);

  /// Blocks of a request from some key up to `end` that share one fate: the
  /// blocks of extent `slot`, or (slot == kNil) blocks absent from the cache.
  struct Segment {
    std::uint32_t slot = kNil;
    std::uint64_t end = 0;
    /// Where the next segment's lookup starts: `slot`, or for absent blocks
    /// the extent after them (kNil: none).
    std::uint32_t after = kNil;
    std::uint32_t before = kNil;  ///< for absent blocks: the extent before them
  };

  [[nodiscard]] std::int64_t free_blocks() const { return capacity_blocks_ - live_count_; }
  /// Can `need` new blocks be produced (free + evictable clean)?
  [[nodiscard]] bool can_allocate(std::int64_t need, std::uint32_t pid) const;
  /// The segment starting at `key`: the extent holding `key` up to its end
  /// or `end`, or the absent blocks up to the next extent or `end`. It is
  /// read off `hint`, else `second`, when one is a live extent at or before
  /// `key` that holds it or whose successor holds it or bounds its gap; any
  /// other value, a slot number out of range included, is passed over. The
  /// rest is left to floor_of.
  [[nodiscard]] Segment segment(std::uint64_t key, std::uint64_t end, std::uint32_t hint,
                                std::uint32_t second = kNil);
  /// The live extent with the greatest key at or before `key` (kNil: none):
  /// a walk along the chain from the greatest anchor at or before `key`, or
  /// from the chain's head, anchoring every kAnchorStride-th extent it passes.
  std::uint32_t floor_of(std::uint64_t key);
  /// The extent just before the absent blocks of `gap`, which starts at
  /// `key`, once reserve's evictions have run: gap.before if it lives, else
  /// the predecessor of gap.after if that lives, else floor_of.
  std::uint32_t gap_pred(const Segment& gap, std::uint64_t key);
  /// Absent blocks in [first, end), given `head` = segment(first, end).
  [[nodiscard]] std::int64_t count_missing(Segment head, std::uint64_t first,
                                           std::uint64_t end);
  /// The owners_ index of `pid`, adding an entry on first use.
  std::uint32_t owner_index(std::uint32_t pid);
  /// Makes room for `n` blocks that `owner` inserts one at a time, evicting
  /// exactly the blocks the per-block rule would, and charges them to it.
  /// Pre-condition: can_allocate held for the whole request.
  void reserve(std::int64_t n, std::uint32_t owner);
  /// Evicts the `n` lowest (least recently used) blocks of clean extent `slot`.
  void evict_front(std::uint32_t slot, std::int64_t n);
  /// Chains a new Fetching, Dirty or Flushing extent after `pred` (kNil: at
  /// the head), linking a Dirty one; returns the extent that holds its
  /// blocks (a Dirty one may fold into the extent before it).
  std::uint32_t insert_extent(const Extent& extent, std::uint32_t pred);
  /// Splits `slot` at key `at`, strictly inside it; the back part follows the
  /// front on its lists. Returns the back part.
  std::uint32_t split(std::uint32_t slot, std::uint64_t at);
  /// Splits `slot` so that keys [first, end) form one extent; returns it.
  std::uint32_t isolate(std::uint32_t slot, std::uint64_t first, std::uint64_t end);
  // touch, make_dirty, write_through, clean_push_back, dirty_link and
  // dirty_merge return the extent that holds the blocks they handled
  // afterwards: the next segment's lookup starts there.
  /// Moves blocks [first, end) of clean extent `slot` to the MRU end.
  std::uint32_t touch(std::uint32_t slot, std::uint64_t first, std::uint64_t end);
  /// A write-behind write over blocks [first, end) of extent `slot`.
  std::uint32_t make_dirty(std::uint32_t slot, std::uint64_t first, std::uint64_t end,
                           std::uint32_t owner, Ticks now);
  /// A write-through write over blocks [first, end) of extent `slot`.
  std::uint32_t write_through(std::uint32_t slot, std::uint64_t first, std::uint64_t end,
                              std::uint32_t owner);
  /// Appends a Clean extent at the MRU end of the LRU and of its owner's
  /// list, folding it into the tail extent when it continues it.
  std::uint32_t clean_push_back(std::uint32_t slot);
  /// Unlinks a Clean extent from the LRU and its owner's list.
  void clean_unlink(std::uint32_t slot);
  /// Inserts a Dirty extent into the intrusive dirty list at its ascending
  /// key position (sequential writes append in O(1) via the tail/hint
  /// checks), bumps dirty_count_, and merges it with the neighbours it
  /// continues.
  std::uint32_t dirty_link(std::uint32_t slot);
  /// Unlinks a Dirty extent from the dirty list and drops dirty_count_.
  void dirty_unlink(std::uint32_t slot);
  /// Folds dirty extent `slot` into the list neighbours it continues.
  std::uint32_t dirty_merge(std::uint32_t slot);
  std::uint32_t alloc_slot();
  /// Unlinks `slot` from the chain (and the index, when anchored) and
  /// releases it to the free list.
  void erase_extent(std::uint32_t slot);

  CacheParams params_;
  CacheMetrics* metrics_;
  std::int64_t capacity_blocks_;
  std::int64_t cap_blocks_per_process_;  ///< 0 = unlimited
  std::vector<Extent> pool_;             ///< slot storage, stable indices
  std::uint32_t free_head_ = kNil;       ///< free list through next
  std::uint32_t chain_head_ = kNil;      ///< the live extent with the least key
  util::SortedMap64 anchors_;            ///< first key -> slot, anchored extents only
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
  util::FlatMap64<std::uint32_t> owner_of_pid_;  ///< pid -> owners_ index
  /// Where a file's last request ended: in bytes for the read-ahead
  /// detector, and as the extent that held its last block.
  struct FileState {
    Bytes last_end = -1;
    std::uint32_t finger = kNil;
  };
  util::FlatMap64<FileState> files_;
  std::uint32_t last_walk_ = kNil;  ///< the extent where the last walk ended
  CacheIndexOps index_ops_;
};

}  // namespace craysim::sim
