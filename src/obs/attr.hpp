// Latency attribution: constant-memory blame ledgers for simulated I/O.
//
// The simulator decomposes every logical I/O request's measured latency into
// additive components (file-system call overhead, cache-hit copy service,
// read-ahead credit, write-behind absorption, cache-miss wait, space wait,
// interrupt service, scheduler re-entry) and every disk transfer's service
// time into queue / controller / seek / rotation / transfer / fault parts,
// then accumulates them here. The ledger is fixed-size (per-file, per-process,
// per-app-phase, and per-request-size tables with bounded slot counts plus an
// overflow row) and takes one writer at a time. Its counters are atomics
// that the writer updates with relaxed loads and stores, so the live
// telemetry plane can scrape /attribution mid-run without locks or races
// while the simulator keeps writing.
//
// Conservation contract (enforced by debug asserts and pinned by tests):
//   * per op: the component ticks sum exactly to the op's measured latency
//     (completion minus first issue);
//   * per ledger: every scope's rows sum to the same grand totals, the
//     miss + space components equal the simulator's summed per-process
//     blocked time, and the disk components reproduce DeviceMetrics
//     busy/queue-wait time exactly.
// Components are telescoped timestamps, so the per-op sum is exact by
// construction; the asserts catch a lifecycle path that forgot to stamp.
//
// Like SimParams::spans, the hook (SimParams::attribution) is null by
// default: every instrumentation site is then a single predicted branch and
// the simulation is bit-identical to an unattributed build.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace craysim::obs {

class MetricsRegistry;

// ---- Component vocabularies ------------------------------------------------

/// Op-level latency components. Every finished request's latency is the
/// exact sum of these parts (see the conservation contract above).
enum class AttrComponent : std::uint8_t {
  kFsCall = 0,   ///< file-system call overhead (paid once per issue attempt)
  kHit,          ///< cache-hit copy stall (full read hits not served by RA)
  kReadahead,    ///< read-ahead credit: copy stall on hits prefetch produced
  kAbsorb,       ///< write-behind absorption: copy stall on absorbed writes
  kMiss,         ///< blocked on demand disk I/O (fetch/write-through/bypass)
  kSpace,        ///< blocked waiting for cache space
  kInterrupt,    ///< interrupt service after the final awaited completion
  kSched,        ///< not-running time re-entering the CPU after a space wake
};
inline constexpr std::size_t kAttrOpComponents = 8;
[[nodiscard]] const char* attr_component_name(AttrComponent component);

/// Disk transfer kinds (mirrors the simulator's I/O op kinds).
enum class AttrDiskKind : std::uint8_t {
  kFetch = 0,
  kReadahead,
  kFlush,
  kWriteThrough,
  kBypass,
};
inline constexpr std::size_t kAttrDiskKinds = 5;
[[nodiscard]] const char* attr_disk_kind_name(AttrDiskKind kind);

/// Disk-transfer service-time components: done - submitted == their sum.
enum class AttrDiskComponent : std::uint8_t {
  kQueue = 0,  ///< FIFO wait behind earlier transfers (queueing mode only)
  kOverhead,   ///< controller overhead
  kSeek,       ///< head movement
  kRotation,   ///< rotational delay
  kTransfer,   ///< data movement at streaming rate
  kFault,      ///< injected retry/backoff/spike delay (FaultPlan)
};
inline constexpr std::size_t kAttrDiskComponents = 6;
[[nodiscard]] const char* attr_disk_component_name(AttrDiskComponent component);

/// Per-transfer breakdown filled by DiskModel::submit when attribution is on.
struct AttrDiskBreakdown {
  Ticks queue;
  Ticks overhead;
  Ticks seek;
  Ticks rotation;
  Ticks transfer;
  Ticks fault;

  [[nodiscard]] Ticks total() const {
    return queue + overhead + seek + rotation + transfer + fault;
  }
};

// ---- Fixed bucket ladders --------------------------------------------------

/// Op-latency histogram bounds (microseconds, 1-2-5 ladder); the last bucket
/// is +Inf, giving kAttrLatencyBuckets counts in total.
inline constexpr std::array<std::int64_t, 16> kAttrLatencyBoundsUs = {
    10,    20,    50,     100,    200,    500,     1000,    2000,
    5000, 10000, 20000, 50000, 100000, 200000, 500000, 1000000};
inline constexpr std::size_t kAttrLatencyBuckets = kAttrLatencyBoundsUs.size() + 1;

/// Request-size buckets: <=512 B, then doubling up to <=16 MiB, then larger.
inline constexpr std::size_t kAttrSizeBuckets = 17;
[[nodiscard]] std::size_t attr_size_bucket(Bytes length);
[[nodiscard]] std::string attr_size_bucket_name(std::size_t bucket);

/// App-phase boundary: a request preceded by at least this much pure compute
/// starts a new burst epoch ("phase") for its process. 50 ms separates the
/// paper apps' cycle bursts without splitting intra-burst think time.
inline constexpr Ticks kAttrPhaseGap = Ticks::from_ms(50);
/// Phase table size; epochs at or past the last slot pool into "phaseN+".
inline constexpr std::size_t kAttrPhaseSlots = 16;

// ---- Plain summary (snapshot) ----------------------------------------------

/// One ledger row, resolved to a printable key ("p1:f3", "venus", "phase2",
/// "le_64KiB", or "other" for the overflow row). Ticks are stored as raw
/// counts so the summary round-trips losslessly through the journal codec.
struct AttrEntry {
  std::string key;
  std::int64_t ops = 0;
  std::int64_t write_ops = 0;
  std::int64_t bytes = 0;
  std::int64_t total_ticks = 0;  ///< summed measured op latency
  std::array<std::int64_t, kAttrOpComponents> comp{};  ///< ticks per component

  friend bool operator==(const AttrEntry&, const AttrEntry&) = default;
};

struct AttrDiskEntry {
  std::string kind;
  std::int64_t ops = 0;
  std::int64_t bytes = 0;
  std::int64_t total_ticks = 0;  ///< summed (completion - submit)
  std::array<std::int64_t, kAttrDiskComponents> comp{};

  friend bool operator==(const AttrDiskEntry&, const AttrDiskEntry&) = default;
};

/// A point-in-time snapshot of one AttributionLedger, safe to copy, print,
/// serialize, and merge. `files`/`procs` are blame-ordered (largest total
/// first); `phases`/`sizes` keep their natural order; empty rows are omitted.
struct AttrSummary {
  bool enabled = false;
  AttrEntry total;                 ///< grand totals; key == "total"
  std::vector<AttrEntry> files;
  std::vector<AttrEntry> procs;
  std::vector<AttrEntry> phases;
  std::vector<AttrEntry> sizes;
  std::vector<AttrDiskEntry> disks;
  /// Op-latency histogram over kAttrLatencyBoundsUs (+Inf last).
  std::array<std::int64_t, kAttrLatencyBuckets> latency{};
  /// Per-component histograms over the same ladder; an op bumps a
  /// component's histogram only when that component is nonzero.
  std::array<std::array<std::int64_t, kAttrLatencyBuckets>, kAttrOpComponents> comp_hist{};

  [[nodiscard]] std::int64_t component(AttrComponent c) const {
    return total.comp[static_cast<std::size_t>(c)];
  }

  friend bool operator==(const AttrSummary&, const AttrSummary&) = default;
};

/// Folds `from` into `into` (matching rows by key), used to aggregate the
/// per-point ledgers of a sweep into one blame report.
void merge_attr_summary(AttrSummary& into, const AttrSummary& from);

/// Renders the summary as one JSON object (the /attribution payload body).
void write_attr_json(std::ostream& out, const AttrSummary& summary);

/// Appends the summary as JSONL — one object per row, each tagged with a
/// "type" ("total", "file", "proc", "phase", "size", "disk", "latency_hist")
/// and the sweep point's label. Schema pinned by tests/obs_attr_test and
/// validated by tools/validate_telemetry.py --attr.
void write_attr_jsonl(std::ostream& out, const AttrSummary& summary,
                      std::string_view point_label);

/// Publishes the summary under `<prefix>.*`: ops/bytes counters, per-
/// component seconds gauges, and cumulative le_<bound> histogram counters.
/// With the default "sim.attr" prefix the Prometheus view renders these as
/// the sim_attr_* families. Only call for enabled summaries — the name set
/// appearing at all is what keeps attribution-off snapshots schema-stable.
void publish_attr_metrics(const AttrSummary& summary, MetricsRegistry& registry,
                          std::string_view prefix = "sim.attr");

// ---- The ledger ------------------------------------------------------------

/// Fixed-size, lock-free blame accumulator with a single writer. The writer
/// (one simulator run) adds into each counter with a relaxed load and store,
/// not a locked read-modify-write, so two writers at once would lose counts.
/// Simulator::run() therefore holds the ledger's writer claim
/// (try_claim_writer()) for its whole run and fails with ConfigError when
/// another run holds it; a sweep gives each point its own ledger. Readers
/// (the telemetry server thread) snapshot with relaxed loads, so concurrent
/// scrapes are TSan-clean by construction and see a consistent-enough
/// in-progress view (monotonic counters, like the rest of the live plane).
class AttributionLedger {
 public:
  /// What the simulator commits once per finished logical request.
  struct OpRecord {
    std::uint32_t pid = 0;
    std::uint64_t file_key = 0;  ///< simulator's global file id
    std::uint32_t phase = 0;     ///< burst epoch ordinal (see kAttrPhaseGap)
    Bytes bytes = 0;
    bool write = false;
    Ticks total;                                          ///< measured latency
    std::array<std::int64_t, kAttrOpComponents> comp{};   ///< ticks, sums to total
  };

  AttributionLedger() = default;
  AttributionLedger(const AttributionLedger&) = delete;
  AttributionLedger& operator=(const AttributionLedger&) = delete;

  /// Registers a printable name for a process (used by summarize()); call
  /// before or during the run. Takes a small mutex — never on the op path.
  void note_process(std::uint32_t pid, std::string name);

  /// Takes the single writer claim; false when another writer holds it.
  [[nodiscard]] bool try_claim_writer() {
    return !writer_.exchange(true, std::memory_order_acquire);
  }
  /// Gives the writer claim back (the writer's last update happens-before
  /// the next writer's claim).
  void release_writer() { writer_.store(false, std::memory_order_release); }

  /// Writer-only: the caller holds the writer claim (or is the ledger's only
  /// user, as in a single-threaded test).
  void record_op(const OpRecord& op);
  void record_disk(AttrDiskKind kind, Bytes bytes, const AttrDiskBreakdown& breakdown);

  /// Snapshot of everything recorded so far; safe while writers are active.
  [[nodiscard]] AttrSummary summarize() const;

  /// Empties every row, histogram and process name, so the ledger describes
  /// only what is recorded next (a retried sweep point's last attempt).
  /// Writers must be idle; a concurrent summarize() may see a mix of old
  /// and zeroed rows.
  void reset();

  /// Total ops recorded (relaxed) — cheap liveness probe for tests/handlers.
  [[nodiscard]] std::int64_t ops() const {
    return total_.ops.load(std::memory_order_relaxed);
  }

  static constexpr std::size_t kFileSlots = 64;
  static constexpr std::size_t kProcSlots = 32;

 private:
  /// One accumulation row. alignas(64) keeps rows, and so the ledgers of
  /// points running side by side, on separate cache lines; `key` is the
  /// slot claim (0 = empty, else key + 1).
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> key{0};
    std::atomic<std::int64_t> ops{0};
    std::atomic<std::int64_t> write_ops{0};
    std::atomic<std::int64_t> bytes{0};
    std::atomic<std::int64_t> total{0};
    std::array<std::atomic<std::int64_t>, kAttrOpComponents> comp{};
  };
  struct alignas(64) DiskCell {
    std::atomic<std::int64_t> ops{0};
    std::atomic<std::int64_t> bytes{0};
    std::atomic<std::int64_t> total{0};
    std::array<std::atomic<std::int64_t>, kAttrDiskComponents> comp{};
  };

  /// Claims (or finds) the open-addressed slot for `key` in `table`; falls
  /// back to `overflow` when the table is full.
  static Cell& claim(std::array<Cell, kFileSlots>& table, Cell& overflow, std::uint64_t key);
  static Cell& claim_small(std::array<Cell, kProcSlots>& table, Cell& overflow,
                           std::uint64_t key);
  static void add_op(Cell& cell, const OpRecord& op);

  Cell total_;
  std::array<Cell, kFileSlots> files_{};
  Cell files_overflow_;
  std::array<Cell, kProcSlots> procs_{};
  Cell procs_overflow_;
  std::array<Cell, kAttrPhaseSlots> phases_{};
  std::array<Cell, kAttrSizeBuckets> sizes_{};
  std::array<DiskCell, kAttrDiskKinds> disks_{};
  std::array<std::atomic<std::int64_t>, kAttrLatencyBuckets> latency_{};
  std::array<std::array<std::atomic<std::int64_t>, kAttrLatencyBuckets>, kAttrOpComponents>
      comp_hist_{};

  mutable std::mutex label_mutex_;  ///< guards labels_ only (never the op path)
  std::vector<std::pair<std::uint32_t, std::string>> labels_;
  std::atomic<bool> writer_{false};  ///< the single writer claim
};

}  // namespace craysim::obs
