// Simulation parameters for the Section 6 buffering/caching simulator.
//
// Defaults model the NASA Ames Cray Y-MP of Section 2.2: 9.6 MB/s disks with
// slow (~15 ms) seeks, an SSD-class cache at ~1 GB/s with ~1 us/KB hit
// penalty, and a round-robin UNICOS-style scheduler whose quantum, context
// switch, file-system call, and interrupt costs are all configurable — the
// same knobs the paper's simulator exposed.
#pragma once

#include <cstdint>

#include "faults/fault.hpp"
#include "util/cancel.hpp"
#include "util/units.hpp"

namespace craysim::obs {
class AttributionLedger;
class SpanRecorder;
}

namespace craysim::sim {

/// Round-robin CPU scheduler knobs ("a simple round-robin scheduler with a
/// quantum that can be specified each time it is run").
struct SchedulerParams {
  Ticks quantum = Ticks::from_ms(20);
  Ticks context_switch = Ticks::from_us(80);  ///< "per-process overhead is high"
};

/// Operating-system cost knobs ("process-switching overhead, file system
/// code overhead, and interrupt service time are also parameters").
struct OverheadParams {
  Ticks fs_call = Ticks::from_us(150);    ///< per read/write system call
  Ticks interrupt = Ticks::from_us(40);   ///< per I/O completion
};

/// The simple seek-distance disk model of Section 6.1. In paper mode there
/// is no queueing: "There was no queueing at the disks, so the completion
/// time of a specific I/O was dependent only on the location of the I/O and
/// how 'close' the I/O was to the previous I/O."
struct DiskParams {
  double bandwidth_mb_s = 9.6;            ///< Cray DD-49-class streaming rate
  Ticks controller_overhead = Ticks::from_us(500);
  Ticks min_seek = Ticks::from_ms(2);
  Ticks max_seek = Ticks::from_ms(15);    ///< "the Cray Y-MP disks seek relatively slowly"
  Ticks max_rotation = Ticks::from_ms(16.7);  ///< full revolution at 3600 rpm
};

/// Buffer cache knobs (main-memory cache in Section 6.2; the SSD of 6.3 is
/// the same cache with a bigger capacity and per-KB hit penalty).
struct CacheParams {
  Bytes capacity = Bytes{32} * kMB;
  Bytes block_size = 4 * kKiB;            ///< Figure 8 compares 4 KB vs 8 KB
  bool read_ahead = true;
  bool write_behind = true;
  /// 0 = no per-process limit; otherwise max bytes of cache one process may
  /// own (Section 6.2 found such limits counterproductive — testable).
  Bytes per_process_cap = 0;
  /// Cache-hit service cost: setup plus per-KB transfer. SSD defaults
  /// ("approximately 1 us per kilobyte transferred (at 1 GB/sec), with some
  /// additional overhead to set up the transfer"). For a main-memory cache
  /// set hit_us_per_kb ~ 0.25 (4 GB/s copy) and hit_setup ~ 5 us.
  Ticks hit_setup = Ticks::from_us(10);
  double hit_us_per_kb = 1.0;
  /// Background flusher: wake-up period and the dirty fraction that triggers
  /// an immediate flush.
  Ticks flush_period = Ticks::from_ms(250);
  double dirty_high_watermark = 0.50;
  std::int64_t max_flush_batch_blocks = 8192;
  /// Largest single disk write a flush issues, in blocks. Long dirty runs
  /// are split so they can drain in parallel across the (striped) farm
  /// instead of serializing inside one huge transfer. 64 x 4 KiB = 256 KiB.
  std::int64_t max_flush_run_blocks = 64;
  /// Sprite-style delayed writes (Section 2.1): dirty data younger than this
  /// is left in the cache by the periodic flusher, giving soon-deleted
  /// temporary files a chance to die before reaching disk. Zero = plain
  /// write-behind (flush-eligible immediately). Space pressure ignores age.
  Ticks delayed_write_age = Ticks::zero();
};

/// Logical-position mapping used by the disk model (Section 6.1: logical
/// traces, so seeks "could only be approximated").
struct PositionParams {
  Bytes file_spacing = Bytes{64} * kMB;  ///< virtual gap between files
  Bytes span = Bytes{35'200} * kMB;      ///< farm span used to normalize distance
};

struct SimParams {
  SchedulerParams scheduler;
  OverheadParams overhead;
  DiskParams disk;
  CacheParams cache;
  PositionParams position;
  bool use_cache = true;      ///< false: every I/O goes straight to disk
  bool disk_queueing = false; ///< paper mode: false; ablation: true
  std::int32_t disk_count = 1;  ///< >1 spreads files across disks (with queueing per disk)
  /// Number of CPUs sharing the ready queue, cache, and disks. The paper
  /// simulates one CPU with a per-CPU share of the SSD; cpu_count > 1 models
  /// the whole Y-MP and enables the Section 2.2 "n+1 jobs keep n processors
  /// busy" experiment.
  std::int32_t cpu_count = 1;
  Ticks series_bin = Ticks::from_seconds(1);  ///< data-rate series resolution
  /// Record every logical request as a trace record carrying the format's
  /// analysis-only annotations (TRACE_CACHE_HIT/MISS, TRACE_RA_HIT) into
  /// SimResult::annotated_trace.
  bool record_trace = false;
  std::uint64_t seed = 0xC7A9;
  /// Injected failures (disk section only; the tracer consumes its own
  /// plan). The default plan injects nothing and is zero-cost.
  faults::FaultPlan faults;
  /// Sim-time telemetry sink (non-owning; must outlive the simulator, and
  /// must not be shared between concurrently running simulators). When null
  /// — the default — every instrumentation site is a single predicted
  /// branch and the simulation is bit-identical to an uninstrumented build.
  obs::SpanRecorder* spans = nullptr;
  /// Sim-time counter sampling period. When `spans` is set and this is
  /// nonzero, the simulator emits periodic Perfetto "C" events (cache block
  /// occupancy, inflight ops, per-disk queue depth, cumulative read-ahead
  /// hits/misses) every `counter_interval` of simulated time. Zero — the
  /// default — disables sampling; with `spans` null it is ignored entirely.
  /// The sampling handler observes state without mutating it, so results
  /// stay bit-identical either way.
  Ticks counter_interval = Ticks::zero();
  /// Latency attribution sink (non-owning; must outlive the simulator). The
  /// ledger takes one writer at a time: run() holds its writer claim
  /// throughout and throws ConfigError if another running simulator holds
  /// it, so concurrent simulators each need their own ledger (a sweep gives
  /// every point one). When set, the simulator decomposes every request's
  /// latency into additive components and every disk transfer's service time
  /// into queue/seek/rotation/transfer/fault parts, accumulated in the
  /// ledger's fixed-size blame tables (see obs/attr.hpp, including the
  /// conservation contract). When null — the default — every stamping site
  /// is a single predicted branch and results, journal bytes, and metrics
  /// are bit-identical to an unattributed build.
  obs::AttributionLedger* attribution = nullptr;
  /// Cooperative cancellation (non-owning; must outlive the simulator). When
  /// set, the event loop polls the token every few thousand events and
  /// abandons the run with CancelledError once it is cancelled or its
  /// deadline passes — this is the hook the experiment runner's per-point
  /// deadlines use. When null — the default — the check is a single
  /// predicted branch per event and results are bit-identical.
  const util::CancelToken* cancel = nullptr;

  /// Named presets.
  [[nodiscard]] static SimParams paper_main_memory(Bytes cache_capacity);
  [[nodiscard]] static SimParams paper_ssd(Bytes ssd_capacity);
  [[nodiscard]] static SimParams no_cache();
};

}  // namespace craysim::sim
