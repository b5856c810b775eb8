// The Section 6 buffering/caching simulator.
//
// Models one or more Cray Y-MP CPUs running several I/O-intensive processes
// under a round-robin scheduler, a shared block buffer cache (main memory or
// SSD) with read-ahead and write-behind (optionally Sprite-style delayed
// writes), and the seek-distance disk model. The simulation is
// discrete-event and fully deterministic for a given (configuration, seed,
// process set).
//
// Simplifications, matching or documented against the paper:
//  * Paper mode is cpu_count = 1 (one processor's share of cache/SSD);
//    cpu_count > 1 models the whole machine for the Section 2.2 experiments.
//  * No disk queueing in paper mode; optional FIFO queueing as an ablation.
//  * The quantum refreshes at every I/O the process survives without
//    blocking (it only matters during pure-compute phases).
//  * Interrupt service time delays the awakened process rather than
//    preempting the running one.
#pragma once

#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/attr.hpp"

#include "sim/cache.hpp"
#include "sim/metrics.hpp"
#include "sim/params.hpp"
#include "sim/storage.hpp"
#include "util/flat_map.hpp"
#include "util/small_vec.hpp"
#include "workload/profile.hpp"
#include "workload/request.hpp"

namespace craysim::sim {

class Simulator {
 public:
  explicit Simulator(SimParams params);

  /// Adds a process driven by any request source; returns its pid (1-based).
  std::uint32_t add_process(std::string name, std::unique_ptr<workload::RequestSource> source);

  /// Convenience: adds a synthetic application (seed is offset per pid so
  /// two copies of one app are not tick-identical).
  std::uint32_t add_app(const workload::AppProfile& profile);

  /// Runs to completion of all processes and returns the metrics.
  [[nodiscard]] SimResult run();

  /// Events run() pushed onto its event heap: a deterministic count of the
  /// engine's work, kept out of SimResult. Work accounted in place (quantum
  /// expiries, dispatches after a bypass transfer) is not counted.
  [[nodiscard]] std::uint64_t events_scheduled() const { return next_seq_; }

  /// Operations run() did on the buffer cache's anchor index, and the chain
  /// steps of its searches (all zero without a cache): deterministic, and
  /// kept out of SimResult.
  [[nodiscard]] CacheIndexOps cache_index_ops() const {
    return cache_ ? cache_->index_ops() : CacheIndexOps{};
  }

 private:
  enum class EventKind : std::uint8_t {
    kDispatch,
    kSliceEnd,
    kIoDone,
    kBypassDone,  ///< a transfer that skipped the cache; it has no inflight_ entry
    kFlushTick,
    kCounterTick,  ///< periodic telemetry sample; never mutates sim state
  };
  struct Event {
    Ticks time;
    std::uint64_t seq;
    EventKind kind;
    std::uint32_t waiter;  ///< kBypassDone: the process blocked on it, or kNoProcess
    std::uint64_t arg;  ///< pid for kSliceEnd, op id for kIoDone and kBypassDone
    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  enum class PState : std::uint8_t {
    kReady,
    kRunning,
    kBlockedIo,
    kBlockedSpace,
    kFinished,
  };

  struct Proc {
    std::uint32_t pid = 0;
    std::string name;
    std::unique_ptr<workload::RequestSource> source;
    PState state = PState::kReady;
    std::int32_t cpu = -1;  ///< CPU currently running this process
    Ticks remaining_compute;
    Ticks slice_len;  ///< length of the slice currently scheduled
    std::optional<workload::Request> pending;
    std::int32_t wait_count = 0;
    Ticks blocked_since;
    // results
    Ticks cpu_done;
    Ticks blocked_total;
    Ticks finish_time;
    std::int64_t io_count = 0;
    Bytes bytes_read = 0;
    Bytes bytes_written = 0;
    // Latency attribution state for the logical request in flight; only
    // touched when SimParams::attribution is set (see attr_begin/attr_add).
    bool attr_active = false;   ///< an attributed op is between issue and finish
    bool attr_started = false;  ///< at least one op issued (phase-gap detection)
    std::uint32_t attr_phase = 0;  ///< burst epoch ordinal (obs::kAttrPhaseGap)
    std::uint32_t attr_file = 0;   ///< global file id of the op in flight
    Bytes attr_bytes = 0;
    bool attr_write = false;
    Ticks attr_issue;  ///< when issue_io first saw the request
    Ticks attr_mark;   ///< end of the last stamped component
    std::array<std::int64_t, obs::kAttrOpComponents> attr_comp{};
  };

  /// A cache transfer in flight. Bypass transfers take no entry: their
  /// kBypassDone event carries everything their completion needs.
  struct IoOp {
    enum class Kind : std::uint8_t { kFetch, kReadAhead, kFlush, kWriteThrough };
    Kind kind = Kind::kFetch;
    BlockRun run;  ///< as the cache planned it: its hint starts the completion's lookup
    // Almost every op has zero or one waiter; inline storage avoids a heap
    // allocation per submitted I/O.
    util::SmallVec<std::uint32_t, 2> waiters;
  };

  static constexpr std::uint32_t kNoProcess = 0;

  /// Span name for an I/O operation kind ("fetch", "flush", ...).
  [[nodiscard]] static const char* io_kind_name(IoOp::Kind kind);

  void push_event(Ticks time, EventKind kind, std::uint64_t arg,
                  std::uint32_t waiter = kNoProcess);
  /// True when an event pushed now for `time` would be the heap's next pop:
  /// every queued event is due strictly later (an equal time pops the older
  /// event first).
  [[nodiscard]] bool nothing_due_by(Ticks time) const {
    return events_.empty() || time < events_.front().time;
  }
  /// Counts one event against SimParams::cancel's poll stride and throws
  /// CancelledError once the token fires. run()'s event loop, on_slice_end's
  /// in-place quantum expiries and on_bypass_done's in-place dispatches share
  /// the one countdown.
  void poll_cancel() {
    if (params_.cancel != nullptr && --cancel_countdown_ == 0) poll_cancel_token();
  }
  /// poll_cancel's out-of-line part, once per stride: restarts the countdown
  /// and throws if the token fired.
  void poll_cancel_token();
  void on_dispatch(Ticks now);
  void on_slice_end(Ticks now, std::uint32_t pid);
  void on_io_done(Ticks now, std::uint64_t op_id);
  void on_bypass_done(Ticks now, std::uint64_t op_id, std::uint32_t waiter);
  void on_flush_tick(Ticks now);
  void on_counter_tick(Ticks now);

  void issue_io(Ticks now, std::uint32_t pid);
  /// Sends `req` straight to disk (no cache, or larger than the cache), then
  /// blocks `proc` on it or, for an async request, keeps it running.
  void bypass_cache(Ticks t, Proc& proc, const workload::Request& req, std::uint32_t gfile);
  void continue_running(Ticks now, std::uint32_t pid, Ticks extra_stall);
  void advance_to_next_request(Proc& proc);
  void block_for_io(Ticks now, Proc& proc, std::int32_t waits);
  void block_for_space(Ticks now, Proc& proc);
  /// Readies `proc`, whose last awaited transfer completed at `now`, and
  /// charges the interrupt; returns the time its dispatch is due. The caller
  /// schedules (or runs) that dispatch.
  [[nodiscard]] Ticks unblock(Ticks now, Proc& proc);
  void finish_process(Ticks now, Proc& proc);
  void trigger_flush(Ticks now, Ticks min_age = Ticks::zero());
  void wake_space_waiters(Ticks now);
  /// Releases `proc`'s CPU and starts that CPU's idle clock.
  void release_cpu(Ticks now, Proc& proc);
  /// Stops the idle clock of `cpu` (a process is about to run there).
  void account_idle_until(Ticks now, std::int32_t cpu);

  /// Emits a cache `evict` instant when evictions advanced past `before`
  /// (cheap metric-delta probe; no BufferCache changes needed). No-op when
  /// telemetry is off.
  void note_evictions(std::int64_t before, Ticks t);
  /// Names the Perfetto tracks (metadata events) once per run.
  void emit_span_metadata();
  /// One counter sample across cache occupancy, read-ahead tallies, inflight
  /// ops, and per-disk queue depth. Read-only over sim state: inserting or
  /// removing samples must never change the simulation outcome.
  void emit_counter_sample(Ticks now);
  /// All processes done, no transfer in flight, cache drained — the run() loop's
  /// exit condition, also used to stop self-rescheduling ticks.
  [[nodiscard]] bool drained() const;

  void record_disk_traffic(Ticks start, Ticks done, Bytes bytes, bool write);
  /// Appends an annotated logical record when SimParams::record_trace.
  void record_request(Ticks now, std::uint32_t pid, const workload::Request& req,
                      bool cache_miss, bool readahead_hit);
  /// Issues one disk transfer for a cache block run under op id `id` (fetch
  /// runs carry the id the cache tagged their blocks with); `sync_waiter`,
  /// unless kNoProcess, waits on it.
  void submit_run(std::uint64_t id, Ticks now, const BlockRun& run, bool write,
                  IoOp::Kind kind, std::uint32_t sync_waiter);
  /// Latency attribution stamping (call sites guard on attr_ != nullptr, so
  /// the off path is one predicted branch). attr_begin opens the record for
  /// `proc`'s pending request — or, on a space-wait retry re-entry, charges
  /// the not-running gap to kSched — and charges now→t to kFsCall; attr_add
  /// charges mark→until to one component (signed, unclamped — the same
  /// arithmetic as blocked_total, which is what makes miss+space match the
  /// summed blocked time exactly); attr_finish commits the record ending at
  /// `end`, where the telescoped components sum to end - attr_issue exactly.
  void attr_begin(Ticks now, Ticks t, Proc& proc, const workload::Request& req,
                  std::uint32_t gfile);
  void attr_add(Proc& proc, obs::AttrComponent component, Ticks until);
  void attr_finish(Proc& proc, Ticks end);
  void attr_record_disk(IoOp::Kind kind, Bytes bytes,
                        const obs::AttrDiskBreakdown& breakdown);
  [[nodiscard]] std::uint32_t global_file(std::uint32_t pid, std::uint32_t file) const {
    return (pid << 20) | file;
  }
  [[nodiscard]] Ticks hit_delay(Bytes bytes) const;

  SimParams params_;
  std::vector<Proc> procs_;  ///< index pid-1
  // Min-heap on (time, seq) kept by hand with push_heap/pop_heap so the
  // backing vector's capacity survives across pushes (priority_queue hides
  // the container and its growth). (time, seq) is a strict total order, so
  // pop order — and thus the whole simulation — is independent of heap
  // layout details.
  std::vector<Event> events_;
  std::uint64_t next_seq_ = 0;
  // Safety valve against configuration bugs: no workload in this study runs
  // longer than a few simulated hours.
  static constexpr Ticks kWallLimit = Ticks::from_seconds(1e6);
  // Cooperative cancellation: poll the token once per kCancelStride events.
  // The stride keeps the steady_clock read off the per-event path; with no
  // token the whole mechanism is one predicted branch per event.
  static constexpr std::uint32_t kCancelStride = 4096;
  std::uint32_t cancel_countdown_ = kCancelStride;
  std::uint64_t next_op_ = 1;
  struct Cpu {
    std::uint32_t running = kNoProcess;
    bool idle = true;
    Ticks idle_since;
  };
  std::vector<Cpu> cpus_;
  std::deque<std::uint32_t> ready_;
  std::vector<std::uint32_t> space_waiters_;
  util::FlatMap64<IoOp> inflight_;
  std::int64_t bypass_inflight_ = 0;  ///< bypass transfers not yet complete
  std::unique_ptr<DiskModel> disk_;
  std::unique_ptr<BufferCache> cache_;
  SimResult result_;
  Ticks now_;
  std::size_t finished_ = 0;
  std::uint32_t next_trace_op_ = 1;
  obs::SpanRecorder* spans_ = nullptr;  ///< copied from params; null = off
  obs::AttributionLedger* attr_ = nullptr;  ///< copied from params; null = off
};

}  // namespace craysim::sim
