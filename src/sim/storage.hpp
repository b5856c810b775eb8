// The Section 6.1 disk model.
//
// Logical traces carry no physical block numbers, so the paper approximates
// seek distance from logical positions: each file gets a virtual base
// address, and the completion time of an I/O depends only on the transfer
// size and how far the request is from the disk head's previous position.
// In paper mode there is no queueing — concurrent requests do not delay each
// other (the limitation Section 6.2 discusses). Queueing mode (our ablation)
// serializes each disk through a FIFO.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "faults/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/params.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace craysim::obs {
struct AttrDiskBreakdown;
}

namespace craysim::sim {

class DiskModel {
 public:
  /// `plan` describes injectable failures; the default plan injects nothing
  /// and leaves the model bit-identical to the fault-free substrate.
  DiskModel(const DiskParams& params, const PositionParams& position, std::int32_t disk_count,
            bool queueing, std::uint64_t seed, const faults::FaultPlan& plan = {});

  /// Computes the completion time of a transfer submitted at `now`.
  /// Updates head position, per-disk queue (in queueing mode), and metrics.
  ///
  /// Under an active FaultPlan, transient errors are retried with
  /// exponential backoff (the delay lands in the completion time), a disk
  /// that fails permanently — or accumulates too many consecutive errors —
  /// goes offline and its I/Os redirect to the next surviving disk, and the
  /// simulation keeps running as long as one disk lives. Throws FaultError
  /// only when no device can complete the transfer.
  /// `attr`, when non-null, receives the additive service-time decomposition
  /// (queue/overhead/seek/rotation/transfer/fault; their sum equals the
  /// returned completion time minus `now`). The breakdown is computed from
  /// the same integer terms the completion time sums, so passing it never
  /// changes the result.
  [[nodiscard]] Ticks submit(Ticks now, std::uint32_t file, Bytes offset, Bytes length,
                             bool write, obs::AttrDiskBreakdown* attr = nullptr);

  /// Attaches a sim-time span sink: each transfer then emits `queue` and
  /// `read`/`write` slices on the disk's track (obs::track::kDisks, tid =
  /// disk index). Null (the default) disables emission entirely.
  void set_spans(obs::SpanRecorder* spans) { spans_ = spans; }

  /// Emits one `queue_depth.disk<N>` counter sample per disk at `now`
  /// (transfers submitted but not yet complete). Tracking of outstanding
  /// completion times only happens while a span sink is attached, so the
  /// telemetry-off path pays nothing; with no sink this is a no-op.
  void sample_queue_depth_counters(Ticks now);

  [[nodiscard]] const DeviceMetrics& metrics() const { return metrics_; }
  /// Devices still accepting I/O (== disk_count until a permanent failure).
  [[nodiscard]] std::int32_t online_disks() const { return online_count_; }
  /// Degraded mode: at least one disk has been lost.
  [[nodiscard]] bool degraded() const {
    return online_count_ < static_cast<std::int32_t>(disks_.size());
  }

  /// Pure access-time query (no state change): used by tests to check the
  /// seek curve's monotonicity.
  [[nodiscard]] Ticks access_time_for_distance(Bytes distance, Bytes length) const;

 private:
  struct DiskState {
    Ticks free_at;     ///< queueing mode: when the disk finishes its backlog
    std::int64_t head = 0;  ///< virtual position after the previous I/O
    bool head_valid = false;
    bool offline = false;   ///< permanently failed; I/Os redirect elsewhere
    std::int32_t consecutive_errors = 0;  ///< resets on any successful attempt
  };

  std::int64_t position_of(std::uint32_t file, Bytes offset);
  Ticks transfer_time(Bytes length) const;
  /// First online disk at or after `idx` (wrapping). Throws FaultError if
  /// every disk is offline.
  [[nodiscard]] std::size_t next_online(std::size_t idx) const;
  /// Marks a disk failed. Refuses to kill the last survivor (returns false):
  /// the farm limps on one device rather than wedging the simulation.
  bool take_offline(std::size_t idx);
  /// Runs the injected-failure schedule for one I/O against disk `idx`;
  /// returns the (possibly redirected) disk index and accumulates retry /
  /// backoff delay into `fault_delay`.
  std::size_t run_fault_schedule(std::size_t idx, Ticks& fault_delay);

  DiskParams params_;
  PositionParams position_;
  double bytes_per_tick_;  ///< streaming bandwidth
  bool queueing_;
  std::vector<DiskState> disks_;
  util::FlatMap64<std::int64_t> file_base_;  ///< file -> virtual base address
  std::int64_t next_base_ = 0;
  Rng rng_;
  DeviceMetrics metrics_;
  std::optional<faults::FaultInjector> injector_;
  std::int32_t online_count_ = 0;
  obs::SpanRecorder* spans_ = nullptr;  ///< non-owning; null = no telemetry
  /// Outstanding completion times per disk, kept only while spans_ is set
  /// (counter sampling needs instantaneous queue depth; the model itself
  /// never looks back at completed transfers).
  std::vector<std::vector<Ticks>> pending_done_;
};

}  // namespace craysim::sim
