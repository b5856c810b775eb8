// Deterministic fault injection for the collection pipeline and simulator.
//
// The paper's trace collection on the NASA Ames Y-MP was not lossless —
// packets from the instrumented library could be dropped or arrive out of
// order at procstat — and real disk farms suffer transient I/O errors and
// device deaths. A FaultPlan describes which failures to inject and at what
// rates; a FaultInjector is the seeded stream of decisions derived from it.
// Both consumers (ProcstatCollector, DiskModel) take a plan, so one seed
// reproduces one exact failure schedule end to end.
//
// The substrate is zero-cost when disabled: a default FaultPlan{} injects
// nothing, consumers skip every injector call on their fast paths, and no
// random draw ever happens, so results are bit-identical to a build without
// the subsystem.
#pragma once

#include <cstdint>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace craysim::faults {

/// Faults on the library -> procstat packet channel (Section 4's pipe).
struct PacketFaultParams {
  double drop_rate = 0.0;       ///< packet vanishes; its sequence number is consumed
  double duplicate_rate = 0.0;  ///< packet delivered twice (same sequence number)
  double reorder_rate = 0.0;    ///< packet delivered before its predecessor
  double corrupt_entry_rate = 0.0;  ///< per-entry field scramble inside delivered packets
};

/// Faults at the disk model: transient errors retried with exponential
/// backoff, permanent errors that take the device offline, latency spikes.
struct DiskFaultParams {
  double transient_error_rate = 0.0;  ///< per-attempt probability of a retryable error
  double permanent_error_rate = 0.0;  ///< per-I/O probability the device dies for good
  double latency_spike_rate = 0.0;    ///< per-I/O probability of a service-time spike
  Ticks latency_spike = Ticks::from_ms(50);
  std::int32_t max_retries = 6;       ///< attempts after the first before giving up
  Ticks retry_backoff = Ticks::from_ms(1);  ///< first retry delay; doubles per retry
  /// Consecutive failed I/Os (retries exhausted) before a disk is declared
  /// offline and its files are redirected to surviving devices.
  std::int32_t offline_after_consecutive = 3;
};

/// Everything the injector needs: rates plus the seed that makes the
/// schedule reproducible. Default-constructed plans inject nothing.
struct FaultPlan {
  std::uint64_t seed = 0xFA017;
  PacketFaultParams packet;
  DiskFaultParams disk;

  [[nodiscard]] bool packet_faults_enabled() const {
    return packet.drop_rate > 0.0 || packet.duplicate_rate > 0.0 ||
           packet.reorder_rate > 0.0 || packet.corrupt_entry_rate > 0.0;
  }
  [[nodiscard]] bool disk_faults_enabled() const {
    return disk.transient_error_rate > 0.0 || disk.permanent_error_rate > 0.0 ||
           disk.latency_spike_rate > 0.0;
  }
  [[nodiscard]] bool enabled() const {
    return packet_faults_enabled() || disk_faults_enabled();
  }

  /// Throws ConfigError if any rate is outside [0, 1] or a knob is negative.
  void validate() const;
};

/// What happened to one disk I/O attempt.
enum class DiskOutcome : std::uint8_t {
  kOk,         ///< attempt succeeded
  kTransient,  ///< retryable error (controller hiccup, recoverable ECC)
  kPermanent,  ///< device is gone; no retry will help
};

/// The seeded decision stream. Each call consumes randomness, so consumers
/// must gate calls on the corresponding `*_enabled()` to stay deterministic
/// relative to plans that leave a category off.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  // --- packet channel ------------------------------------------------------
  [[nodiscard]] bool drop_packet();
  [[nodiscard]] bool duplicate_packet();
  [[nodiscard]] bool reorder_packet();
  [[nodiscard]] bool corrupt_entry();
  /// Which field of a corrupt entry gets scrambled (0..3) — kept in the
  /// injector so corruption shape is part of the deterministic schedule.
  [[nodiscard]] std::int64_t corruption_selector(std::int64_t choices);

  // --- disk ----------------------------------------------------------------
  [[nodiscard]] DiskOutcome disk_attempt_outcome();
  [[nodiscard]] bool latency_spike();

  /// Backoff before retry number `attempt` (1-based): base * 2^(attempt-1).
  [[nodiscard]] Ticks backoff_for_attempt(std::int32_t attempt) const;

 private:
  FaultPlan plan_;
  Rng rng_;
};

}  // namespace craysim::faults
