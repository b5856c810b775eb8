#include "sim/storage.hpp"

#include <algorithm>
#include <cmath>

#include "obs/attr.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"

namespace craysim::sim {

DiskModel::DiskModel(const DiskParams& params, const PositionParams& position,
                     std::int32_t disk_count, bool queueing, std::uint64_t seed,
                     const faults::FaultPlan& plan)
    : params_(params), position_(position),
      bytes_per_tick_(params.bandwidth_mb_s * 1e6 / 100'000.0), queueing_(queueing),
      rng_(seed), online_count_(disk_count) {
  if (disk_count < 1) throw ConfigError("disk_count must be >= 1");
  if (params_.bandwidth_mb_s <= 0) throw ConfigError("disk bandwidth must be positive");
  disks_.resize(static_cast<std::size_t>(disk_count));
  if (plan.disk_faults_enabled()) injector_.emplace(plan);
}

Ticks DiskModel::transfer_time(Bytes length) const {
  return Ticks(static_cast<std::int64_t>(static_cast<double>(length) / bytes_per_tick_));
}

Ticks DiskModel::access_time_for_distance(Bytes distance, Bytes length) const {
  Ticks access = params_.controller_overhead + transfer_time(length);
  if (distance != 0) {
    const double norm = std::min(
        1.0, static_cast<double>(std::abs(distance)) / static_cast<double>(position_.span));
    const double seek_range =
        static_cast<double>((params_.max_seek - params_.min_seek).count());
    access += params_.min_seek + Ticks(static_cast<std::int64_t>(seek_range * std::sqrt(norm)));
    // Deterministic expectation (half a revolution) for the query API.
    access += params_.max_rotation / 2;
  }
  return access;
}

std::int64_t DiskModel::position_of(std::uint32_t file, Bytes offset) {
  if (const std::int64_t* base = file_base_.find(file)) return *base + offset;
  const std::int64_t base = next_base_;
  file_base_.emplace(file) = base;
  next_base_ += position_.file_spacing;
  return base + offset;
}

std::size_t DiskModel::next_online(std::size_t idx) const {
  for (std::size_t step = 0; step < disks_.size(); ++step) {
    const std::size_t candidate = (idx + step) % disks_.size();
    if (!disks_[candidate].offline) return candidate;
  }
  throw FaultError("no online disk left in the farm");
}

bool DiskModel::take_offline(std::size_t idx) {
  if (online_count_ <= 1) return false;  // the last survivor keeps limping
  disks_[idx].offline = true;
  --online_count_;
  ++metrics_.permanent_failures;
  return true;
}

std::size_t DiskModel::run_fault_schedule(std::size_t idx, Ticks& fault_delay) {
  const faults::DiskFaultParams& knobs = injector_->plan().disk;
  // Per-I/O safety valve: with pathological rates (e.g. permanent = 1.0 on a
  // one-disk farm) no schedule can ever succeed; give up loudly rather than
  // spin. Generous enough that any survivable schedule completes first.
  const std::int64_t attempt_cap =
      (static_cast<std::int64_t>(knobs.max_retries) + 2) *
          static_cast<std::int64_t>(disks_.size()) + 16;
  std::int32_t attempt = 0;  // retries spent on the current disk
  for (std::int64_t total = 0; total < attempt_cap; ++total) {
    DiskState& disk = disks_[idx];
    switch (injector_->disk_attempt_outcome()) {
      case faults::DiskOutcome::kOk:
        disk.consecutive_errors = 0;
        return idx;
      case faults::DiskOutcome::kPermanent:
        if (take_offline(idx)) {
          const std::size_t home = idx;
          idx = next_online(idx);
          if (idx != home) ++metrics_.redirected_ios;
          attempt = 0;
          continue;
        }
        // Last disk: degrade the verdict to a retryable error.
        [[fallthrough]];
      case faults::DiskOutcome::kTransient:
        ++metrics_.transient_errors;
        ++disk.consecutive_errors;
        if (disk.consecutive_errors >= knobs.offline_after_consecutive ||
            attempt >= knobs.max_retries) {
          // This device is not getting better: declare it dead and re-home
          // the I/O (unless it is the last one, in which case keep trying).
          if (take_offline(idx)) {
            idx = next_online(idx);
            ++metrics_.redirected_ios;
            attempt = 0;
            continue;
          }
        }
        ++attempt;
        ++metrics_.retries;
        {
          const Ticks backoff = injector_->backoff_for_attempt(attempt);
          fault_delay += backoff;
          metrics_.retry_backoff_time += backoff;
        }
        continue;
    }
  }
  throw FaultError("disk I/O could not complete after exhausting the retry schedule");
}

Ticks DiskModel::submit(Ticks now, std::uint32_t file, Bytes offset, Bytes length, bool write,
                        obs::AttrDiskBreakdown* attr) {
  const std::int64_t pos = position_of(file, offset);
  std::size_t idx = file % disks_.size();
  Ticks fault_delay = Ticks::zero();
  if (injector_) {  // fault path; never taken (and rng-free) for FaultPlan{}
    const std::size_t home = idx;
    idx = next_online(idx);
    if (idx != home) ++metrics_.redirected_ios;
    idx = run_fault_schedule(idx, fault_delay);
    if (injector_->latency_spike()) {
      ++metrics_.latency_spikes;
      fault_delay += injector_->plan().disk.latency_spike;
    }
  }
  DiskState& disk = disks_[idx];

  // The completion time is the integer sum of these named terms; the
  // attribution breakdown reports the identical terms, so attributed and
  // plain runs stay bit-identical (integer addition reassociates exactly).
  const Ticks transfer = transfer_time(length);
  Ticks seek = Ticks::zero();
  Ticks rotation = Ticks::zero();
  const bool sequential = disk.head_valid && pos == disk.head;
  if (!sequential) {
    const std::int64_t distance = disk.head_valid ? std::abs(pos - disk.head)
                                                  : position_.span / 2;
    const double norm =
        std::min(1.0, static_cast<double>(distance) / static_cast<double>(position_.span));
    const double seek_range =
        static_cast<double>((params_.max_seek - params_.min_seek).count());
    seek = params_.min_seek + Ticks(static_cast<std::int64_t>(seek_range * std::sqrt(norm)));
    rotation = Ticks(rng_.uniform_int(0, params_.max_rotation.count()));
  }
  const Ticks access = params_.controller_overhead + transfer + fault_delay + seek + rotation;
  disk.head = pos + length;
  disk.head_valid = true;

  Ticks start = now;
  if (queueing_) {
    start = std::max(now, disk.free_at);
    metrics_.queue_wait_time += start - now;
    disk.free_at = start + access;
  }
  if (attr != nullptr) {
    attr->queue = start - now;
    attr->overhead = params_.controller_overhead;
    attr->seek = seek;
    attr->rotation = rotation;
    attr->transfer = transfer;
    attr->fault = fault_delay;
  }
  metrics_.busy_time += access;
  if (write) {
    ++metrics_.write_ops;
    metrics_.bytes_written += length;
  } else {
    ++metrics_.read_ops;
    metrics_.bytes_read += length;
  }
  if (spans_) {
    const auto tid = static_cast<std::uint32_t>(idx);
    if (start > now) {
      spans_->complete(obs::track::kDisks, tid, "queue", now, start - now);
    }
    spans_->complete(obs::track::kDisks, tid, write ? "write" : "read", start, access,
                     {{"bytes", length}, {"file", static_cast<std::int64_t>(file)}});
    if (pending_done_.empty()) pending_done_.resize(disks_.size());
    pending_done_[idx].push_back(start + access);
  }
  return start + access;
}

void DiskModel::sample_queue_depth_counters(Ticks now) {
  if (spans_ == nullptr) return;
  if (pending_done_.empty()) pending_done_.resize(disks_.size());
  for (std::size_t d = 0; d < pending_done_.size(); ++d) {
    auto& pending = pending_done_[d];
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [now](Ticks done) { return done <= now; }),
                  pending.end());
    spans_->counter(obs::track::kDisks, "queue_depth.disk" + std::to_string(d), now, "ops",
                    static_cast<std::int64_t>(pending.size()));
  }
}

}  // namespace craysim::sim
