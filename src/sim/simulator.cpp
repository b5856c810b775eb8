#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

#include "obs/span.hpp"
#include "util/error.hpp"
#include "workload/generator.hpp"

namespace craysim::sim {

namespace {

/// Holds the attribution ledger's writer claim for one run() and gives it
/// back on every exit. The ledger takes one writer at a time, so a second
/// simulator writing it at once fails here instead of losing counts.
class LedgerWriter {
 public:
  explicit LedgerWriter(obs::AttributionLedger* ledger) : ledger_(ledger) {
    if (ledger_ != nullptr && !ledger_->try_claim_writer()) {
      throw ConfigError(
          "attribution ledger is already written by a running simulator "
          "(a ledger takes one writer at a time)");
    }
  }
  ~LedgerWriter() {
    if (ledger_ != nullptr) ledger_->release_writer();
  }
  LedgerWriter(const LedgerWriter&) = delete;
  LedgerWriter& operator=(const LedgerWriter&) = delete;

 private:
  obs::AttributionLedger* ledger_;
};

}  // namespace

const char* Simulator::io_kind_name(IoOp::Kind kind) {
  switch (kind) {
    case IoOp::Kind::kFetch: return "fetch";
    case IoOp::Kind::kReadAhead: return "readahead";
    case IoOp::Kind::kFlush: return "flush";
    case IoOp::Kind::kWriteThrough: return "writethrough";
  }
  return "io";
}

Simulator::Simulator(SimParams params) : params_(std::move(params)) {
  if (params_.cpu_count < 1) throw ConfigError("cpu_count must be >= 1");
  cpus_.resize(static_cast<std::size_t>(params_.cpu_count));
  spans_ = params_.spans;
  attr_ = params_.attribution;
  disk_ = std::make_unique<DiskModel>(params_.disk, params_.position, params_.disk_count,
                                      params_.disk_queueing, params_.seed ^ 0xd15c,
                                      params_.faults);
  disk_->set_spans(spans_);
  if (params_.use_cache) {
    cache_ = std::make_unique<BufferCache>(params_.cache, result_.cache);
  }
  result_.logical_rate = BinnedSeries(params_.series_bin);
  result_.disk_rate = BinnedSeries(params_.series_bin);
  result_.disk_read_rate = BinnedSeries(params_.series_bin);
  result_.disk_write_rate = BinnedSeries(params_.series_bin);
  events_.reserve(256);
  inflight_.reserve(256);
}

std::uint32_t Simulator::add_process(std::string name,
                                     std::unique_ptr<workload::RequestSource> source) {
  Proc proc;
  proc.pid = static_cast<std::uint32_t>(procs_.size()) + 1;
  proc.name = std::move(name);
  proc.source = std::move(source);
  procs_.push_back(std::move(proc));
  return procs_.back().pid;
}

std::uint32_t Simulator::add_app(const workload::AppProfile& profile) {
  workload::AppProfile copy = profile;
  copy.seed = profile.seed + 0x9e37 * (procs_.size() + 1);
  std::string name = copy.name;  // read before the move below
  return add_process(std::move(name),
                     std::make_unique<workload::AppRequestGenerator>(std::move(copy)));
}

Ticks Simulator::hit_delay(Bytes bytes) const {
  return params_.cache.hit_setup +
         Ticks::from_us(params_.cache.hit_us_per_kb * static_cast<double>(bytes) / 1024.0);
}

void Simulator::attr_begin(Ticks now, Ticks t, Proc& proc, const workload::Request& req,
                           std::uint32_t gfile) {
  if (!proc.attr_active) {
    // A long compute gap before this request starts a new burst epoch.
    if (proc.attr_started && req.compute >= obs::kAttrPhaseGap) ++proc.attr_phase;
    proc.attr_started = true;
    proc.attr_active = true;
    proc.attr_issue = now;
    proc.attr_mark = now;
    proc.attr_comp = {};
    proc.attr_bytes = req.length;
    proc.attr_write = req.write;
    proc.attr_file = gfile;
  } else {
    // Space-wait retry re-entering issue_io: the gap since the wake is
    // scheduler (not-running) time — context switch plus ready-queue wait.
    attr_add(proc, obs::AttrComponent::kSched, now);
  }
  attr_add(proc, obs::AttrComponent::kFsCall, t);
}

void Simulator::attr_add(Proc& proc, obs::AttrComponent component, Ticks until) {
  // Signed on purpose: joined completions can land inside the fs_call window
  // (see unblock()'s clamp comment), and keeping the same unclamped
  // arithmetic as blocked_total is what makes the ledger's miss+space total
  // equal the summed per-process blocked time exactly.
  proc.attr_comp[static_cast<std::size_t>(component)] += (until - proc.attr_mark).count();
  proc.attr_mark = until;
}

void Simulator::attr_finish(Proc& proc, Ticks end) {
  assert(proc.attr_mark == end && "attribution components must telescope to the op end");
  obs::AttributionLedger::OpRecord rec;
  rec.pid = proc.pid;
  rec.file_key = proc.attr_file;
  rec.phase = proc.attr_phase;
  rec.bytes = proc.attr_bytes;
  rec.write = proc.attr_write;
  rec.total = end - proc.attr_issue;
  rec.comp = proc.attr_comp;
  attr_->record_op(rec);
  proc.attr_active = false;
}

void Simulator::attr_record_disk(IoOp::Kind kind, Bytes bytes,
                                 const obs::AttrDiskBreakdown& breakdown) {
  // IoOp::Kind is kept in lockstep with the first four AttrDiskKind values
  // (bypass transfers record kBypass themselves), so this cast is the map.
  static_assert(static_cast<int>(obs::AttrDiskKind::kFetch) ==
                static_cast<int>(IoOp::Kind::kFetch));
  static_assert(static_cast<int>(obs::AttrDiskKind::kReadahead) ==
                static_cast<int>(IoOp::Kind::kReadAhead));
  static_assert(static_cast<int>(obs::AttrDiskKind::kFlush) ==
                static_cast<int>(IoOp::Kind::kFlush));
  static_assert(static_cast<int>(obs::AttrDiskKind::kWriteThrough) ==
                static_cast<int>(IoOp::Kind::kWriteThrough));
  attr_->record_disk(static_cast<obs::AttrDiskKind>(kind), bytes, breakdown);
}

void Simulator::push_event(Ticks time, EventKind kind, std::uint64_t arg,
                           std::uint32_t waiter) {
  events_.push_back(Event{time, next_seq_++, kind, waiter, arg});
  std::push_heap(events_.begin(), events_.end(), std::greater<>{});
}

void Simulator::poll_cancel_token() {
  cancel_countdown_ = kCancelStride;
  if (params_.cancel->cancelled()) {
    throw CancelledError("simulation abandoned at t=" + std::to_string(now_.seconds()) +
                         " s (" +
                         (params_.cancel->deadline_expired() ? "deadline expired"
                                                             : "cancel requested") +
                         ")");
  }
}

void Simulator::emit_span_metadata() {
  spans_->name_process(obs::track::kProcesses, "processes (sim time)");
  spans_->name_process(obs::track::kDisks, "disks");
  spans_->name_process(obs::track::kIoOps, "I/O operations");
  spans_->name_process(obs::track::kCache, "buffer cache");
  for (const Proc& proc : procs_) {
    spans_->name_thread(obs::track::kProcesses, proc.pid,
                        proc.name + " (pid " + std::to_string(proc.pid) + ")");
  }
  for (std::int32_t d = 0; d < params_.disk_count; ++d) {
    spans_->name_thread(obs::track::kDisks, static_cast<std::uint32_t>(d),
                        "disk " + std::to_string(d));
  }
}

void Simulator::emit_counter_sample(Ticks now) {
  if (cache_) {
    spans_->counter(obs::track::kCache, "dirty_blocks", now, "blocks",
                    cache_->dirty_block_count());
    spans_->counter(obs::track::kCache, "clean_blocks", now, "blocks",
                    cache_->clean_block_count());
    spans_->counter(obs::track::kCache, "resident_blocks", now, "blocks",
                    cache_->resident_blocks());
    spans_->counter(obs::track::kCache, "readahead_hit_blocks", now, "blocks",
                    result_.cache.readahead_used_blocks);
    spans_->counter(obs::track::kCache, "readahead_miss_blocks", now, "blocks",
                    result_.cache.readahead_fetched_blocks - result_.cache.readahead_used_blocks);
  }
  spans_->counter(obs::track::kIoOps, "inflight_ops", now, "ops",
                  static_cast<std::int64_t>(inflight_.size()) + bypass_inflight_);
  disk_->sample_queue_depth_counters(now);
}

bool Simulator::drained() const {
  return finished_ >= procs_.size() && inflight_.empty() && bypass_inflight_ == 0 &&
         (!cache_ || cache_->dirty_block_count() == 0);
}

void Simulator::note_evictions(std::int64_t before, Ticks t) {
  if (spans_ && result_.cache.evictions > before) {
    spans_->instant(obs::track::kCache, 0, "evict", t,
                    {{"blocks", result_.cache.evictions - before}});
  }
}

SimResult Simulator::run() {
  if (procs_.empty()) throw ConfigError("simulation has no processes");
  const LedgerWriter writer(attr_);
  if (spans_) emit_span_metadata();
  if (attr_) {
    // Register labels up front so a live mid-run scrape resolves names.
    for (const Proc& proc : procs_) attr_->note_process(proc.pid, proc.name);
  }
  now_ = Ticks::zero();
  for (Cpu& cpu : cpus_) {
    cpu.running = kNoProcess;
    cpu.idle = true;
    cpu.idle_since = Ticks::zero();
  }
  for (Proc& proc : procs_) {
    advance_to_next_request(proc);
    proc.state = PState::kReady;
    ready_.push_back(proc.pid);
  }
  push_event(Ticks::zero(), EventKind::kDispatch, 0);
  // Without a cache the flush tick would only reschedule itself.
  if (cache_) push_event(params_.cache.flush_period, EventKind::kFlushTick, 0);
  if (spans_ && params_.counter_interval > Ticks::zero()) {
    emit_counter_sample(Ticks::zero());
    push_event(params_.counter_interval, EventKind::kCounterTick, 0);
  }

  // Run until every process has finished AND the cache has drained its
  // dirty data (write-behind means data can outlive its writer).
  while (!events_.empty() && !drained()) {
    poll_cancel();
    std::pop_heap(events_.begin(), events_.end(), std::greater<>{});
    const Event event = events_.back();
    events_.pop_back();
    assert(event.time >= now_);
    now_ = event.time;
    if (now_ > kWallLimit) throw Error("simulation exceeded wall-clock safety limit");
    switch (event.kind) {
      case EventKind::kDispatch:
        on_dispatch(now_);
        break;
      case EventKind::kSliceEnd:
        on_slice_end(now_, static_cast<std::uint32_t>(event.arg));
        break;
      case EventKind::kIoDone:
        on_io_done(now_, event.arg);
        break;
      case EventKind::kBypassDone:
        on_bypass_done(now_, event.arg, event.waiter);
        break;
      case EventKind::kFlushTick:
        on_flush_tick(now_);
        break;
      case EventKind::kCounterTick:
        on_counter_tick(now_);
        break;
    }
  }
  if (finished_ < procs_.size()) throw Error("simulation stalled: event queue drained early");

  for (const Proc& proc : procs_) {
    ProcessResult pr;
    pr.pid = proc.pid;
    pr.name = proc.name;
    pr.finish_time = proc.finish_time;
    pr.cpu_time = proc.cpu_done;
    pr.blocked_time = proc.blocked_total;
    pr.io_count = proc.io_count;
    pr.bytes_read = proc.bytes_read;
    pr.bytes_written = proc.bytes_written;
    result_.processes.push_back(pr);
    result_.total_wall = std::max(result_.total_wall, proc.finish_time);
  }
  // CPUs that went idle before the last process finished stay idle to the
  // end of the run; close their idle intervals at total_wall.
  for (Cpu& cpu : cpus_) {
    if (cpu.idle && cpu.idle_since < result_.total_wall) {
      result_.cpu_idle += result_.total_wall - cpu.idle_since;
    }
  }
  result_.disk = disk_->metrics();
  if (attr_) result_.attr = attr_->summarize();
  return std::move(result_);
}

void Simulator::advance_to_next_request(Proc& proc) {
  proc.pending = proc.source->next();
  proc.remaining_compute = proc.pending ? proc.pending->compute : proc.source->final_compute();
}

void Simulator::account_idle_until(Ticks now, std::int32_t cpu) {
  Cpu& state = cpus_[static_cast<std::size_t>(cpu)];
  if (state.idle) {
    result_.cpu_idle += now - state.idle_since;
    state.idle = false;
  }
}

void Simulator::release_cpu(Ticks now, Proc& proc) {
  if (proc.cpu < 0) return;
  Cpu& state = cpus_[static_cast<std::size_t>(proc.cpu)];
  assert(state.running == proc.pid);
  if (spans_) spans_->end(obs::track::kProcesses, proc.pid, "run", now);
  state.running = kNoProcess;
  state.idle = true;
  state.idle_since = now;
  proc.cpu = -1;
}

void Simulator::on_dispatch(Ticks now) {
  // Fill every free CPU with a ready process.
  while (!ready_.empty()) {
    std::int32_t free_cpu = -1;
    for (std::size_t i = 0; i < cpus_.size(); ++i) {
      if (cpus_[i].running == kNoProcess) {
        free_cpu = static_cast<std::int32_t>(i);
        break;
      }
    }
    if (free_cpu < 0) return;
    const std::uint32_t pid = ready_.front();
    ready_.pop_front();
    Proc& proc = procs_[pid - 1];
    assert(proc.state == PState::kReady);
    account_idle_until(now, free_cpu);
    cpus_[static_cast<std::size_t>(free_cpu)].running = pid;
    proc.cpu = free_cpu;
    proc.state = PState::kRunning;
    if (spans_) {
      spans_->begin(obs::track::kProcesses, pid, "run", now, {{"cpu", free_cpu}});
    }
    result_.cpu_busy += params_.scheduler.context_switch;
    result_.overhead_time += params_.scheduler.context_switch;
    proc.slice_len = std::min(params_.scheduler.quantum, proc.remaining_compute);
    push_event(now + params_.scheduler.context_switch + proc.slice_len, EventKind::kSliceEnd,
               pid);
  }
}

void Simulator::on_slice_end(Ticks now, std::uint32_t pid) {
  Proc& proc = procs_[pid - 1];
  assert(proc.state == PState::kRunning && proc.cpu >= 0 &&
         cpus_[static_cast<std::size_t>(proc.cpu)].running == pid);
  result_.cpu_busy += proc.slice_len;
  proc.cpu_done += proc.slice_len;
  proc.remaining_compute -= proc.slice_len;

  if (proc.remaining_compute > Ticks::zero()) {
    // Quantum expired mid-compute.
    if (ready_.empty()) {
      // Nothing waits for this CPU, so every further expiry that would be
      // the heap's next pop anyway (strictly before its front; an equal
      // time pops the older event first) is accounted here, under the event
      // loop's cancel and wall-limit guards, instead of as an event. The
      // final slice (remaining compute <= quantum) stays an event, so
      // issue_io and finish_process keep one entry point.
      const Ticks quantum = params_.scheduler.quantum;
      while (proc.remaining_compute > quantum && now + quantum <= kWallLimit &&
             nothing_due_by(now + quantum)) {
        poll_cancel();
        now += quantum;
        now_ = now;
        result_.cpu_busy += quantum;
        proc.cpu_done += quantum;
        proc.remaining_compute -= quantum;
      }
      proc.slice_len = std::min(quantum, proc.remaining_compute);
      push_event(now + proc.slice_len, EventKind::kSliceEnd, pid);
    } else {
      proc.state = PState::kReady;
      ready_.push_back(pid);
      release_cpu(now, proc);
      push_event(now, EventKind::kDispatch, 0);
    }
    return;
  }

  if (!proc.pending) {
    finish_process(now, proc);
    return;
  }
  issue_io(now, pid);
}

void Simulator::finish_process(Ticks now, Proc& proc) {
  proc.state = PState::kFinished;
  proc.finish_time = now;
  ++finished_;
  release_cpu(now, proc);
  if (spans_) spans_->instant(obs::track::kProcesses, proc.pid, "finished", now);
  push_event(now, EventKind::kDispatch, 0);
}

void Simulator::continue_running(Ticks now, std::uint32_t pid, Ticks extra_stall) {
  Proc& proc = procs_[pid - 1];
  assert(proc.state == PState::kRunning);
  result_.cpu_busy += extra_stall;  // CPU held while the cache copy completes
  advance_to_next_request(proc);
  proc.slice_len = std::min(params_.scheduler.quantum, proc.remaining_compute);
  push_event(now + extra_stall + proc.slice_len, EventKind::kSliceEnd, pid);
}

void Simulator::block_for_io(Ticks now, Proc& proc, std::int32_t waits) {
  proc.state = PState::kBlockedIo;
  proc.wait_count = waits;
  proc.blocked_since = now;
  release_cpu(now, proc);
  if (spans_) {
    spans_->begin(obs::track::kProcesses, proc.pid, "blocked:io", now, {{"waits", waits}});
  }
  // With nothing ready, a dispatch runs nothing unless an event due by now
  // readies a process before it pops; otherwise it is skipped.
  if (!ready_.empty() || !nothing_due_by(now)) push_event(now, EventKind::kDispatch, 0);
}

void Simulator::block_for_space(Ticks now, Proc& proc) {
  proc.state = PState::kBlockedSpace;
  proc.blocked_since = now;
  ++result_.cache.space_waits;
  space_waiters_.push_back(proc.pid);
  release_cpu(now, proc);
  if (spans_) {
    spans_->begin(obs::track::kProcesses, proc.pid, "blocked:space", now);
    spans_->instant(obs::track::kCache, 0, "space_wait", now,
                    {{"pid", proc.pid}});
  }
  push_event(now, EventKind::kDispatch, 0);
  trigger_flush(now);
}

Ticks Simulator::unblock(Ticks now, Proc& proc) {
  const Ticks wake = now + params_.overhead.interrupt;
  result_.overhead_time += params_.overhead.interrupt;
  // Clamp: blocked_since carries the fs_call overhead, so an op the process
  // joined (submitted before this request) can complete inside that overhead
  // window — sim-time "before" the block began. The span must not go
  // backwards even then.
  if (spans_) {
    spans_->end(obs::track::kProcesses, proc.pid, "blocked:io",
                std::max(now, proc.blocked_since));
  }
  if (attr_ && proc.attr_active) {
    attr_add(proc, obs::AttrComponent::kMiss, now);
    attr_add(proc, obs::AttrComponent::kInterrupt, wake);
    attr_finish(proc, wake);
  }
  proc.blocked_total += now - proc.blocked_since;
  advance_to_next_request(proc);
  proc.state = PState::kReady;
  ready_.push_back(proc.pid);
  return wake;
}

void Simulator::record_request(Ticks now, std::uint32_t pid, const workload::Request& req,
                               bool cache_miss, bool readahead_hit) {
  if (!params_.record_trace) return;
  trace::TraceRecord r;
  // The RA-hit annotation is only meaningful on a hit (validate() enforces
  // the appendix's rule that a miss cannot also be a readahead hit).
  r.record_type = trace::make_record_type(/*logical=*/true, req.write, req.async,
                                          trace::DataClass::kFileData, cache_miss,
                                          readahead_hit && !cache_miss);
  r.offset = req.offset;
  r.length = req.length;
  r.start_time = now;
  r.completion_time = Ticks::zero();  // annotations, not timings
  r.operation_id = next_trace_op_++;
  r.file_id = req.file;
  r.process_id = pid;
  r.process_time = req.compute;
  result_.annotated_trace.push_back(r);
}

void Simulator::record_disk_traffic(Ticks start, Ticks done, Bytes bytes, bool write) {
  const auto amount = static_cast<double>(bytes);
  result_.disk_rate.add_spread(start, done - start, amount);
  (write ? result_.disk_write_rate : result_.disk_read_rate)
      .add_spread(start, done - start, amount);
}

void Simulator::submit_run(std::uint64_t id, Ticks now, const BlockRun& run, bool write,
                           IoOp::Kind kind, std::uint32_t sync_waiter) {
  const Bytes bs = cache_->block_size();
  obs::AttrDiskBreakdown breakdown;
  const Ticks done = disk_->submit(now, run.file, run.first_block * bs, run.bytes(bs), write,
                                   attr_ ? &breakdown : nullptr);
  if (attr_) {
    assert(breakdown.total() == done - now && "disk breakdown must sum to service time");
    attr_record_disk(kind, run.bytes(bs), breakdown);
  }
  record_disk_traffic(now, done, run.bytes(bs), write);
  IoOp op;
  op.kind = kind;
  op.run = run;
  if (sync_waiter != kNoProcess) op.waiters.push_back(sync_waiter);
  inflight_.emplace(id) = std::move(op);
  if (spans_) {
    spans_->async_begin(obs::track::kIoOps, id, "io", io_kind_name(kind), now,
                        {{"file", static_cast<std::int64_t>(run.file)},
                         {"blocks", run.count}});
  }
  push_event(done, EventKind::kIoDone, id);
}

void Simulator::bypass_cache(Ticks t, Proc& proc, const workload::Request& req,
                             std::uint32_t gfile) {
  record_request(t, proc.pid, req, /*cache_miss=*/true, /*readahead_hit=*/false);
  const std::uint64_t id = next_op_++;
  obs::AttrDiskBreakdown breakdown;
  const Ticks done = disk_->submit(t, gfile, req.offset, req.length, req.write,
                                   attr_ ? &breakdown : nullptr);
  if (attr_) {
    assert(breakdown.total() == done - t && "disk breakdown must sum to service time");
    attr_->record_disk(obs::AttrDiskKind::kBypass, req.length, breakdown);
  }
  record_disk_traffic(t, done, req.length, req.write);
  ++bypass_inflight_;
  if (spans_) {
    spans_->async_begin(obs::track::kIoOps, id, "io", "bypass", t,
                        {{"file", static_cast<std::int64_t>(gfile)}, {"bytes", req.length}});
  }
  push_event(done, EventKind::kBypassDone, id, req.async ? kNoProcess : proc.pid);
  if (req.async) {
    if (attr_) attr_finish(proc, t);
    continue_running(t, proc.pid, Ticks::zero());
  } else {
    block_for_io(t, proc, 1);
  }
}

void Simulator::issue_io(Ticks now, std::uint32_t pid) {
  Proc& proc = procs_[pid - 1];
  const workload::Request req = *proc.pending;
  result_.cpu_busy += params_.overhead.fs_call;
  result_.overhead_time += params_.overhead.fs_call;
  const Ticks t = now + params_.overhead.fs_call;

  // Deferred until we know the request is really proceeding: a space-wait
  // retry re-enters this function and must not double-count.
  auto account = [&] {
    result_.logical_rate.add(t, static_cast<double>(req.length));
    ++proc.io_count;
    if (req.write) {
      proc.bytes_written += req.length;
    } else {
      proc.bytes_read += req.length;
    }
  };
  const std::uint32_t gfile = global_file(pid, req.file);
  if (attr_) attr_begin(now, t, proc, req, gfile);

  // --- No cache configured: straight to disk. -----------------------------
  if (!cache_) {
    account();
    bypass_cache(t, proc, req, gfile);
    return;
  }

  // Eviction probe baseline: plan_read/plan_write/try_issue_readahead evict
  // internally; a metrics delta afterwards tells us when (and how many).
  const std::int64_t evictions_before = spans_ ? result_.cache.evictions : 0;

  if (!req.write) {
    // --- Read --------------------------------------------------------------
    const std::uint64_t first_op = next_op_;
    auto plan = cache_->plan_read(pid, gfile, req.offset, req.length, first_op);
    if (plan.space_wait) {
      block_for_space(t, proc);
      return;
    }
    account();
    note_evictions(evictions_before, t);
    if (plan.bypass) {
      bypass_cache(t, proc, req, gfile);
      return;
    }
    record_request(t, pid, req, /*cache_miss=*/!plan.full_hit, plan.readahead_hit);
    next_op_ += plan.fetch_runs.size();
    std::int32_t waits = 0;
    for (std::size_t i = 0; i < plan.fetch_runs.size(); ++i) {
      // Submit under the id the cache tagged the run's blocks with.
      submit_run(first_op + i, t, plan.fetch_runs[i], /*write=*/false, IoOp::Kind::kFetch,
                 req.async ? kNoProcess : pid);
      if (!req.async) ++waits;
    }
    if (!req.async) {
      for (const std::uint64_t join_id : plan.join_ops) {
        IoOp* join = inflight_.find(join_id);
        if (join == nullptr) continue;  // completed this very tick
        join->waiters.push_back(pid);
        ++waits;
      }
    }
    if (plan.readahead) {
      const std::uint64_t ra_id = next_op_;
      const std::int64_t ra_evictions_before = spans_ ? result_.cache.evictions : 0;
      if (auto run = cache_->try_issue_readahead(pid, *plan.readahead, ra_id)) {
        ++next_op_;
        submit_run(ra_id, t, *run, /*write=*/false, IoOp::Kind::kReadAhead, kNoProcess);
      }
      note_evictions(ra_evictions_before, t);
    }
    if (waits == 0) {
      const Ticks stall = plan.full_hit ? hit_delay(req.length) : Ticks::zero();
      if (attr_) {
        // A full hit served from read-ahead blocks is the prefetcher's
        // credit; a plain hit is the cache's own service cost.
        if (stall > Ticks::zero()) {
          attr_add(proc, plan.readahead_hit ? obs::AttrComponent::kReadahead
                                            : obs::AttrComponent::kHit,
                   t + stall);
        }
        attr_finish(proc, t + stall);
      }
      continue_running(t, pid, stall);
    } else {
      block_for_io(t, proc, waits);
    }
    return;
  }

  // --- Write ---------------------------------------------------------------
  auto plan = cache_->plan_write(pid, gfile, req.offset, req.length, next_op_,
                                 params_.cache.write_behind, t);
  if (plan.space_wait) {
    block_for_space(t, proc);
    return;
  }
  account();
  note_evictions(evictions_before, t);
  if (plan.bypass) {
    bypass_cache(t, proc, req, gfile);
    return;
  }
  if (plan.absorbed) {
    record_request(t, pid, req, /*cache_miss=*/false, /*readahead_hit=*/false);
    const Ticks stall = hit_delay(req.length);
    if (attr_) {
      attr_add(proc, obs::AttrComponent::kAbsorb, t + stall);
      attr_finish(proc, t + stall);
    }
    continue_running(t, pid, stall);
    if (cache_->over_watermark()) trigger_flush(t);
    return;
  }
  // Write-through.
  record_request(t, pid, req, /*cache_miss=*/true, /*readahead_hit=*/false);
  std::int32_t waits = 0;
  for (const BlockRun& run : plan.writethrough_runs) {
    submit_run(next_op_++, t, run, /*write=*/true, IoOp::Kind::kWriteThrough,
               req.async ? kNoProcess : pid);
    if (!req.async) ++waits;
  }
  if (waits == 0) {
    if (attr_) attr_finish(proc, t);
    continue_running(t, pid, Ticks::zero());
  } else {
    block_for_io(t, proc, waits);
  }
}

void Simulator::on_io_done(Ticks now, std::uint64_t op_id) {
  IoOp* found = inflight_.find(op_id);
  if (found == nullptr) return;
  IoOp op = std::move(*found);  // erase() shifts entries, so `found` dies with it
  inflight_.erase(op_id);
  if (spans_) spans_->async_end(obs::track::kIoOps, op_id, "io", io_kind_name(op.kind), now);

  if (op.kind == IoOp::Kind::kFetch || op.kind == IoOp::Kind::kReadAhead) {
    cache_->fetch_complete(op.run);
  } else {
    cache_->flush_complete(op.run);
  }
  for (const std::uint32_t pid : op.waiters) {
    Proc& proc = procs_[pid - 1];
    if (proc.state != PState::kBlockedIo) continue;
    if (--proc.wait_count == 0) push_event(unblock(now, proc), EventKind::kDispatch, 0);
  }
  wake_space_waiters(now);
}

void Simulator::on_bypass_done(Ticks now, std::uint64_t op_id, std::uint32_t waiter) {
  --bypass_inflight_;
  if (spans_) spans_->async_end(obs::track::kIoOps, op_id, "io", "bypass", now);
  if (waiter != kNoProcess) {
    Proc& proc = procs_[waiter - 1];
    assert(proc.state == PState::kBlockedIo && proc.wait_count == 1);
    proc.wait_count = 0;
    const Ticks wake = unblock(now, proc);
    // The dispatch runs in place when it would be the heap's next pop: no
    // space waiter is woken below (that pushes an earlier dispatch), nothing
    // else is due by `wake`, and `wake` is within the wall limit. Like an
    // in-place quantum expiry it counts against the cancel countdown.
    if (space_waiters_.empty() && wake <= kWallLimit && nothing_due_by(wake)) {
      poll_cancel();
      now_ = wake;
      on_dispatch(wake);
      return;
    }
    push_event(wake, EventKind::kDispatch, 0);
  }
  wake_space_waiters(now);
}

void Simulator::wake_space_waiters(Ticks now) {
  if (space_waiters_.empty()) return;
  for (const std::uint32_t pid : space_waiters_) {
    Proc& proc = procs_[pid - 1];
    if (proc.state != PState::kBlockedSpace) continue;
    // Same clamp as unblock(): completions can land inside the fs_call window.
    if (spans_) {
      spans_->end(obs::track::kProcesses, pid, "blocked:space", std::max(now, proc.blocked_since));
    }
    if (attr_ && proc.attr_active) attr_add(proc, obs::AttrComponent::kSpace, now);
    proc.blocked_total += now - proc.blocked_since;
    proc.state = PState::kReady;
    ready_.push_back(pid);
  }
  space_waiters_.clear();
  push_event(now, EventKind::kDispatch, 0);
}

void Simulator::trigger_flush(Ticks now, Ticks min_age) {
  if (!cache_) return;
  const auto runs = cache_->collect_flush_batch(params_.cache.max_flush_batch_blocks,
                                                params_.cache.max_flush_run_blocks, now, min_age);
  for (const BlockRun& run : runs) {
    submit_run(next_op_++, now, run, /*write=*/true, IoOp::Kind::kFlush, kNoProcess);
  }
  if (spans_) {
    spans_->counter(obs::track::kCache, "dirty_blocks", now, "blocks",
                    cache_->dirty_block_count());
  }
}

void Simulator::on_flush_tick(Ticks now) {
  // Periodic flushes honor the delayed-write age; once all processes have
  // finished, drain everything regardless of age.
  const Ticks age = finished_ >= procs_.size() ? Ticks::zero() : params_.cache.delayed_write_age;
  if (cache_->dirty_block_count() > 0) trigger_flush(now, age);
  // Keep ticking while the workload runs; afterwards, only until the
  // remaining dirty data has drained to disk.
  if (!drained()) push_event(now + params_.cache.flush_period, EventKind::kFlushTick, 0);
}

void Simulator::on_counter_tick(Ticks now) {
  // Telemetry only: samples state, mutates nothing, so the event's presence
  // cannot change the simulation outcome (only event seq numbers shift, and
  // (time, seq) relative order among real events is preserved).
  emit_counter_sample(now);
  if (!drained()) push_event(now + params_.counter_interval, EventKind::kCounterTick, 0);
}

}  // namespace craysim::sim
