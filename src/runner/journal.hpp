// Durable checkpoint/resume journal for resilient sweeps.
//
// One journal describes one sweep: a header line pinning the sweep digest
// (point count folded with every point's input digest) followed by one JSON
// record per settled point. Flushes rewrite the whole file — sorted by point
// index — to a temp file, fsync it, and rename(2) it over the destination,
// so a crash at any instant (including SIGKILL mid-write) leaves either the
// previous consistent journal or the new one, never a truncated artifact.
// Because every flush is a full sorted rewrite, the final journal bytes are
// a pure function of the settled records: a resumed run that re-settles the
// remaining points converges on a file byte-identical to an uninterrupted
// run's. `tools/validate_telemetry.py --journal` checks the format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace craysim::runner {

/// How a sweep point ultimately settled.
enum class PointStatus : std::uint8_t {
  kOk,        ///< produced a value
  kFailed,    ///< final attempt threw a non-cancellation exception
  kTimedOut,  ///< final attempt was cancelled by the point deadline
};

/// Journal/status wire names: "ok", "failed", "timeout".
[[nodiscard]] const char* point_status_name(PointStatus status);

/// Per-point execution record surfaced alongside every PointResult and
/// persisted in the journal. For a journal-restored point, `attempts` and
/// `backoff_ns` are the original run's values and `from_journal` is true.
struct PointOutcome {
  PointStatus status = PointStatus::kOk;
  std::int32_t attempts = 1;    ///< executions performed (1 = no retries)
  bool from_journal = false;    ///< restored from the journal, not executed
  std::int64_t backoff_ns = 0;  ///< total retry backoff slept before settling
  std::string error;            ///< final failure message; empty when kOk
};

/// The sweep journal file. Thread-safe for concurrent append() from pool
/// workers; construction and flush() happen on the calling thread.
class SweepJournal {
 public:
  struct Record {
    std::size_t index = 0;           ///< point index within the sweep
    std::uint64_t input_digest = 0;  ///< digest of the point's inputs
    PointOutcome outcome;
    std::string payload;  ///< serialized result; empty unless status == kOk
  };

  /// Opens (or creates) the journal at `path` for the sweep identified by
  /// `sweep_digest` over `point_count` points. An existing file is parsed
  /// and its records exposed via records(). A digest or point-count mismatch
  /// (the file belongs to a different sweep), an out-of-range or duplicate
  /// index, or any malformed line throws Error — a journal is never silently
  /// reinterpreted.
  SweepJournal(std::string path, std::uint64_t sweep_digest, std::size_t point_count);

  /// Best-effort final flush; errors are swallowed (use flush() for a
  /// checked one).
  ~SweepJournal();

  /// Records restored from the pre-existing file, sorted by index.
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  /// Appends one settled record and flushes the journal. Thread-safe.
  void append(Record record);

  /// Durably rewrites the journal (temp file + fsync + atomic rename).
  void flush();

 private:
  void flush_locked();
  [[nodiscard]] std::string render_locked() const;

  std::string path_;
  std::uint64_t sweep_digest_ = 0;
  std::size_t point_count_ = 0;
  std::mutex mutex_;
  std::vector<Record> records_;  ///< kept sorted by index
  std::size_t unflushed_ = 0;
};

}  // namespace craysim::runner
