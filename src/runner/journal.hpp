// Durable checkpoint/resume journal for resilient sweeps.
//
// One journal describes one sweep. Its first line is a header pinning the
// sweep digest (point count folded with every point's input digest). Two
// sections follow:
//   * the canonical section: one JSON record per settled point, sorted by
//     index — the form compact() writes;
//   * the log: one frame per point settled since the last compaction, in
//     settle order. A frame is the marker byte '#', the CRC-32 (zlib's
//     polynomial) of the record line as 8 lowercase hex digits, then the
//     record line exactly as the canonical section renders it, then '\n'.
//     Payloads are JSON-escaped, so that newline is the only raw one in a
//     frame and a frame needs no length field.
//
// append() writes one frame under the journal mutex and fdatasyncs it
// outside the mutex, so one worker's sync does not hold up another's write.
// A record is durable when append() returns, and a point's journal cost does
// not grow with the journal. compact() runs once, at
// sweep end: it rewrites the file in canonical form (temp file + fsync +
// rename + directory fsync), so the final bytes are a pure function of the
// settled records and a resumed run converges on a file byte-identical to
// an uninterrupted run's. A journal that is already canonical and got no new
// record is not rewritten, so resuming a finished sweep writes nothing.
//
// Resume rules (the constructor):
//   * The header and the canonical records were written whole by a
//     compaction, so a defect in one throws Error — a journal is never
//     silently reinterpreted.
//   * A last line with no newline is a torn tail (a crash mid-append). It is
//     cut off before the next append, and its point runs again.
//   * The first line after the header that does not start like a canonical
//     record (`{"index":`) ends the canonical section. From there on every
//     line must be a frame; a frame whose CRC fails and any other line are
//     dropped and counted in corrupt_records(), and their points run again.
//     A frame with a damaged marker therefore never reads as a canonical
//     record: its CRC digits follow the marker.
//   * A line that starts like a canonical record after the section ended,
//     but before any line that starts with '#', follows a damaged canonical
//     record and throws Error. So damage to the start of a canonical line
//     costs at most that one record — when it is the last one, which cannot
//     be told from a first frame with a damaged marker, it is dropped and
//     counted like one.
//   * Blank lines are skipped; after the header they count as damage too.
//   * A file with no complete line is a torn header only if its bytes are a
//     cut of this sweep's header line; anything else throws Error.
// `tools/validate_telemetry.py --journal` checks the format.
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

/// The sweep journal file. append() is thread-safe for concurrent pool
/// workers; construction and compact() happen on the calling thread.
class SweepJournal {
 public:
  struct Record {
    std::size_t index = 0;           ///< point index within the sweep
    std::uint64_t input_digest = 0;  ///< digest of the point's inputs
    PointOutcome outcome;
    std::string payload;  ///< serialized result; empty unless status == kOk
  };

  /// What one call wrote: bytes and durability barriers (fsync/fdatasync
  /// of the file, or one atomic rewrite).
  struct Cost {
    std::int64_t bytes = 0;
    std::int64_t syncs = 0;
  };

  /// Opens (or creates, on the first append) the journal at `path` for the
  /// sweep identified by `sweep_digest` over `point_count` points, applying
  /// the resume rules above. A digest or point-count mismatch (the file
  /// belongs to a different sweep), an out-of-range or duplicate index, or
  /// a malformed header or canonical line throws Error.
  SweepJournal(std::string path, std::uint64_t sweep_digest, std::size_t point_count);

  /// Closes the file. Every appended record is already durable; a journal
  /// that was not compacted stays in log form, which resumes the same way.
  ~SweepJournal();
  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// Records restored from the pre-existing file, sorted by index. Read
  /// them before the first append(), which inserts into the same vector.
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  /// Lines the constructor dropped as damaged: log lines that are not a
  /// frame with a matching CRC, and blank lines after the header.
  [[nodiscard]] std::int64_t corrupt_records() const { return corrupt_; }

  /// Appends one settled record as a frame and returns once it is durable.
  /// Thread-safe. Throws Error when the write or sync fails; every later
  /// append then throws too.
  Cost append(Record record);

  /// Rewrites the journal in canonical form, unless the file already is
  /// canonical and nothing was appended. Call after the last append.
  Cost compact();

 private:
  Cost open_for_append_locked();

  std::string path_;
  std::uint64_t sweep_digest_ = 0;
  std::size_t point_count_ = 0;
  std::int64_t corrupt_ = 0;

  std::mutex mutex_;             ///< guards the members below
  std::vector<Record> records_;  ///< every settled record, kept sorted by index
  bool has_header_ = false;      ///< the file starts with a complete header line
  bool canonical_ = false;       ///< the file is byte-exactly the canonical form
  std::size_t valid_size_ = 0;   ///< file bytes up to the last complete line
  bool torn_tail_ = false;       ///< the file holds bytes past valid_size_
  int fd_ = -1;                  ///< append descriptor; -1 until the first append
  bool failed_ = false;          ///< a write or sync failed: no more appends
};

}  // namespace craysim::runner
