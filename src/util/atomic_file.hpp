// Crash-atomic file writes: write-to-temp + (optional) fsync + rename(2).
//
// Every durable artifact craysim produces — sweep journals, Perfetto traces,
// metrics JSONL — goes through write_file_atomic so an interrupted run
// (including SIGKILL mid-write) leaves either the previous file or the new
// one, never a truncated hybrid.
#pragma once

#include <string>
#include <string_view>

namespace craysim::util {

/// Atomically replaces `path` with `contents`. The data is written to a
/// temp file in the same directory (so the final rename stays within one
/// filesystem), optionally fsync'd for durability, then rename(2)'d over the
/// destination. Throws Error on any I/O failure; the temp file is removed on
/// error. `sync` fsyncs the temp file before the rename and the parent
/// directory after it, so the new contents and the rename (or the file's
/// creation) survive power loss — enable it for checkpoint data, skip it
/// for reproducible report artifacts.
void write_file_atomic(const std::string& path, std::string_view contents, bool sync = false);

}  // namespace craysim::util
