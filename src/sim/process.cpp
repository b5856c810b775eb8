#include "sim/process.hpp"

#include "trace/record.hpp"

namespace craysim::sim {
namespace {

/// The request a record replays, or nullopt for records replay skips
/// (comments, physical and metadata records, other processes).
std::optional<workload::Request> replay_request(const trace::TraceRecord& r,
                                                std::uint32_t process_id) {
  if (r.is_comment() || !r.is_logical() || r.data_class() != trace::DataClass::kFileData) {
    return std::nullopt;
  }
  if (process_id != 0 && r.process_id != process_id) return std::nullopt;
  workload::Request req;
  req.compute = r.process_time;
  req.file = r.file_id;
  req.offset = r.offset;
  req.length = r.length;
  req.write = r.is_write();
  req.async = r.is_async();
  return req;
}

}  // namespace

StreamingReplaySource::StreamingReplaySource(std::unique_ptr<trace::RecordSource> records,
                                             std::uint32_t process_id)
    : records_(std::move(records)), process_id_(process_id) {}

std::optional<workload::Request> StreamingReplaySource::next() {
  while (auto record = records_->next()) {
    ++records_consumed_;
    if (auto req = replay_request(*record, process_id_)) return req;
  }
  return std::nullopt;
}

}  // namespace craysim::sim
