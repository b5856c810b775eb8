#include "trace/binary_stream.hpp"

#include <cstring>
#include <fstream>
#include <ostream>

#include "trace/binary.hpp"
#include "trace/codec.hpp"
#include "trace/mapped_file.hpp"
#include "util/error.hpp"

namespace craysim::trace {
namespace {

// The fixed-width format stores every present integer at its natural C
// width, as `struct traceRecord` would have been dumped on the Cray (minus
// absent fields). Values that do not fit are a hard error — one of the
// practical reasons the study chose variable-length text.
void put_u16(std::vector<std::byte>& out, std::uint16_t v) {
  out.push_back(static_cast<std::byte>(v & 0xff));
  out.push_back(static_cast<std::byte>(v >> 8));
}

void put_u32(std::vector<std::byte>& out, std::uint64_t v, const char* field) {
  if (v > 0xffffffffull) {
    throw TraceFormatError(std::string("binary format overflow in field ") + field);
  }
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
}

class Cursor {
 public:
  explicit Cursor(std::span<const std::byte> data) : data_(data) {}

  std::uint16_t u16() {
    require(2);
    const auto v = static_cast<std::uint16_t>(static_cast<std::uint16_t>(data_[pos_]) |
                                              (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    require(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  [[nodiscard]] std::size_t consumed() const { return pos_; }

 private:
  void require(std::size_t n) {
    if (pos_ + n > data_.size()) throw TraceFormatError("binary trace truncated");
  }
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace

bool starts_with_binary_magic(std::span<const std::byte> data) {
  return data.size() >= kBinaryTraceMagic.size() &&
         std::memcmp(data.data(), kBinaryTraceMagic.data(), kBinaryTraceMagic.size()) == 0;
}

bool starts_with_binary_magic(std::string_view text) {
  return starts_with_binary_magic(std::as_bytes(std::span(text)));
}

// ---------------------------------------------------------------------------
// Per-record state machines.
// ---------------------------------------------------------------------------

bool BinaryRecordEncoder::encode_to(const TraceRecord& record, std::vector<std::byte>& out) {
  validate(record);
  if (record.is_comment()) return false;  // binary dumps carried no comments
  const CompressionState::Choice choice = state_.choose(record);
  const std::uint16_t c = choice.compression;

  put_u16(out, record.record_type);
  put_u16(out, c);
  if (!(c & kNoOffset)) put_u32(out, static_cast<std::uint64_t>(choice.offset), "offset");
  if (!(c & kNoLength)) put_u32(out, static_cast<std::uint64_t>(choice.length), "length");
  put_u32(out, static_cast<std::uint64_t>(choice.start_delta.count()), "startTime");
  put_u32(out, static_cast<std::uint64_t>(record.completion_time.count()), "completionTime");
  if (!(c & kNoOperationId)) put_u32(out, record.operation_id, "operationId");
  if (!(c & kNoFileId)) put_u32(out, record.file_id, "fileId");
  if (!(c & kNoProcessId)) put_u32(out, record.process_id, "processId");
  put_u32(out, static_cast<std::uint64_t>(record.process_time.count()), "processTime");

  state_.commit(record, choice.file);
  return true;
}

BinaryRecordDecoder::Decoded BinaryRecordDecoder::decode(std::span<const std::byte> data) {
  Cursor cursor(data);
  TraceRecord record;
  record.record_type = cursor.u16();
  const std::uint16_t c = cursor.u16();
  record.compression = c;

  std::optional<Bytes> offset_field;
  if (!(c & kNoOffset)) {
    Bytes v = cursor.u32();
    if (c & kOffsetInBlocks) v *= kTraceBlockSize;
    offset_field = v;
  }
  std::optional<Bytes> length_field;
  if (!(c & kNoLength)) {
    Bytes v = cursor.u32();
    if (c & kLengthInBlocks) v *= kTraceBlockSize;
    length_field = v;
  }
  const Ticks start_delta = Ticks(cursor.u32());
  record.completion_time = Ticks(cursor.u32());
  std::optional<std::uint32_t> op_field;
  if (!(c & kNoOperationId)) op_field = cursor.u32();
  std::optional<std::uint32_t> file_field;
  if (!(c & kNoFileId)) file_field = cursor.u32();
  std::optional<std::uint32_t> pid_field;
  if (!(c & kNoProcessId)) pid_field = cursor.u32();
  record.process_time = Ticks(cursor.u32());

  if (pid_field) {
    record.process_id = *pid_field;
  } else if (state_.has_previous()) {
    record.process_id = state_.previous_process();
  } else {
    throw TraceFormatError("binary: TRACE_NO_PROCESSID on first record");
  }
  if (file_field) {
    record.file_id = *file_field;
  } else if (const std::uint32_t* last_file = state_.last_file_of(record.process_id)) {
    record.file_id = *last_file;
  } else {
    throw TraceFormatError("binary: TRACE_NO_FILEID with no prior record for process");
  }
  CompressionState::File* state = state_.file(record.process_id, record.file_id);
  if (op_field) {
    record.operation_id = *op_field;
  } else if (state != nullptr && state->has_operation) {
    record.operation_id = state->last_operation_id;
  } else {
    throw TraceFormatError("binary: TRACE_NO_OPERATIONID with no prior record for file");
  }
  if (offset_field) {
    record.offset = *offset_field;
  } else if (state != nullptr) {
    record.offset = state->next_sequential_offset;
  } else {
    throw TraceFormatError("binary: TRACE_NO_BLOCK with no prior access to file");
  }
  if (length_field) {
    record.length = *length_field;
  } else if (state != nullptr && state->last_length >= 0) {
    record.length = state->last_length;
  } else {
    throw TraceFormatError("binary: TRACE_NO_LENGTH with no prior access to file");
  }
  record.start_time =
      state_.has_previous() ? state_.previous_start() + start_delta : start_delta;
  validate(record);

  state_.commit(record, state);
  return {record, cursor.consumed()};
}

// ---------------------------------------------------------------------------
// Whole-trace codecs (binary.hpp).
// ---------------------------------------------------------------------------

// The compressed codec is the whole-trace view of the streaming state
// machines above: one shared encoder/decoder pair means the framed stream's
// payload and these functions' output cannot drift apart.
std::vector<std::byte> encode_binary(const Trace& trace) {
  std::vector<std::byte> out;
  out.reserve(trace.size() * 24);
  BinaryRecordEncoder encoder;
  for (const TraceRecord& record : trace) encoder.encode_to(record, out);
  return out;
}

Trace decode_binary(std::span<const std::byte> data) {
  Trace trace;
  BinaryRecordDecoder decoder;
  std::size_t pos = 0;
  while (pos < data.size()) {
    auto [record, consumed] = decoder.decode(data.subspan(pos));
    pos += consumed;
    trace.push_back(record);
  }
  return trace;
}

std::vector<std::byte> encode_binary_struct_dump(const Trace& trace) {
  std::vector<std::byte> out;
  out.reserve(trace.size() * kStructDumpRecordBytes);
  bool has_previous = false;
  Ticks previous_start;
  auto put_u64 = [&out](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  };
  for (const TraceRecord& record : trace) {
    validate(record);
    if (record.is_comment()) continue;
    if (has_previous && record.start_time < previous_start) {
      throw TraceFormatError("records must be encoded in start-time order");
    }
    const Ticks start_delta =
        has_previous ? record.start_time - previous_start : record.start_time;
    put_u16(out, record.record_type);
    put_u16(out, 0);  // compression: nothing omitted in a struct dump
    put_u32(out, static_cast<std::uint64_t>(record.offset), "offset");
    put_u32(out, static_cast<std::uint64_t>(record.length), "length");
    put_u64(static_cast<std::uint64_t>(start_delta.count()));
    put_u64(static_cast<std::uint64_t>(record.completion_time.count()));
    put_u32(out, record.operation_id, "operationId");
    put_u32(out, record.file_id, "fileId");
    put_u32(out, record.process_id, "processId");
    put_u32(out, static_cast<std::uint64_t>(record.process_time.count()), "processTime");
    has_previous = true;
    previous_start = record.start_time;
  }
  return out;
}

Trace decode_binary_struct_dump(std::span<const std::byte> data) {
  if (data.size() % kStructDumpRecordBytes != 0) {
    throw TraceFormatError("struct-dump trace length is not a whole number of records");
  }
  Trace trace;
  Cursor cursor(data);
  bool has_previous = false;
  Ticks previous_start;
  auto u64 = [&cursor]() {
    const std::uint64_t lo = cursor.u32();
    const std::uint64_t hi = cursor.u32();
    return lo | (hi << 32);
  };
  while (cursor.consumed() < data.size()) {
    TraceRecord record;
    record.record_type = cursor.u16();
    record.compression = cursor.u16();
    record.offset = static_cast<Bytes>(cursor.u32());
    record.length = static_cast<Bytes>(cursor.u32());
    const Ticks start_delta = Ticks(static_cast<std::int64_t>(u64()));
    record.completion_time = Ticks(static_cast<std::int64_t>(u64()));
    record.operation_id = cursor.u32();
    record.file_id = cursor.u32();
    record.process_id = cursor.u32();
    record.process_time = Ticks(cursor.u32());
    record.start_time = has_previous ? previous_start + start_delta : start_delta;
    validate(record);
    has_previous = true;
    previous_start = record.start_time;
    trace.push_back(record);
  }
  return trace;
}

FormatComparison compare_formats(const Trace& trace) {
  FormatComparison result;
  result.records = trace.size();
  result.ascii_bytes = serialize_trace(trace).size();
  result.binary_struct_bytes = encode_binary_struct_dump(trace).size();
  result.binary_compressed_bytes = encode_binary(trace).size();
  return result;
}

// ---------------------------------------------------------------------------
// Framed streaming writer/reader.
// ---------------------------------------------------------------------------

BinaryTraceWriter::BinaryTraceWriter(std::ostream& out) : out_(&out) {
  std::vector<std::byte> header(kBinaryTraceMagic.begin(), kBinaryTraceMagic.end());
  put_u16(header, kBinaryTraceVersion);
  put_u16(header, 0);  // flags, reserved
  out_->write(reinterpret_cast<const char*>(header.data()),
              static_cast<std::streamsize>(header.size()));
  if (!*out_) throw Error("binary trace: header write failed");
}

void BinaryTraceWriter::write(const TraceRecord& record) {
  scratch_.clear();
  if (!encoder_.encode_to(record, scratch_)) return;  // comment: dropped
  out_->write(reinterpret_cast<const char*>(scratch_.data()),
              static_cast<std::streamsize>(scratch_.size()));
  if (!*out_) throw Error("binary trace: record write failed");
  ++records_written_;
}

BinaryTraceReader::BinaryTraceReader(std::span<const std::byte> data) : data_(data) {
  if (data_.size() < kBinaryFrameHeaderBytes || !starts_with_binary_magic(data_)) {
    throw TraceFormatError("not a framed binary trace (bad magic)");
  }
  Cursor cursor(data_.subspan(kBinaryTraceMagic.size()));
  const std::uint16_t version = cursor.u16();
  const std::uint16_t flags = cursor.u16();
  if (version != kBinaryTraceVersion) {
    throw TraceFormatError("unsupported binary trace version " + std::to_string(version));
  }
  if (flags != 0) {
    throw TraceFormatError("binary trace: reserved header flags set");
  }
}

std::optional<TraceRecord> BinaryTraceReader::next() {
  if (pos_ == data_.size()) return std::nullopt;  // clean end of stream
  auto [record, consumed] = decoder_.decode(data_.subspan(pos_));
  pos_ += consumed;
  ++records_read_;
  return record;
}

// ---------------------------------------------------------------------------
// File helpers.
// ---------------------------------------------------------------------------

void save_trace_binary(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open for writing: " + path);
  BinaryTraceWriter writer(out);
  for (const auto& record : trace) writer.write(record);
  out.flush();
  if (!out) throw Error("write failed: " + path);
}

Trace load_trace_binary(const std::string& path) {
  Trace trace;
  auto drain = [&trace](std::span<const std::byte> bytes) {
    BinaryTraceReader reader(bytes);
    while (auto record = reader.next()) trace.push_back(*record);
  };
  if (auto mapped = MappedFile::open(path)) {
    mapped->advise_sequential();
    drain(mapped->bytes());
  } else {
    const std::string bytes = read_file(path);
    drain(std::as_bytes(std::span(bytes)));
  }
  return trace;
}

}  // namespace craysim::trace
