#include "trace/codec.hpp"

#include <algorithm>
#include <array>
#include <charconv>

#include "util/error.hpp"
#include "util/text.hpp"

namespace craysim::trace {
namespace {

std::uint64_t file_key(std::uint32_t pid, std::uint32_t file_id) {
  return (static_cast<std::uint64_t>(pid) << 32) | file_id;
}

// Magnitude bound on every value field: 2^50 bytes (1 PiB) / ticks (~350
// years). Far beyond any real trace, but small enough that the block-size
// rescale and running start-time sum below can never overflow int64 on
// hostile input.
constexpr std::int64_t kFieldLimit = std::int64_t{1} << 50;

// The longest line encode() renders: ten fields of at most 20 characters
// ("-9223372036854775808"), each after one space.
constexpr std::size_t kMaxLineBytes = 10 * 21;

/// A token of a wire line (a run of non-spaces) and its value.
template <typename T>
struct Token {
  std::string_view text;
  std::optional<T> value;  ///< nullopt when the token does not parse
};

/// Reads the token that starts at `p`, a non-space before `end`. A plain
/// decimal token parses in place. Any other (hex, a '+', overflow, a tab or
/// CR inside it) goes whole through `parse_whole`, parse_uint or parse_int,
/// so those functions' rules decide every token; the in-place parse takes
/// only tokens on which it agrees with them. Reads nothing at or past `end`.
template <typename T>
Token<T> read_token(const char* p, const char* end,
                    std::optional<T> (*parse_whole)(std::string_view)) {
  T value{};
  const auto [stop, ec] = std::from_chars(p, end, value);
  if (ec == std::errc{} && (stop == end || *stop == ' ')) {
    return {std::string_view(p, static_cast<std::size_t>(stop - p)), value};
  }
  const std::string_view text(p, static_cast<std::size_t>(std::find(p, end, ' ') - p));
  return {text, parse_whole(text)};
}

}  // namespace

const std::uint32_t* CompressionState::last_file_of(std::uint32_t pid) const {
  if (has_previous_ && pid == previous_process_) return &previous_file_;
  const auto it = last_file_by_process_.find(pid);
  return it == last_file_by_process_.end() ? nullptr : &it->second;
}

CompressionState::File* CompressionState::file(std::uint32_t pid, std::uint32_t file_id) {
  const std::uint64_t key = file_key(pid, file_id);
  const auto it = files_.find(key);
  return it == files_.end() ? nullptr : &it->second;
}

CompressionState::Choice CompressionState::choose(const TraceRecord& record) {
  if (has_previous_ && record.start_time < previous_start_) {
    throw TraceFormatError("records must be encoded in start-time order");
  }
  Choice choice;
  if (has_previous_ && record.process_id == previous_process_) choice.compression |= kNoProcessId;
  const std::uint32_t* last_file = last_file_of(record.process_id);
  if (last_file != nullptr && *last_file == record.file_id) choice.compression |= kNoFileId;

  choice.file = file(record.process_id, record.file_id);
  if (const File* state = choice.file) {
    if (state->has_operation && state->last_operation_id == record.operation_id) {
      choice.compression |= kNoOperationId;
    }
    if (record.offset == state->next_sequential_offset) choice.compression |= kNoOffset;
    if (record.length == state->last_length) choice.compression |= kNoLength;
  }

  choice.offset = record.offset;
  if (!(choice.compression & kNoOffset) && choice.offset != 0 &&
      choice.offset % kTraceBlockSize == 0) {
    choice.compression |= kOffsetInBlocks;
    choice.offset /= kTraceBlockSize;
  }
  choice.length = record.length;
  if (!(choice.compression & kNoLength) && choice.length != 0 &&
      choice.length % kTraceBlockSize == 0) {
    choice.compression |= kLengthInBlocks;
    choice.length /= kTraceBlockSize;
  }
  choice.start_delta = has_previous_ ? record.start_time - previous_start_ : record.start_time;
  return choice;
}

void CompressionState::commit(const TraceRecord& record, File* state) {
  if (has_previous_ && record.process_id != previous_process_) {
    last_file_by_process_[previous_process_] = previous_file_;
  }
  has_previous_ = true;
  previous_start_ = record.start_time;
  previous_process_ = record.process_id;
  previous_file_ = record.file_id;
  const std::uint64_t key = file_key(record.process_id, record.file_id);
  if (state == nullptr) state = &files_[key];
  state->next_sequential_offset = record.end();
  state->last_length = record.length;
  state->last_operation_id = record.operation_id;
  state->has_operation = true;
}

void CompressionState::reset() {
  has_previous_ = false;
  previous_start_ = Ticks::zero();
  previous_process_ = 0;
  previous_file_ = 0;
  last_file_by_process_.clear();
  files_.clear();
}

std::string AsciiTraceEncoder::encode(const TraceRecord& record) {
  validate(record);
  if (record.is_comment()) {
    throw TraceFormatError("use encode_comment for comment records");
  }
  const CompressionState::Choice choice = state_.choose(record);
  const std::uint16_t c = choice.compression;

  // Every field is rendered into one stack buffer, each after a space; the
  // line starts after the first space.
  std::array<char, kMaxLineBytes> buf;
  char* out = buf.data();
  const auto put = [&](std::int64_t value) {
    *out++ = ' ';
    out = std::to_chars(out, buf.data() + buf.size(), value).ptr;
  };
  put(record.record_type);
  put(c);
  if (!(c & kNoOffset)) put(choice.offset);
  if (!(c & kNoLength)) put(choice.length);
  put(choice.start_delta.count());
  put(record.completion_time.count());
  if (!(c & kNoOperationId)) put(record.operation_id);
  if (!(c & kNoFileId)) put(record.file_id);
  if (!(c & kNoProcessId)) put(record.process_id);
  put(record.process_time.count());

  state_.commit(record, choice.file);
  return std::string(buf.data() + 1, out);
}

std::string AsciiTraceEncoder::encode_comment(std::string_view text) const {
  std::string line = std::to_string(kTraceComment);
  line += ' ';
  for (char c : text) {
    if (c != '\n' && c != '\r') line += c;
  }
  return line;
}

std::optional<TraceRecord> AsciiTraceDecoder::decode_line(std::string_view line) {
  const std::string_view trimmed = trim(line);
  if (trimmed.empty()) return std::nullopt;

  // One scan over the line, with `p` just past the last token read.
  const char* p = trimmed.data();
  const char* const end = p + trimmed.size();

  const Token<std::uint64_t> type = read_token<std::uint64_t>(p, end, parse_uint);
  if (!type.value) {
    throw TraceFormatError("unparseable record type: '" + std::string(type.text) + "'");
  }
  p += type.text.size();
  if (*type.value > 0xffff) throw TraceFormatError("record type out of range");
  if (*type.value == kTraceComment) {
    last_comment_ = std::string(trim(std::string_view(p, static_cast<std::size_t>(end - p))));
    ++comment_count_;
    return std::nullopt;
  }

  auto next_int = [&](const char* field) -> std::int64_t {
    while (p != end && *p == ' ') ++p;
    if (p == end) {
      throw TraceFormatError(std::string("missing field '") + field + "' in: " +
                             std::string(trimmed));
    }
    const Token<std::int64_t> token = read_token<std::int64_t>(p, end, parse_int);
    if (!token.value) {
      throw TraceFormatError(std::string("unparseable field '") + field + "': " +
                             std::string(token.text));
    }
    if (*token.value > kFieldLimit || *token.value < -kFieldLimit) {
      throw TraceFormatError(std::string("field '") + field + "' out of range: " +
                             std::string(token.text));
    }
    p += token.text.size();
    return *token.value;
  };
  auto next_id = [&](const char* field) -> std::uint32_t {
    const std::int64_t value = next_int(field);
    if (value < 0 || value > UINT32_MAX) {
      throw TraceFormatError(std::string(field) + " out of range");
    }
    return static_cast<std::uint32_t>(value);
  };

  TraceRecord record;
  record.record_type = static_cast<std::uint16_t>(*type.value);

  const std::int64_t comp = next_int("compression");
  if (comp < 0 || comp > 0xffff) throw TraceFormatError("compression flags out of range");
  record.compression = static_cast<std::uint16_t>(comp);
  const std::uint16_t c = record.compression;

  if (!(c & kNoOffset)) {
    record.offset = next_int("offset");
    if (c & kOffsetInBlocks) record.offset *= kTraceBlockSize;
  } else if (c & kOffsetInBlocks) {
    throw TraceFormatError("TRACE_OFFSET_IN_BLOCKS set on a record without an offset field");
  }

  if (!(c & kNoLength)) {
    record.length = next_int("length");
    if (c & kLengthInBlocks) record.length *= kTraceBlockSize;
  } else if (c & kLengthInBlocks) {
    throw TraceFormatError("TRACE_LENGTH_IN_BLOCKS set on a record without a length field");
  }

  const Ticks start_delta = Ticks(next_int("startTime"));
  record.completion_time = Ticks(next_int("completionTime"));

  if (!(c & kNoOperationId)) record.operation_id = next_id("operationId");
  if (!(c & kNoFileId)) record.file_id = next_id("fileId");
  if (!(c & kNoProcessId)) record.process_id = next_id("processId");
  record.process_time = Ticks(next_int("processTime"));
  while (p != end && *p == ' ') ++p;
  if (p != end) {
    throw TraceFormatError("trailing fields in record: " + std::string(trimmed));
  }

  // Resolve identity fields in dependency order: pid -> fileId -> file state.
  if (c & kNoProcessId) {
    if (!state_.has_previous()) throw TraceFormatError("TRACE_NO_PROCESSID on first record");
    record.process_id = state_.previous_process();
  }

  if (c & kNoFileId) {
    const std::uint32_t* last_file = state_.last_file_of(record.process_id);
    if (last_file == nullptr) {
      throw TraceFormatError("TRACE_NO_FILEID with no prior record for process " +
                             std::to_string(record.process_id));
    }
    record.file_id = *last_file;
  }

  CompressionState::File* state = state_.file(record.process_id, record.file_id);

  if (c & kNoOperationId) {
    if (state == nullptr || !state->has_operation) {
      throw TraceFormatError("TRACE_NO_OPERATIONID with no prior record for file " +
                             std::to_string(record.file_id));
    }
    record.operation_id = state->last_operation_id;
  }

  if (c & kNoOffset) {
    if (state == nullptr) {
      throw TraceFormatError("TRACE_NO_BLOCK with no prior access to file " +
                             std::to_string(record.file_id));
    }
    record.offset = state->next_sequential_offset;
  }

  if (c & kNoLength) {
    if (state == nullptr || state->last_length < 0) {
      throw TraceFormatError("TRACE_NO_LENGTH with no prior access to file " +
                             std::to_string(record.file_id));
    }
    record.length = state->last_length;
  }

  record.start_time =
      state_.has_previous() ? state_.previous_start() + start_delta : start_delta;
  if (start_delta < Ticks::zero()) throw TraceFormatError("negative start-time delta");
  // With per-field deltas capped at 2^50 this bound keeps the running sum
  // below 2^60, so the next addition cannot overflow either.
  if (record.start_time > Ticks(std::int64_t{1} << 60)) {
    throw TraceFormatError("accumulated start time out of range");
  }

  validate(record);
  state_.commit(record, state);
  return record;
}

void AsciiTraceDecoder::reset() {
  state_.reset();
  last_comment_.clear();
  comment_count_ = 0;
}

}  // namespace craysim::trace
