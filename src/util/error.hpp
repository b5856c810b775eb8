// Exception hierarchy for craysim. Parse and usage errors throw; simulation
// invariant violations assert (they indicate bugs, not bad input).
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace craysim {

/// Base class for all craysim errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Malformed trace text, impossible compression state, bad flag combination.
class TraceFormatError : public Error {
 public:
  /// What every message starts with.
  static constexpr std::string_view kPrefix = "trace format: ";

  explicit TraceFormatError(const std::string& what) : Error(std::string(kPrefix) + what) {}
};

/// Invalid configuration (negative cache size, zero-length file, ...).
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error("config: " + what) {}
};

/// File-system substrate errors (unknown file id, out-of-space, ...).
class FsError : public Error {
 public:
  explicit FsError(const std::string& what) : Error("fs: " + what) {}
};

/// Fault-tolerance machinery exhausted its limits: a recoverable parse ran
/// out of error budget, or a degraded disk farm lost its last device.
class FaultError : public Error {
 public:
  explicit FaultError(const std::string& what) : Error("fault: " + what) {}
};

/// A computation observed cooperative cancellation (per-point deadline hit,
/// shutdown requested) and abandoned its work cleanly. The experiment runner
/// classifies these as timeouts rather than failures.
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& what) : Error("cancelled: " + what) {}
};

}  // namespace craysim
