// Shared helpers for the table/figure reproduction benches.
#pragma once

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/ascii_plot.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "util/text.hpp"

namespace craysim::bench {

/// Installs SIGINT/SIGTERM handlers that flush stdio and re-raise with the
/// default disposition, so an interrupted bench's partial console output
/// (tables, CSV) survives in pipes/log files while the exit status still
/// reports the signal. Telemetry artifacts need no handler: every save goes
/// through util::write_file_atomic, so an interruption can only ever leave
/// the previous complete file, never a truncated one. Idempotent.
inline void install_signal_flush_hooks() {
  static const auto handler = +[](int sig) {
    std::fflush(nullptr);  // async-signal-unsafe in general; acceptable for a dying bench
    std::signal(sig, SIG_DFL);
    std::raise(sig);
  };
  std::signal(SIGINT, handler);
  std::signal(SIGTERM, handler);
}

inline void heading(const std::string& title) {
  std::printf("\n================================================================\n%s\n"
              "================================================================\n",
              title.c_str());
}

/// Prints a rate series as an ASCII plot (MB/s) followed by its CSV dump.
inline void print_rate_figure(std::span<const double> bytes_per_s, const std::string& y_label,
                              const std::string& x_label, double bin_seconds,
                              bool emit_csv = true) {
  std::vector<double> mb_per_s(bytes_per_s.size());
  for (std::size_t i = 0; i < bytes_per_s.size(); ++i) mb_per_s[i] = bytes_per_s[i] / 1e6;
  PlotOptions options;
  options.y_label = y_label;
  options.x_label = x_label;
  options.x_scale = bin_seconds;
  options.height = 16;
  std::printf("%s", ascii_plot(mb_per_s, options).c_str());
  if (emit_csv) {
    std::printf("--- CSV ---\n%s--- end CSV ---\n",
                series_csv(mb_per_s, bin_seconds, x_label, y_label).c_str());
  }
}

inline void check(bool condition, const std::string& claim) {
  std::printf("[%s] %s\n", condition ? "REPRODUCED" : "DIVERGED", claim.c_str());
}

/// Consumes a "<flag> <value>" pair from the argument list (any position) and
/// returns the value, or "" when the flag is absent. The remaining arguments
/// are compacted so downstream parsers (e.g. google-benchmark's) never see
/// the flag.
inline std::string take_value_arg(int& argc, char** argv, std::string_view flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == flag) {
      std::string value = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      argv[argc] = nullptr;  // preserve the argv[argc] == nullptr convention
      return value;
    }
  }
  return {};
}

/// Consumes a "--json <path>" pair (the micro-bench snapshot destination).
inline std::string take_json_arg(int& argc, char** argv) {
  return take_value_arg(argc, argv, "--json");
}

/// Consumes a "<flag> <number>" pair like take_value_arg and parses the
/// number strictly (parse_double / parse_int / parse_uint by T). Returns
/// nullopt when the flag is absent; throws ConfigError naming the flag when
/// the value is not a number or `valid` (if given) rejects it. `expected`
/// says what the flag accepts.
template <typename T>
[[nodiscard]] std::optional<T> take_number_arg(int& argc, char** argv, std::string_view flag,
                                               std::string_view expected,
                                               bool (*valid)(T) = nullptr) {
  const std::string text = take_value_arg(argc, argv, flag);
  if (text.empty()) return std::nullopt;
  std::optional<T> value;
  if constexpr (std::is_same_v<T, double>) {
    value = parse_double(text);
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    value = parse_int(text);
  } else {
    value = parse_uint(text);
  }
  if (!value || (valid != nullptr && !valid(*value))) {
    throw ConfigError(std::string(flag) + " expects " + std::string(expected) + ", got \"" +
                      text + "\"");
  }
  return value;
}

/// Bounds shared by the numeric sweep flags. The upper limits keep values
/// convertible to nanosecond counts and 32-bit attempt counters.
inline bool positive_finite(double v) { return v > 0.0 && v <= 1e9; }
inline bool unit_rate(double v) { return v >= 0.0 && v <= 1.0; }
inline bool at_least_one(std::int64_t v) { return v >= 1 && v <= 1'000'000; }

/// Telemetry destinations shared by the sweep benches: "--metrics <path>"
/// names a metrics-snapshot JSONL file, "--perfetto <path>" a single-point
/// Chrome trace-event JSON file, "--perfetto-sweep <path>" a merged
/// multi-point trace (every sweep point as its own labeled Perfetto process
/// group), "--timeseries <path>" the counter samples as JSONL, and
/// "--counter-interval <ms>" the sim-time sampling period. Any may be absent
/// (empty path = that sink is off). Parsing only — bench::Sweep (sweep.hpp)
/// owns the obs:: objects.
struct ObsArgs {
  std::string metrics_path;
  std::string perfetto_path;
  std::string perfetto_sweep_path;
  std::string timeseries_path;
  /// Sim-time counter sampling period. 100 ms of simulated time keeps even
  /// hour-long runs under ~40k samples per counter track.
  double counter_interval_ms = 100.0;
  std::string listen_addr;  ///< "--listen host:port": live /metrics + /status server
  std::string attribution_path;  ///< "--attribution <path>": per-point attribution JSONL
  std::size_t attr_top = 10;     ///< "--top <n>": rows per hotspot table

  /// Did the user ask for any per-sweep-point recording?
  [[nodiscard]] bool sweep_telemetry() const {
    return !perfetto_sweep_path.empty() || !timeseries_path.empty();
  }

  /// Did the user ask for latency attribution (--attribution, or a live
  /// server whose /attribution endpoint should have data)?
  [[nodiscard]] bool attribution() const {
    return !attribution_path.empty() || !listen_addr.empty();
  }

  /// Consumes the flags from argv; throws ConfigError on a malformed value.
  [[nodiscard]] static ObsArgs take(int& argc, char** argv) {
    // Every telemetered bench passes through here, so this is the one spot
    // to arm the interrupted-run flush behavior.
    install_signal_flush_hooks();
    ObsArgs args;
    args.metrics_path = take_value_arg(argc, argv, "--metrics");
    args.perfetto_path = take_value_arg(argc, argv, "--perfetto");
    args.perfetto_sweep_path = take_value_arg(argc, argv, "--perfetto-sweep");
    args.timeseries_path = take_value_arg(argc, argv, "--timeseries");
    args.listen_addr = take_value_arg(argc, argv, "--listen");
    args.attribution_path = take_value_arg(argc, argv, "--attribution");
    if (const auto top = take_number_arg<std::int64_t>(argc, argv, "--top", "an integer >= 1",
                                                       at_least_one)) {
      args.attr_top = static_cast<std::size_t>(*top);
    }
    if (const auto ms = take_number_arg<double>(argc, argv, "--counter-interval",
                                                "a number of milliseconds > 0",
                                                positive_finite)) {
      args.counter_interval_ms = *ms;
    }
    return args;
  }
};

/// Resilience knobs shared by every sweep bench (docs/RESILIENCE.md):
/// "--journal <path>" checkpoints each settled point and resumes a partial
/// sweep, "--deadline <seconds>" bounds each point's simulation with a
/// cooperative deadline, "--max-attempts <n>" retries failed/timed-out
/// points with deterministic backoff, and "--chaos-fail <rate>" /
/// "--chaos-hang <rate>" / "--chaos-seed <n>" inject synthetic point
/// failures or deadline-length hangs (drills; a hang requires "--deadline").
/// All absent by default: one attempt per point, no deadline, no journal.
struct ResilienceArgs {
  std::string journal_path;
  double deadline_s = 0.0;  ///< 0 = no deadline
  int max_attempts = 0;     ///< 0 = not given (one attempt)
  double chaos_fail_rate = 0.0;
  double chaos_hang_rate = 0.0;
  std::uint64_t chaos_seed = 0;  ///< 0 = plan default

  [[nodiscard]] bool any() const {
    return !journal_path.empty() || deadline_s > 0.0 || max_attempts > 0 ||
           chaos_fail_rate > 0.0 || chaos_hang_rate > 0.0;
  }

  /// Consumes the flags from argv; throws ConfigError on a malformed value
  /// or a hang without a deadline.
  [[nodiscard]] static ResilienceArgs take(int& argc, char** argv) {
    ResilienceArgs args;
    args.journal_path = take_value_arg(argc, argv, "--journal");
    args.deadline_s = take_number_arg<double>(argc, argv, "--deadline",
                                              "a number of seconds > 0", positive_finite)
                          .value_or(0.0);
    args.max_attempts = static_cast<int>(
        take_number_arg<std::int64_t>(argc, argv, "--max-attempts", "an integer >= 1",
                                      at_least_one)
            .value_or(0));
    args.chaos_fail_rate =
        take_number_arg<double>(argc, argv, "--chaos-fail", "a rate in [0, 1]", unit_rate)
            .value_or(0.0);
    args.chaos_hang_rate =
        take_number_arg<double>(argc, argv, "--chaos-hang", "a rate in [0, 1]", unit_rate)
            .value_or(0.0);
    args.chaos_seed =
        take_number_arg<std::uint64_t>(argc, argv, "--chaos-seed", "an unsigned integer")
            .value_or(0);
    if (args.chaos_hang_rate > 0.0 && args.deadline_s <= 0.0) {
      throw ConfigError("--chaos-hang needs --deadline (a hang with no deadline never ends)");
    }
    return args;
  }
};

/// Replaces-or-appends one named section of a flat metrics JSON file, e.g.
///   { "codec": { "BM_Decode_ns_per_op": 1234.5 }, "cache": { ... } }
/// Different benches each own one section of the same file (BENCH_micro.json)
/// and may run in any order. The parser only understands files this helper
/// wrote: top-level sections whose bodies are flat (no nested braces).
inline void write_json_section(const std::string& path, const std::string& section,
                               const std::vector<std::pair<std::string, double>>& values) {
  std::vector<std::pair<std::string, std::string>> sections;
  if (std::ifstream in{path}) {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    std::size_t pos = text.find('{');  // skip the outer brace
    while (pos != std::string::npos) {
      const std::size_t name_start = text.find('"', pos + 1);
      if (name_start == std::string::npos) break;
      const std::size_t name_end = text.find('"', name_start + 1);
      const std::size_t body_start = text.find('{', name_end);
      if (name_end == std::string::npos || body_start == std::string::npos) break;
      const std::size_t body_end = text.find('}', body_start);
      if (body_end == std::string::npos) break;
      sections.emplace_back(text.substr(name_start + 1, name_end - name_start - 1),
                            text.substr(body_start + 1, body_end - body_start - 1));
      pos = body_end;
    }
  }

  std::string body;
  for (std::size_t i = 0; i < values.size(); ++i) {
    char number[64];
    std::snprintf(number, sizeof number, "%.6g", values[i].second);
    body += "\n    \"" + values[i].first + "\": " + number;
    if (i + 1 < values.size()) body += ",";
  }
  body += "\n  ";

  bool replaced = false;
  for (auto& existing : sections) {
    if (existing.first == section) {
      existing.second = body;
      replaced = true;
    }
  }
  if (!replaced) sections.emplace_back(section, body);

  std::string out = "{\n";
  for (std::size_t i = 0; i < sections.size(); ++i) {
    out += "  \"" + sections[i].first + "\": {" + sections[i].second + "}";
    out += (i + 1 < sections.size() ? ",\n" : "\n");
  }
  out += "}\n";
  // Atomic replace: a bench killed mid-write can't corrupt the sections the
  // other benches already contributed.
  util::write_file_atomic(path, out);
}

}  // namespace craysim::bench
