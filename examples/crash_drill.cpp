// crash_drill: kill a journaled sweep mid-flight and prove the resume
// guarantee end to end (docs/RESILIENCE.md). The drill:
//
//   1. runs a 12-point cache sweep to completion in-process, journaled, as
//      the reference (results + final journal bytes);
//   2. forks and execs itself ("--child") to run the same sweep against a
//      fresh journal, waits until at least two points have settled durably,
//      then SIGKILLs the child — the harshest possible interruption;
//   3. resumes the half-finished journal in-process and asserts the resumed
//      results AND the converged journal file are byte-identical to the
//      uninterrupted reference.
//
//   crash_drill [--journal <path>]
//
// Exits 0 and prints PASSED only if the byte-identity holds; CI runs this
// as the checkpoint/resume smoke test.
#include <cstdio>

#ifdef _WIN32
int main() {
  std::printf("crash_drill: POSIX-only (fork/exec/SIGKILL); skipping\n");
  return 0;
}
#else

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "runner/runner.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/digest.hpp"
#include "workload/profiles.hpp"

namespace {

using namespace craysim;

constexpr std::size_t kPoints = 12;

/// A small deterministic workload so each sweep point simulates in
/// milliseconds; the pad below stretches the point past the kill window.
workload::AppProfile drill_app() {
  workload::AppProfile p;
  p.name = "drill";
  p.description = "crash-drill workload";
  p.cpu_time = Ticks::from_seconds(2.0);
  p.cycles = 8;
  p.files.push_back({"input", 4 * kMB});
  p.files.push_back({"output", 4 * kMB});
  workload::EdgeBurst startup;
  startup.files = {0};
  startup.write = false;
  startup.request_size = 64 * kKiB;
  startup.requests = 16;
  p.startup.push_back(startup);
  workload::CycleBurst cycle;
  cycle.files = {1};
  cycle.write = true;
  cycle.request_size = 32 * kKiB;
  cycle.requests = 8;
  p.cycle.push_back(cycle);
  return p;
}

sim::SimResult run_point(std::size_t i) {
  const Bytes cache_mb = 4 + 2 * static_cast<Bytes>(i % 6);
  sim::SimParams params = sim::SimParams::paper_main_memory(cache_mb * kMB);
  sim::Simulator simulator(params);
  simulator.add_app(drill_app());
  sim::SimResult result = simulator.run();
  // Widen the kill window: without this pad the whole sweep settles in a few
  // milliseconds and the parent cannot reliably interrupt it mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  return result;
}

/// Lossless SimResult journal codec, same contract as the sweep benches use.
struct DrillCodec {
  [[nodiscard]] std::string encode(const sim::SimResult& r) const {
    return sim::serialize_sim_result(r);
  }
  [[nodiscard]] sim::SimResult decode(std::string_view text) const {
    return sim::parse_sim_result(text);
  }
  [[nodiscard]] std::uint64_t digest(std::size_t point) const { return 0xD217 + point; }
};

struct SweepOutput {
  std::vector<std::string> encoded;  ///< one lossless payload per point
  std::size_t restored = 0;          ///< points skipped thanks to the journal
};

/// Runs (or resumes) the drill sweep against `journal`.
SweepOutput run_journaled_sweep(const std::string& journal) {
  runner::RunnerOptions options;
  options.threads = 2;
  options.journal_path = journal;
  runner::ExperimentRunner pool(options);
  std::vector<std::size_t> points(kPoints);
  for (std::size_t i = 0; i < kPoints; ++i) points[i] = i;
  const DrillCodec codec;
  const auto settled = pool.run_settled(points, run_point, codec);
  SweepOutput out;
  for (const auto& result : settled) {
    if (!result.ok()) throw Error("drill point failed unexpectedly");
    out.encoded.push_back(codec.encode(*result.value));
    out.restored += result.outcome.from_journal ? 1 : 0;
  }
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Settled records currently visible in the journal (0 when absent): its
/// complete lines after the header. Each record is one newline-terminated
/// line, canonical or framed, and a frame's newline is its last byte, so a
/// frame still being appended is not counted.
std::size_t journal_records(const std::string& path) {
  const std::string text = slurp(path);
  if (text.empty()) return 0;
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n' ? 1 : 0;
  return lines > 0 ? lines - 1 : 0;  // minus the header line
}

std::uint64_t digest_outputs(const std::vector<std::string>& encoded) {
  util::Fnv1a digest;
  for (const std::string& payload : encoded) digest.add_text(payload);
  return digest.value();
}

}  // namespace

int main(int argc, char** argv) {
  std::string journal = "crash_drill.journal";
  bool child = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--journal" && i + 1 < argc) {
      journal = argv[++i];
    } else if (flag == "--child") {
      child = true;
    } else {
      std::fprintf(stderr, "usage: crash_drill [--journal <path>]\n");
      return 2;
    }
  }

  if (child) {
    // The doomed run: sweep into the journal until the parent kills us.
    (void)run_journaled_sweep(journal);
    return 0;
  }

  const std::string reference_journal = journal + ".ref";
  std::remove(journal.c_str());
  std::remove(reference_journal.c_str());

  std::printf("1. reference: running the %zu-point sweep uninterrupted...\n", kPoints);
  const SweepOutput reference = run_journaled_sweep(reference_journal);
  const std::string reference_bytes = slurp(reference_journal);
  std::printf("   digest 0x%016llx, journal %zu bytes\n",
              static_cast<unsigned long long>(digest_outputs(reference.encoded)),
              reference_bytes.size());

  std::printf("2. drill: spawning the same sweep, then SIGKILL mid-flight...\n");
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) {
    const char* self = "/proc/self/exe";
    if (access(self, X_OK) != 0) self = argv[0];
    execl(self, argv[0], "--child", "--journal", journal.c_str(),
          static_cast<char*>(nullptr));
    std::perror("execl");
    _exit(127);
  }

  // Wait for at least two durably settled points, then kill without mercy.
  const auto poll_start = std::chrono::steady_clock::now();
  std::size_t seen = 0;
  while (true) {
    seen = journal_records(journal);
    if (seen >= 2) break;
    if (std::chrono::steady_clock::now() - poll_start > std::chrono::seconds(60)) {
      std::fprintf(stderr, "child made no journal progress within 60 s\n");
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(pid, SIGKILL);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
    std::fprintf(stderr, "child was not killed as planned (status %d)\n", status);
    return 1;
  }
  std::printf("   killed the child with %zu of %zu points settled\n", seen, kPoints);
  if (seen >= kPoints) {
    std::fprintf(stderr, "child finished before the kill; drill proves nothing\n");
    return 1;
  }

  std::printf("3. resume: finishing the half-journaled sweep in-process...\n");
  const SweepOutput resumed = run_journaled_sweep(journal);
  std::printf("   %zu points restored from the journal, %zu re-executed\n", resumed.restored,
              kPoints - resumed.restored);

  const bool results_match = resumed.encoded == reference.encoded;
  const bool journal_match = slurp(journal) == reference_bytes;
  const bool restored_some = resumed.restored >= 2 && resumed.restored < kPoints;
  std::printf("   results byte-identical: %s\n", results_match ? "yes" : "NO");
  std::printf("   journal byte-identical: %s\n", journal_match ? "yes" : "NO");

  std::remove(journal.c_str());
  std::remove(reference_journal.c_str());
  const bool ok = results_match && journal_match && restored_some;
  std::printf("\ncrash_drill %s: resumed digest 0x%016llx\n", ok ? "PASSED" : "FAILED",
              static_cast<unsigned long long>(digest_outputs(resumed.encoded)));
  return ok ? 0 : 1;
}

#endif  // _WIN32
