// Live telemetry plane: Prometheus sanitizers and text exposition, the
// embedded TelemetryServer, the runner's /metrics + /status endpoints, the
// deadline flight recorder, and — the load-bearing case — concurrent
// scraping while a multi-threaded bench::Sweep chaos sweep is in flight (the
// test the sanitizer CI matrix runs under ASan and TSan).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/promtext.hpp"
#include "obs/sanitize.hpp"
#include "obs/span.hpp"
#include "runner/runner.hpp"
#include "sim/simulator.hpp"
#include "sweep.hpp"
#include "util/units.hpp"
#include "workload/generator.hpp"

namespace craysim {
namespace {

/// A few-request source so chaos-sweep points run a real (but tiny)
/// simulation, keeping the attribution ledger writes concurrent with the
/// scraper's snapshot reads.
class TinySource final : public workload::RequestSource {
 public:
  std::optional<workload::Request> next() override {
    if (issued_ >= 3) return std::nullopt;
    workload::Request r;
    r.compute = Ticks::from_ms(1);
    r.file = 1;
    r.offset = Bytes{issued_} * 64 * kKiB;
    r.length = 64 * kKiB;
    r.write = (issued_ % 2) == 0;
    ++issued_;
    return r;
  }
  Ticks final_compute() const override { return Ticks::zero(); }

 private:
  std::int64_t issued_ = 0;
};

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "obs_server_" + name + "_" + std::to_string(::getpid());
}

bool file_exists(const std::string& path) { return std::ifstream(path).good(); }

/// Raw one-shot HTTP exchange — lets the tests send methods and garbage
/// that the http_get client helper deliberately cannot produce.
std::string raw_http(std::uint16_t port, const std::string& request) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return {};
  }
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

// --- Prometheus sanitizers (shared by JSONL and the live exposition) ------

TEST(PromSanitize, NamesRewriteToLegalMetricNames) {
  EXPECT_EQ(obs::prom_sanitize_name("sim.venus.read-bytes"), "sim_venus_read_bytes");
  EXPECT_EQ(obs::prom_sanitize_name("runner.worker.0.busy_s"), "runner_worker_0_busy_s");
  EXPECT_EQ(obs::prom_sanitize_name("9lives"), "_9lives");     // leading digit
  EXPECT_EQ(obs::prom_sanitize_name("ns:metric"), "ns:metric");  // colons legal in names
  EXPECT_EQ(obs::prom_sanitize_name(""), "_");
}

TEST(PromSanitize, LabelNamesForbidColons) {
  EXPECT_EQ(obs::prom_sanitize_label("ns:label"), "ns_label");
  EXPECT_EQ(obs::prom_sanitize_label("0quantile"), "_0quantile");
  EXPECT_EQ(obs::prom_sanitize_label("already_fine"), "already_fine");
}

TEST(PromSanitize, LabelValuesEscapePerExpositionFormat) {
  EXPECT_EQ(obs::prom_escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(obs::prom_escape_label_value("plain"), "plain");
}

// --- Text exposition ------------------------------------------------------

TEST(PromText, CountersAndGaugesCarryHelpAndType) {
  obs::MetricsRegistry registry;
  registry.counter("runner.points").add(7);
  registry.gauge("util.cpu").set(0.5);
  const std::string text = obs::prometheus_text(registry);
  EXPECT_NE(text.find("# HELP runner_points craysim counter 'runner.points'\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE runner_points counter\n"), std::string::npos);
  EXPECT_NE(text.find("runner_points 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE util_cpu gauge\n"), std::string::npos);
  EXPECT_NE(text.find("util_cpu 0.5\n"), std::string::npos);
}

TEST(PromText, HistogramBucketsAreCumulativeAndEndAtInf) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("sim.lat");
  for (const double v : {1.0, 2.0, 3.0, 10.0}) h.record(v);
  const std::string text = obs::prometheus_text(registry);
  EXPECT_NE(text.find("# TYPE sim_lat histogram\n"), std::string::npos);
  EXPECT_NE(text.find("sim_lat_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("sim_lat_bucket{le=\"2\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("sim_lat_bucket{le=\"5\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("sim_lat_bucket{le=\"10\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("sim_lat_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("sim_lat_sum 16\n"), std::string::npos);
  EXPECT_NE(text.find("sim_lat_count 4\n"), std::string::npos);
  // The exact-percentile view rides along as a summary family.
  EXPECT_NE(text.find("# TYPE sim_lat_quantiles summary\n"), std::string::npos);
  EXPECT_NE(text.find("sim_lat_quantiles{quantile=\"0.5\"} "), std::string::npos);
  EXPECT_NE(text.find("sim_lat_quantiles{quantile=\"0.99\"} "), std::string::npos);
  EXPECT_NE(text.find("sim_lat_quantiles_count 4\n"), std::string::npos);
}

TEST(PromText, RenderStateDeduplicatesFamiliesAcrossRegistries) {
  // The /metrics handler renders the runner's scratch registry first, then
  // the bench's accumulating one; a family present in both must appear once.
  obs::MetricsRegistry first;
  obs::MetricsRegistry second;
  first.counter("dup.metric").add(1);
  second.counter("dup.metric").add(99);
  second.counter("only.second").add(2);
  obs::PromRenderState state;
  std::ostringstream out;
  obs::write_prometheus(out, first, &state);
  const std::string head = out.str();
  obs::write_prometheus(out, second, &state);
  const std::string tail = out.str().substr(head.size());
  EXPECT_NE(head.find("dup_metric 1\n"), std::string::npos);
  EXPECT_EQ(tail.find("dup_metric"), std::string::npos) << tail;
  EXPECT_NE(tail.find("only_second 2\n"), std::string::npos);
}

TEST(PromText, BucketBoundsFollowThe125Ladder) {
  EXPECT_EQ(obs::prom_bucket_bounds(1.5, 80.0),
            (std::vector<double>{1, 2, 5, 10, 20, 50, 100}));
  EXPECT_EQ(obs::prom_bucket_bounds(1.0, 1.0), (std::vector<double>{1, 2}));
  // Non-positive samples get an explicit zero bound first.
  const std::vector<double> with_zero = obs::prom_bucket_bounds(-1.0, 2e-9);
  ASSERT_GE(with_zero.size(), 2u);
  EXPECT_EQ(with_zero.front(), 0.0);
}

// --- TelemetryServer ------------------------------------------------------

TEST(TelemetryServer, ServesRegisteredPathsOnEphemeralPort) {
  obs::TelemetryServer server;
  server.handle("/hello", "text/plain", [] { return std::string("hello\n"); });
  server.start("127.0.0.1:0");
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);
  EXPECT_EQ(server.address(), "127.0.0.1:" + std::to_string(server.port()));

  const auto ok = obs::http_get("127.0.0.1", server.port(), "/hello");
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, "hello\n");
  const auto query = obs::http_get("127.0.0.1", server.port(), "/hello?pretty=1");
  EXPECT_EQ(query.status, 200);  // query strings are ignored
  const auto missing = obs::http_get("127.0.0.1", server.port(), "/nope");
  EXPECT_EQ(missing.status, 404);
  EXPECT_GE(server.requests_served(), 3);

  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

TEST(TelemetryServer, NonGetMethodsAndGarbageAreRejected) {
  obs::TelemetryServer server;
  server.handle("/m", "text/plain", [] { return std::string("body66\n"); });
  server.start("127.0.0.1:0");
  const std::string post =
      raw_http(server.port(), "POST /m HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
  EXPECT_EQ(post.rfind("HTTP/1.1 405", 0), 0u) << post;
  const std::string bad = raw_http(server.port(), "garbage\r\n\r\n");
  EXPECT_EQ(bad.rfind("HTTP/1.1 400", 0), 0u) << bad;
  // HEAD answers with headers (real Content-Length) and no body.
  const std::string head = raw_http(server.port(), "HEAD /m HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(head.rfind("HTTP/1.1 200", 0), 0u) << head;
  EXPECT_NE(head.find("Content-Length: 7\r\n"), std::string::npos);
  EXPECT_EQ(head.substr(head.find("\r\n\r\n") + 4), "");
}

TEST(TelemetryServer, HandlerExceptionsBecome500s) {
  obs::TelemetryServer server;
  server.handle("/boom", "text/plain", []() -> std::string {
    throw Error("scrape exploded");
  });
  server.start("127.0.0.1:0");
  const auto response = obs::http_get("127.0.0.1", server.port(), "/boom");
  EXPECT_EQ(response.status, 500);
  EXPECT_NE(response.body.find("scrape exploded"), std::string::npos);
}

// --- Runner live plane ----------------------------------------------------

TEST(RunnerLivePlane, StatusAndMetricsReflectASettledSweep) {
  obs::MetricsRegistry app;
  app.counter("app.requests").add(3);
  runner::RunnerOptions options;
  options.threads = 2;
  options.listen_addr = "127.0.0.1:0";
  options.metrics = &app;
  runner::ExperimentRunner pool(options);
  ASSERT_NE(pool.telemetry_server(), nullptr);
  ASSERT_NE(pool.progress(), nullptr);
  const std::uint16_t port = pool.telemetry_server()->port();

  const std::vector<int> points = {1, 2, 3, 4};
  const std::vector<int> doubled = pool.run(points, [](int v) { return 2 * v; });
  EXPECT_EQ(doubled, (std::vector<int>{2, 4, 6, 8}));

  const auto health = obs::http_get("127.0.0.1", port, "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  const auto status = obs::http_get("127.0.0.1", port, "/status");
  EXPECT_EQ(status.status, 200);
  EXPECT_NE(status.body.find("\"craysim_status\":1"), std::string::npos);
  EXPECT_NE(status.body.find("\"total\":4"), std::string::npos);
  EXPECT_NE(status.body.find("\"settled\":4"), std::string::npos);
  EXPECT_NE(status.body.find("\"completion\":1"), std::string::npos);
  EXPECT_NE(status.body.find("\"state\":\"done\""), std::string::npos);
  EXPECT_NE(status.body.find("\"workers\":["), std::string::npos);
  EXPECT_EQ(status.body.find("\"state\":\"pending\""), std::string::npos);

  const auto metrics = obs::http_get("127.0.0.1", port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# TYPE runner_points counter\n"), std::string::npos);
  EXPECT_NE(metrics.body.find("runner_points 4\n"), std::string::npos);
  EXPECT_NE(metrics.body.find("runner_progress_total 4\n"), std::string::npos);
  EXPECT_NE(metrics.body.find("runner_progress_settled 4\n"), std::string::npos);
  // The application registry rides along after the runner's own series.
  EXPECT_NE(metrics.body.find("app_requests 3\n"), std::string::npos);
}

/// A mutable argv built from strings, as main() receives it (Sweep consumes
/// its flags in place).
class Argv {
 public:
  explicit Argv(std::vector<std::string> words) : words_(std::move(words)) {
    for (std::string& word : words_) pointers_.push_back(word.data());
    pointers_.push_back(nullptr);
    argc = static_cast<int>(words_.size());
  }
  [[nodiscard]] char** argv() { return pointers_.data(); }

  int argc = 0;

 private:
  std::vector<std::string> words_;
  std::vector<char*> pointers_;
};

TEST(RunnerLivePlane, ConcurrentScrapesDuringChaosSweepStayClean) {
  // The sanitizer-matrix centerpiece: four workers retrying hang- and
  // fail-injected points under a deadline while a scraper hammers /metrics,
  // /status, and /attribution. Every point runs a real (tiny) simulation
  // writing into the sweep's attribution ledgers, so the scraper's snapshot
  // reads race genuine ledger writes (and the per-attempt ledger resets).
  // Any unsynchronized tally read shows up under TSan here.
  const std::string journal = temp_path("chaos.journal");
  const std::string flight_path = journal + ".flight.json";
  std::remove(journal.c_str());
  std::remove(flight_path.c_str());
  Argv args({"chaos_sweep", "--listen", "127.0.0.1:0", "--attribution",
             temp_path("chaos_attr.jsonl"), "--journal", journal, "--deadline", "0.08",
             "--max-attempts", "2", "--chaos-fail", "0.2", "--chaos-hang", "0.3",
             "--chaos-seed", "0xC4A05"});
  std::vector<std::string> labels;
  for (int i = 0; i < 24; ++i) labels.push_back("chaos point " + std::to_string(i));
  ASSERT_EQ(setenv("CRAYSIM_RUNNER_THREADS", "4", 1), 0);
  bench::Sweep sweep(args.argc, args.argv(), labels);
  ASSERT_EQ(unsetenv("CRAYSIM_RUNNER_THREADS"), 0);
  ASSERT_TRUE(sweep.observer().attribution_enabled());
  runner::ExperimentRunner& pool = sweep.runner();
  ASSERT_EQ(pool.thread_count(), 4u);
  ASSERT_NE(pool.telemetry_server(), nullptr);
  const std::uint16_t port = pool.telemetry_server()->port();

  // The plane is live from construction, before any sweep begins, and
  // already reports the journaled deadline sweep's armed flight recorder.
  const auto idle_status = obs::http_get("127.0.0.1", port, "/status");
  EXPECT_EQ(idle_status.status, 200);
  EXPECT_NE(idle_status.body.find("\"flight\":{\"armed\":true,\"path\":\"" +
                                  obs::json_escape(flight_path) + "\",\"dump_path\":\"\"}"),
            std::string::npos);
  EXPECT_EQ(obs::http_get("127.0.0.1", port, "/metrics").status, 200);

  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::atomic<int> scrape_errors{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      try {
        const auto metrics = obs::http_get("127.0.0.1", port, "/metrics");
        const auto status = obs::http_get("127.0.0.1", port, "/status");
        const auto attr = obs::http_get("127.0.0.1", port, "/attribution");
        if (metrics.status != 200 || status.status != 200 || status.body.empty() ||
            attr.status != 200 ||
            attr.body.find("\"craysim_attribution\":1") == std::string::npos) {
          scrape_errors.fetch_add(1);
        }
        scrapes.fetch_add(1);
      } catch (const Error&) {
        scrape_errors.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const auto settled = sweep.run_settled(
      [](std::size_t) { return sim::SimParams::paper_main_memory(Bytes{1} * kMB); },
      [](std::size_t i, const sim::SimParams& params) {
        sim::Simulator simulator(params);
        simulator.add_process("tiny", std::make_unique<TinySource>());
        (void)simulator.run();
        return static_cast<double>(i * i);
      });
  done.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_GE(scrapes.load(), 1);
  EXPECT_EQ(scrape_errors.load(), 0);
  ASSERT_EQ(settled.size(), labels.size());
  std::size_t timed_out = 0;
  for (std::size_t i = 0; i < settled.size(); ++i) {
    if (settled[i].ok()) {
      EXPECT_EQ(*settled[i].value, static_cast<double>(i * i));
    }
    if (settled[i].outcome.status == runner::PointStatus::kTimedOut) ++timed_out;
  }

  // After settling, the plane reports the whole sweep accounted for.
  const auto status = obs::http_get("127.0.0.1", port, "/status");
  EXPECT_NE(status.body.find("\"total\":24"), std::string::npos);
  EXPECT_NE(status.body.find("\"settled\":24"), std::string::npos);
  EXPECT_NE(status.body.find("\"resilient\":true"), std::string::npos);
  EXPECT_NE(status.body.find(obs::json_escape(journal)), std::string::npos);

  // The merged blame ledgers are now non-empty: the /attribution payload
  // names the simulated process and the scrape hook folds the sim_attr_*
  // families into /metrics.
  const auto attr = obs::http_get("127.0.0.1", port, "/attribution");
  EXPECT_EQ(attr.status, 200);
  EXPECT_NE(attr.body.find("\"craysim_attribution\":1"), std::string::npos);
  EXPECT_NE(attr.body.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(attr.body.find("\"tiny\""), std::string::npos);
  const auto metrics = obs::http_get("127.0.0.1", port, "/metrics");
  EXPECT_NE(metrics.body.find("sim_attr_ops "), std::string::npos);
  EXPECT_NE(metrics.body.find("# TYPE sim_attr_io_time_s gauge\n"), std::string::npos);

  // Timed-out points left a flight dump, and /status points at it.
  EXPECT_EQ(file_exists(flight_path), timed_out > 0);
  const std::string dump_path = timed_out > 0 ? obs::json_escape(flight_path) : "";
  EXPECT_NE(status.body.find("\"dump_path\":\"" + dump_path + "\"}"), std::string::npos);
  std::remove(journal.c_str());
  std::remove(flight_path.c_str());
}

// --- Flight recorder ------------------------------------------------------

TEST(FlightRecorder, RingEvictsOldestAndCountsDrops) {
  obs::FlightRecorder ring(4);
  EXPECT_TRUE(ring.empty());
  for (int t = 0; t < 10; ++t) ring.note(t, 'i', "tick", t * 10);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6);
  const auto entries = ring.entries();
  ASSERT_EQ(entries.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(entries[k].t_us, static_cast<std::int64_t>(6 + k));  // oldest first
    EXPECT_EQ(entries[k].value, static_cast<std::int64_t>((6 + k) * 10));
  }
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.dropped(), 0);
}

TEST(FlightRecorder, JsonFragmentListsDropsAndEvents) {
  obs::FlightRecorder ring(2);
  ring.note(5, 'B', "disk \"0\"", 0);
  ring.note(9, 'E', "disk \"0\"", 0);
  ring.note(12, 'C', "dirty", 7);
  std::ostringstream out;
  ring.write_json_events(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"dropped\":1"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"disk \\\"0\\\"\""), std::string::npos);  // escaped
  EXPECT_NE(json.find("{\"t_us\":12,\"ph\":\"C\",\"name\":\"dirty\",\"value\":7}"),
            std::string::npos);
  EXPECT_EQ(json.find("\"t_us\":5"), std::string::npos);  // evicted
}

TEST(FlightRecorder, SpanRecorderTeeFeedsTheRing) {
  obs::SpanRecorder recorder;
  obs::FlightRecorder ring;
  // Flight-only mode: the tee fills the ring, the recorder retains nothing.
  recorder.set_flight(&ring, /*keep_events=*/false);
  recorder.name_process(1, "sim");  // metadata never reaches the ring
  recorder.begin(1, 1, "run", Ticks::from_ms(1));
  recorder.end(1, 1, "run", Ticks::from_ms(2));
  recorder.complete(1, 1, "read", Ticks::from_ms(2), Ticks::from_ms(3));
  recorder.counter(1, "cache", Ticks::from_ms(5), "dirty", 42);
  EXPECT_TRUE(recorder.events().empty());
  const auto entries = ring.entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].ph, 'B');
  EXPECT_EQ(entries[0].t_us, 1000);
  EXPECT_EQ(entries[2].ph, 'X');
  EXPECT_EQ(entries[2].value, 3000);  // X events carry their duration
  EXPECT_EQ(entries[3].ph, 'C');
  EXPECT_EQ(entries[3].value, 42);  // counters carry their first argument

  // Detaching restores normal accumulation.
  recorder.set_flight(nullptr);
  recorder.instant(1, 1, "after", Ticks::from_ms(6));
  EXPECT_EQ(recorder.events().size(), 1u);
  EXPECT_EQ(ring.size(), 4u);
}

}  // namespace
}  // namespace craysim
