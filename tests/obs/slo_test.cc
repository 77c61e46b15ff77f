// SLO watchdog rule semantics, the MetricsPump snapshot/sink/dump cycle,
// and the Prometheus pull endpoint.  The load-bearing case: a breach must
// deterministically trigger a flight-recorder dump that contains the
// breaching request's full event chain (events + spans, one trace id).
#include "obs/slo.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/flight_recorder.h"
#include "obs/metrics_server.h"
#include "obs/registry.h"
#include "obs/span_buffer.h"
#include "rwa/session_manager.h"
#include "tests/obs_test_util.h"
#include "tests/test_util.h"

namespace lumen {
namespace {

using obs::AlertEvent;
using obs::FlightRecorder;
using obs::MetricsPump;
using obs::PumpOptions;
using obs::Registry;
using obs::SloRule;
using obs::SloWatchdog;

TEST(SloWatchdogTest, WindowedCounterRuleIsEdgeTriggered) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  auto& errors = registry.counter("errors");
  SloWatchdog dog;
  dog.add_rule(SloRule::counter_value("err-burst", "errors", 2.0));
  EXPECT_EQ(dog.num_rules(), 1u);

  errors.add(100);
  // First window only primes the baseline — no alert even though the
  // lifetime value is huge.
  EXPECT_TRUE(dog.evaluate(registry).empty());
  errors.add(5);
  auto alerts = dog.evaluate(registry);  // delta 5 > 2: breach
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "err-burst");
  EXPECT_FALSE(alerts[0].resolved);
  EXPECT_DOUBLE_EQ(alerts[0].value, 5.0);
  EXPECT_TRUE(dog.breaching("err-burst"));

  errors.add(5);
  EXPECT_TRUE(dog.evaluate(registry).empty());  // still breaching: no edge
  alerts = dog.evaluate(registry);              // delta 0 <= 2: resolves
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_TRUE(alerts[0].resolved);
  EXPECT_FALSE(dog.breaching("err-burst"));
}

TEST(SloWatchdogTest, RatioRuleUsesWindowDeltas) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  auto& blocked = registry.counter("blocked");
  auto& offered = registry.counter("offered");
  SloWatchdog dog;
  dog.add_rule(SloRule::ratio("blocking", "blocked", "offered", 0.5));

  offered.add(10);
  EXPECT_TRUE(dog.evaluate(registry).empty());  // priming window
  blocked.add(4);
  offered.add(5);
  auto alerts = dog.evaluate(registry);  // 4/5 > 0.5: breach
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_DOUBLE_EQ(alerts[0].value, 0.8);
  // No offers at all in the next window: no evidence, stays breaching.
  EXPECT_TRUE(dog.evaluate(registry).empty());
  EXPECT_TRUE(dog.breaching("blocking"));
  offered.add(10);
  alerts = dog.evaluate(registry);  // 0/10: resolves
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_TRUE(alerts[0].resolved);
}

TEST(SloWatchdogTest, PercentileRuleReadsHistogram) {
  Registry registry;
  auto& latency = registry.histogram("lat");
  SloWatchdog dog;
  dog.add_rule(SloRule::percentile("lat-p99", "lat", 0.99, 1000.0));

  EXPECT_TRUE(dog.evaluate(registry).empty());  // empty histogram: no evidence
  for (int i = 0; i < 100; ++i) latency.record(10);
  EXPECT_TRUE(dog.evaluate(registry).empty());  // p99 ~10: fine
  for (int i = 0; i < 100; ++i) latency.record(1 << 20);
  if constexpr (obs::kObsEnabled) {
    const auto alerts = dog.evaluate(registry);
    ASSERT_EQ(alerts.size(), 1u);
    EXPECT_GT(alerts[0].value, 1000.0);
    EXPECT_EQ(alerts[0].metric, "lat");
  }
}

TEST(SloWatchdogTest, LabeledOnlyNamesReadTheFamilyTotal) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  auto& offered = registry.counter("offered");
  auto& denied = registry.labeled_counter("denied");
  auto& latency = registry.labeled_histogram("lat");
  SloWatchdog dog;
  dog.add_rule(SloRule::ratio("deny-rate", "denied", "offered", 0.5));
  dog.add_rule(SloRule::percentile("lat-p50", "lat", 0.50, 1000.0));
  dog.add_rule(SloRule::percentile("lat-p99", "lat", 0.99, 1000.0));

  offered.add(10);
  EXPECT_TRUE(dog.evaluate(registry).empty());  // priming window
  // 3 + 3 of 10 breach the 0.5 ratio; either child alone would not.
  denied.at(obs::TagSet{}.tenant(1)).add(3);
  denied.at(obs::TagSet{}.tenant(2)).add(3);
  offered.add(10);
  // Disjoint children: 60 fast samples in bucket [8, 16) for tenant 1,
  // 40 slow ones in [2^20, 2^21) for tenant 2.  The merged p50 is fast
  // and the merged p99 is slow; the worst child would breach p50, and the
  // first child would not breach p99.
  for (int i = 0; i < 60; ++i) latency.at(obs::TagSet{}.tenant(1)).record(10);
  for (int i = 0; i < 40; ++i)
    latency.at(obs::TagSet{}.tenant(2)).record(std::uint64_t{1} << 20);

  const auto alerts = dog.evaluate(registry);
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].rule, "deny-rate");
  EXPECT_DOUBLE_EQ(alerts[0].value, 0.6);
  EXPECT_EQ(alerts[1].rule, "lat-p99");
  EXPECT_GE(alerts[1].value, static_cast<double>(1 << 20));
  EXPECT_LT(alerts[1].value, static_cast<double>(1 << 21));
  EXPECT_FALSE(dog.breaching("lat-p50"));
}

TEST(MetricsPumpTest, TickSnapshotsCountersAndDeltas) {
  Registry registry;
  auto& c = registry.counter("pump.c");
  c.add(3);
  MetricsPump pump(registry);
  auto snap = pump.tick();
  EXPECT_EQ(snap.tick, 1u);
  if constexpr (obs::kObsEnabled) {
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].name, "pump.c");
    EXPECT_EQ(snap.counters[0].value, 3u);
    EXPECT_EQ(snap.counters[0].delta, 3u);  // first tick: delta = value
  }
  c.add(2);
  snap = pump.tick();
  EXPECT_EQ(snap.tick, 2u);
  if constexpr (obs::kObsEnabled) {
    EXPECT_EQ(snap.counters[0].value, 5u);
    EXPECT_EQ(snap.counters[0].delta, 2u);
  }
  EXPECT_GE(snap.uptime_seconds, 0.0);
  EXPECT_EQ(pump.ticks(), 2u);
}

TEST(MetricsPumpTest, CounterAlertCarriesTheDeltaOfItsSnapshot) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  obs::Counter& errors = registry.counter("errors");
  SloWatchdog dog;
  dog.add_rule(SloRule::counter_value("err-burst", "errors", 0.0));
  PumpOptions options;
  options.watchdog = &dog;
  MetricsPump pump(registry, options);

  // A writer keeps the counter moving while the pump ticks: the alert
  // must report the delta of the snapshot it ships with, not a second,
  // later read of the live registry.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) errors.add();
  });
  while (errors.value() == 0) std::this_thread::yield();
  (void)pump.tick();  // primes the windowed rule
  // Make sure the window holds increments, however the threads schedule.
  const std::uint64_t primed = errors.value();
  while (errors.value() == primed) std::this_thread::yield();
  const obs::PumpSnapshot snap = pump.tick();
  stop.store(true);
  writer.join();

  ASSERT_EQ(snap.alerts.size(), 1u);
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_GT(snap.counters[0].delta, 0u);
  EXPECT_EQ(snap.alerts[0].value, static_cast<double>(snap.counters[0].delta));
}

TEST(MetricsPumpTest, SinkAppendsSnapshotLines) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  registry.counter("sink.c").add(7);
  const std::string path = ::testing::TempDir() + "pump_sink_test.jsonl";
  std::remove(path.c_str());
  PumpOptions options;
  options.snapshot_path = path;
  MetricsPump pump(registry, options);
  (void)pump.tick();
  (void)pump.tick();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"tick\":1"), std::string::npos);
  EXPECT_NE(line.find("\"c:sink.c\":7"), std::string::npos);
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"tick\":2"), std::string::npos);
  in.close();
  std::remove(path.c_str());
}

TEST(MetricsPumpTest, BackgroundThreadTicksAndStops) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  PumpOptions options;
  options.interval_seconds = 0.005;
  MetricsPump pump(registry, options);
  EXPECT_FALSE(pump.running());
  pump.start();
  EXPECT_TRUE(pump.running());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (pump.ticks() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(pump.ticks(), 1u);
  pump.stop();
  EXPECT_FALSE(pump.running());
  pump.stop();  // idempotent
}

TEST(MetricsPumpTest, BreachTriggersDumpWithBreachingEventChain) {
  FlightRecorder::global().clear();
  obs::SpanBuffer::global().clear();

  SessionManager manager(testing::paper_example_network(),
                         RoutingPolicy::kSemilightpathEngine);

  SloWatchdog dog;
  dog.add_rule(
      SloRule::ratio("blocking", "lumen.rwa.blocked", "lumen.rwa.offered",
                     0.5));
  PumpOptions options;
  options.watchdog = &dog;
  options.recorder = &FlightRecorder::global();
  options.dump_dir = ::testing::TempDir();
  MetricsPump pump(Registry::global(), options);
  (void)pump.tick();  // prime the windowed rule

  // Paper node 7 (index 6) has no out-links: this request always blocks.
  EXPECT_FALSE(manager.open(NodeId{6}, NodeId{0}).has_value());
  if constexpr (obs::kObsEnabled) {
    const auto events = FlightRecorder::global().events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].outcome, "blocked");
    const std::uint64_t trace = events[0].trace_id;
    ASSERT_NE(trace, 0u);

    const auto snap = pump.tick();  // window: 1 blocked / 1 offered = 1.0
    ASSERT_EQ(snap.alerts.size(), 1u);
    const AlertEvent& alert = snap.alerts[0];
    EXPECT_EQ(alert.rule, "blocking");
    EXPECT_FALSE(alert.resolved);
    EXPECT_EQ(alert.tick, snap.tick);
    ASSERT_FALSE(alert.dump_path.empty());

    // The dump holds the breaching request end-to-end: its blocked event
    // and its rwa.open span, tied by one trace id.
    std::ifstream in(alert.dump_path);
    ASSERT_TRUE(in.good());
    std::stringstream dump;
    dump << in.rdbuf();
    in.close();
    const std::string text = dump.str();
    const std::string trace_key = "\"trace_id\":" + std::to_string(trace);
    EXPECT_NE(text.find("\"outcome\":\"blocked\""), std::string::npos);
    EXPECT_NE(text.find(trace_key), std::string::npos);
    std::istringstream lines(text);
    bool open_span_in_trace = false;
    for (std::string line; std::getline(lines, line);) {
      if (line.find("\"type\":\"span\"") != std::string::npos &&
          line.find("\"rwa.open\"") != std::string::npos &&
          line.find(trace_key) != std::string::npos)
        open_span_in_trace = true;
    }
    EXPECT_TRUE(open_span_in_trace);
    std::remove(alert.dump_path.c_str());
  }
}

TEST(MetricsServerTest, ServesPrometheusTextOverHttp) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  registry.counter("lumen.demo.requests").add(12);
  registry.histogram("lumen.demo.latency").record(100);
  auto server = obs::serve_metrics(0, registry);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->ok());
  ASSERT_NE(server->port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server->port());
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_GT(::send(fd, request, sizeof request - 1, 0), 0);
  std::string response;
  char buf[4096];
  for (ssize_t n = 0; (n = ::recv(fd, buf, sizeof buf, 0)) > 0;)
    response.append(buf, static_cast<std::size_t>(n));
  ::close(fd);

  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("lumen_demo_requests 12"), std::string::npos);
  EXPECT_NE(response.find("# TYPE lumen_demo_latency histogram"),
            std::string::npos);
  server->stop();
  EXPECT_FALSE(server->ok());  // the listener is gone after stop()
  server->stop();              // idempotent
}

TEST(MetricsServerTest, AlertJsonRoundTripsKeys) {
  AlertEvent alert;
  alert.rule = "blocking";
  alert.metric = "lumen.rwa.blocked";
  alert.value = 0.75;
  alert.threshold = 0.5;
  alert.tick = 9;
  alert.dump_path = "/tmp/x.jsonl";
  const std::string json = obs::alert_to_json(alert);
  EXPECT_NE(json.find("\"alert\":\"blocking\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":0.75"), std::string::npos);
  EXPECT_NE(json.find("\"resolved\":false"), std::string::npos);
  EXPECT_NE(json.find("\"tick\":9"), std::string::npos);
}

}  // namespace
}  // namespace lumen
