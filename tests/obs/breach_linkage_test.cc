// The obs-v3 acceptance path end to end: a forced svc-admit-p99 breach
// must trigger a flight-recorder dump whose breach line names the
// offending tenant, whose exemplar trace ids resolve to span lines in
// the same dump, and whose profile lines attribute >= 90% of sampled
// admit time to named stages under svc.admit.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/slo.h"
#include "obs/span_buffer.h"
#include "svc/service.h"
#include "tests/obs_test_util.h"
#include "tests/test_util.h"

namespace lumen {
namespace {

/// Minimal field scrape from one flat-JSON dump line.
std::string field_text(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + needle.size();
  return line.substr(begin, line.find('"', begin) - begin);
}

TEST(BreachLinkageTest, AdmitP99BreachDumpNamesTenantTraceAndStages) {
  LUMEN_REQUIRE_OBS();
  obs::FlightRecorder::global().clear();
  obs::SpanBuffer::global().clear();
  obs::Profiler::global().clear();
  obs::Profiler::global().set_sample_period(1);

  svc::ServiceOptions options;
  options.num_shards = 2;
  options.num_tenants = 4;
  svc::RoutingService service(testing::paper_example_network(), options);

  obs::SloWatchdog dog;
  // 1 ns is always exceeded: every admit "breaches", which forces the
  // dump deterministically without depending on machine speed.
  dog.add_rule(obs::SloRule::percentile(
      "svc-admit-p99", "lumen.svc.admit_latency_ns", 0.99, 1.0));
  obs::PumpOptions pump_options;
  pump_options.watchdog = &dog;
  pump_options.recorder = &obs::FlightRecorder::global();
  pump_options.dump_dir = ::testing::TempDir();
  pump_options.profiler = &obs::Profiler::global();
  obs::MetricsPump pump(obs::Registry::global(), pump_options);
  (void)pump.tick();  // prime

  // Tenant 3 runs full admissions (route + commit, tens of µs); tenant 1
  // only ever hits the quota-denied fast path (sub-µs), so tenant 3's
  // p99 child is deterministically the worst — the offender.
  service.set_quota(svc::TenantId{1}, 0);
  for (int i = 0; i < 80; ++i) {
    (void)service.open(svc::TenantId{3}, NodeId{0},
                       NodeId{static_cast<std::uint32_t>(1 + (i % 5))});
  }
  for (int i = 0; i < 4; ++i)
    (void)service.open(svc::TenantId{1}, NodeId{0}, NodeId{1});

  const auto snap = pump.tick();
  ASSERT_FALSE(snap.alerts.empty());
  const obs::AlertEvent* alert = nullptr;
  for (const auto& a : snap.alerts)
    if (a.rule == "svc-admit-p99") alert = &a;
  ASSERT_NE(alert, nullptr);
  ASSERT_FALSE(alert->dump_path.empty());

  std::ifstream in(alert->dump_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  const std::string text = buffer.str();

  // 1. The breach line names the offending tenant and carries at least
  //    one exemplar trace id.
  std::string breach_line;
  std::vector<std::string> profile_lines;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"type\":\"breach\"") != std::string::npos)
      breach_line = line;
    if (line.find("\"type\":\"profile\"") != std::string::npos)
      profile_lines.push_back(line);
  }
  ASSERT_FALSE(breach_line.empty());
  EXPECT_NE(breach_line.find("\"rule\":\"svc-admit-p99\""),
            std::string::npos);
  EXPECT_EQ(field_text(breach_line, "labels"), "tenant=3");
  const std::string exemplars = field_text(breach_line, "exemplars");
  ASSERT_FALSE(exemplars.empty());

  // 2. Each exemplar resolves to a svc.admit span line in the same dump
  //    (at least one must — older exemplars can age out of the ring).
  bool exemplar_resolved = false;
  std::istringstream ids(exemplars);
  for (std::string id; std::getline(ids, id, ',');) {
    const std::string trace_key = "\"trace_id\":" + id;
    std::istringstream again(text);
    for (std::string line; std::getline(again, line);) {
      if (line.find("\"type\":\"span\"") != std::string::npos &&
          line.find("\"svc.admit\"") != std::string::npos &&
          line.find(trace_key) != std::string::npos)
        exemplar_resolved = true;
    }
  }
  EXPECT_TRUE(exemplar_resolved);

  // 3. The profile attributes >= 90% of sampled admit time to named
  //    stages: self times across the svc.admit subtree must add back up
  //    to the root's total (period-1 sampling makes this exact modulo
  //    clamping).
  ASSERT_FALSE(profile_lines.empty());
  std::uint64_t root_total = 0;
  std::uint64_t named_self = 0;
  bool saw_stage_below_admit = false;
  for (const std::string& line : profile_lines) {
    const std::string stack = field_text(line, "stack");
    if (stack != "svc.admit" &&
        stack.compare(0, 10, "svc.admit;") != 0)
      continue;
    const std::string self_key = "\"self_ns\":";
    const std::size_t self_at = line.find(self_key);
    ASSERT_NE(self_at, std::string::npos);
    named_self += std::stoull(line.substr(self_at + self_key.size()));
    if (stack == "svc.admit") {
      const std::string total_key = "\"total_ns\":";
      const std::size_t total_at = line.find(total_key);
      ASSERT_NE(total_at, std::string::npos);
      root_total = std::stoull(line.substr(total_at + total_key.size()));
    } else {
      saw_stage_below_admit = true;
    }
  }
  ASSERT_GT(root_total, 0u);
  EXPECT_TRUE(saw_stage_below_admit);
  EXPECT_GE(static_cast<double>(named_self),
            0.9 * static_cast<double>(root_total));

  obs::Profiler::global().set_sample_period(
      obs::Profiler::kDefaultSamplePeriod);
  std::remove(alert->dump_path.c_str());
}

}  // namespace
}  // namespace lumen
