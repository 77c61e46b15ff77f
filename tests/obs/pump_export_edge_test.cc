// Edge cases of the snapshot/alert JSON renderings and the Prometheus
// exporter: empty inputs, zero-count histograms, names that need
// escaping or mangling.  The JSON half is mode-independent (passive
// data); the Prometheus half needs live instruments and is gated.
#include <gtest/gtest.h>

#include <string>

#include "obs/export.h"
#include "obs/registry.h"
#include "obs/slo.h"
#include "tests/obs_test_util.h"

namespace lumen::obs {
namespace {

TEST(PumpSnapshotJsonTest, EmptySnapshotIsStillValidJson) {
  const PumpSnapshot snapshot;
  EXPECT_EQ(pump_snapshot_to_json(snapshot),
            "{\"tick\":0,\"uptime_seconds\":0,\"alerts\":0}");
}

TEST(PumpSnapshotJsonTest, ZeroCountHistogramRendersAllFields) {
  PumpSnapshot snapshot;
  snapshot.histograms = {{"lumen.rwa.open_latency_ns", "", HistogramData{}}};
  const std::string json = pump_snapshot_to_json(snapshot);
  EXPECT_NE(json.find("\"h:lumen.rwa.open_latency_ns:count\":0"),
            std::string::npos);
  EXPECT_NE(json.find("\"h:lumen.rwa.open_latency_ns:p99\":0"),
            std::string::npos);
  EXPECT_NE(json.find("\"h:lumen.rwa.open_latency_ns:max\":0"),
            std::string::npos);
}

TEST(PumpSnapshotJsonTest, GaugeKeysUseThePrefixLumenTopParses) {
  PumpSnapshot snapshot;
  snapshot.gauges = {{"lumen.rwa.util.busy_ratio", "", 0.5}};
  EXPECT_NE(pump_snapshot_to_json(snapshot)
                .find("\"g:lumen.rwa.util.busy_ratio\":0.5"),
            std::string::npos);
}

TEST(PumpSnapshotJsonTest, NamesWithQuotesAndBackslashesAreEscaped) {
  PumpSnapshot snapshot;
  snapshot.counters = {{"weird\"name\\with\ncontrol", "", 1, 0}};
  const std::string json = pump_snapshot_to_json(snapshot);
  EXPECT_NE(json.find("\"c:weird\\\"name\\\\with\\ncontrol\":1"),
            std::string::npos);
}

TEST(PumpSnapshotJsonTest, AlertsAreCountedNotInlined) {
  PumpSnapshot snapshot;
  AlertEvent alert;
  alert.rule = "blocking";
  snapshot.alerts = {alert, alert};
  const std::string json = pump_snapshot_to_json(snapshot);
  EXPECT_NE(json.find("\"alerts\":2"), std::string::npos);
  EXPECT_EQ(json.find("blocking"), std::string::npos);
}

TEST(AlertJsonTest, EveryFieldRendersAndEscapes) {
  AlertEvent alert;
  alert.rule = "p99\"latency";
  alert.metric = "lumen.rwa.open_latency_ns";
  alert.value = 0.5;
  alert.threshold = 0.25;
  alert.resolved = true;
  alert.tick = 42;
  alert.dump_path = "dumps\\slo.jsonl";
  EXPECT_EQ(alert_to_json(alert),
            "{\"alert\":\"p99\\\"latency\","
            "\"metric\":\"lumen.rwa.open_latency_ns\","
            "\"value\":0.5,\"threshold\":0.25,\"resolved\":true,"
            "\"tick\":42,\"dump_path\":\"dumps\\\\slo.jsonl\"}");
}

TEST(PrometheusNameTest, MapsEveryForbiddenCharacter) {
  EXPECT_EQ(prometheus_name("lumen.rwa.util.busy-ratio"),
            "lumen_rwa_util_busy_ratio");
  EXPECT_EQ(prometheus_name("ok_name:with:colons09"),
            "ok_name:with:colons09");
  EXPECT_EQ(prometheus_name("spaces and/slashes"), "spaces_and_slashes");
}

TEST(PrometheusEdgeTest, EmptyRegistryRendersNothing) {
  Registry registry;
  EXPECT_EQ(prometheus_text(registry), "");
}

TEST(PrometheusEdgeTest, GaugeRendersTypeLineAndValue) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  registry.gauge("lumen.rwa.util.fragmentation").set(0.375);
  const std::string text = prometheus_text(registry);
  EXPECT_NE(text.find("# TYPE lumen_rwa_util_fragmentation gauge"),
            std::string::npos);
  EXPECT_NE(text.find("lumen_rwa_util_fragmentation 0.375"),
            std::string::npos);
}

TEST(PrometheusEdgeTest, UntouchedHistogramStillRendersCountZero) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  (void)registry.histogram("lumen.rwa.open_latency_ns");
  const std::string text = prometheus_text(registry);
  EXPECT_NE(text.find("lumen_rwa_open_latency_ns_count 0"),
            std::string::npos);
}

}  // namespace
}  // namespace lumen::obs
