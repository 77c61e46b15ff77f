#include "obs/export.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "tests/obs_test_util.h"
#include "util/error.h"

namespace lumen::obs {
namespace {

RouteEvent sample_event(std::uint64_t sequence) {
  RouteEvent e;
  e.sequence = sequence;
  e.source = 3;
  e.target = 17;
  e.policy = "semilightpath";
  e.heap = "fibonacci";
  e.outcome = "carried";
  e.cost = 12.625;
  e.hops = 4;
  e.conversions = 1;
  e.aux_nodes = 120;
  e.aux_links = 480;
  e.relaxations = 96;
  e.heap_pops = 64;
  e.build_seconds = 0.00125;
  e.search_seconds = 0.0005;
  e.trace_id = 0xabcdef01;
  return e;
}

TEST(ExportTest, JsonlRoundTripIsLossless) {
  std::vector<RouteEvent> events{sample_event(0), sample_event(1)};
  events[1].outcome = "blocked";
  events[1].cost = 1.0 / 3.0;  // not exactly representable in decimal

  std::stringstream stream;
  write_route_events_jsonl(stream, events);
  const std::vector<RouteEvent> parsed = read_route_events_jsonl(stream);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], events[0]);
  EXPECT_EQ(parsed[1], events[1]);
}

TEST(ExportTest, JsonEscapesSpecialCharacters) {
  RouteEvent e = sample_event(0);
  e.policy = "quote\" backslash\\ newline\n tab\t";
  std::stringstream stream;
  write_route_events_jsonl(stream, std::vector<RouteEvent>{e});
  const auto parsed = read_route_events_jsonl(stream);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].policy, e.policy);
}

TEST(ExportTest, JsonlSkipsBlankLinesAndIgnoresUnknownKeys) {
  std::stringstream stream(
      "\n"
      "{\"sequence\":5,\"outcome\":\"carried\",\"mystery\":1.5}\n"
      "   \n");
  const auto parsed = read_route_events_jsonl(stream);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].sequence, 5u);
  EXPECT_EQ(parsed[0].outcome, "carried");
}

TEST(ExportTest, JsonlMalformedThrows) {
  std::stringstream stream("{\"sequence\":}\n");
  EXPECT_THROW((void)read_route_events_jsonl(stream), Error);
  std::stringstream not_object("42\n");
  EXPECT_THROW((void)read_route_events_jsonl(not_object), Error);
}

TEST(ExportTest, CsvHasHeaderAndOneRowPerEvent) {
  std::vector<RouteEvent> events{sample_event(0), sample_event(1)};
  std::stringstream stream;
  write_route_events_csv(stream, events);
  std::string line;
  ASSERT_TRUE(std::getline(stream, line));
  EXPECT_EQ(line.substr(0, 22), "sequence,source,target");
  int rows = 0;
  while (std::getline(stream, line)) ++rows;
  EXPECT_EQ(rows, 2);
}

TEST(ExportTest, CsvQuotesEmbeddedQuotes) {
  RouteEvent e = sample_event(0);
  e.outcome = "say \"what\"";
  std::stringstream stream;
  write_route_events_csv(stream, std::vector<RouteEvent>{e});
  EXPECT_NE(stream.str().find("\"say \"\"what\"\"\""), std::string::npos);
}

TEST(ExportTest, PrometheusCountersAndHistograms) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  registry.counter("lumen.test.requests").add(42);
  LatencyHistogram& h = registry.histogram("lumen.test.latency_ns");
  h.record(1);    // bucket 1
  h.record(3);    // bucket 2
  h.record(3);    // bucket 2

  const std::string text = prometheus_text(registry);
  EXPECT_NE(text.find("# TYPE lumen_test_requests counter\n"
                      "lumen_test_requests 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE lumen_test_latency_ns histogram"),
            std::string::npos);
  // Cumulative buckets: le="1" -> 1 observation, le="3" -> all 3.
  EXPECT_NE(text.find("lumen_test_latency_ns_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("lumen_test_latency_ns_bucket{le=\"3\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("lumen_test_latency_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("lumen_test_latency_ns_sum 7"), std::string::npos);
  EXPECT_NE(text.find("lumen_test_latency_ns_count 3"), std::string::npos);
  // Native buckets are the only histogram rendering: no summary form.
  EXPECT_EQ(text.find("summary"), std::string::npos);
}

TEST(ExportTest, PrometheusEmptyRegistryIsEmpty) {
  Registry registry;
  EXPECT_EQ(prometheus_text(registry), "");
}

TEST(ExportTest, TraceIdRidesAtTheEndOfBothSchemas) {
  const RouteEvent e = sample_event(9);
  const std::string json = route_event_to_json(e);
  // Appended last so pre-v2 consumers keyed on field order stay valid.
  EXPECT_NE(json.find("\"trace_id\":2882400001}"), std::string::npos);

  std::stringstream csv;
  write_route_events_csv(csv, std::vector<RouteEvent>{e});
  std::string header;
  std::string row;
  ASSERT_TRUE(std::getline(csv, header));
  ASSERT_TRUE(std::getline(csv, row));
  EXPECT_EQ(header.substr(header.size() - 9), ",trace_id");
  EXPECT_EQ(row.substr(row.size() - 11), ",2882400001");
}

TEST(ExportTest, PrometheusRendersFaultInstruments) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  registry.counter("lumen.dist.faults.retransmit_sweeps").add(7);
  registry.counter("lumen.dist.faults.stale_offers").add(19);
  registry.counter("lumen.dist.faults.redundant_retransmits").add(4);
  registry.histogram("lumen.dist.faults.recovery_rounds").record(12);

  const std::string text = prometheus_text(registry);
  EXPECT_NE(text.find("# TYPE lumen_dist_faults_retransmit_sweeps counter\n"
                      "lumen_dist_faults_retransmit_sweeps 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("lumen_dist_faults_stale_offers 19"), std::string::npos);
  EXPECT_NE(text.find("lumen_dist_faults_redundant_retransmits 4"),
            std::string::npos);
  EXPECT_NE(
      text.find("# TYPE lumen_dist_faults_recovery_rounds histogram"),
      std::string::npos);
  EXPECT_NE(text.find("lumen_dist_faults_recovery_rounds_bucket{le=\"15\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("lumen_dist_faults_recovery_rounds_sum 12"),
            std::string::npos);
}

}  // namespace
}  // namespace lumen::obs
