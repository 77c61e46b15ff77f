// Flight recorder: ring wraparound and drop accounting, dump format, and
// the SessionManager wiring that gives every open/block/reroute/drop a
// trace id matching its causal spans end-to-end.
#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/liang_shen.h"
#include "obs/registry.h"
#include "obs/span_buffer.h"
#include "obs/trace_assembler.h"
#include "obs/trace_context.h"
#include "rwa/session_manager.h"
#include "tests/obs_test_util.h"
#include "tests/test_util.h"

namespace lumen {
namespace {

using obs::FlightRecorder;
using obs::RouteEvent;
using obs::SpanBuffer;

RouteEvent event_with_sequence(std::uint64_t sequence) {
  RouteEvent e;
  e.sequence = sequence;
  e.policy = "semilightpath";
  e.outcome = "carried";
  return e;
}

TEST(FlightRecorderTest, RingKeepsNewestOldestFirstAndCountsDrops) {
  LUMEN_REQUIRE_OBS();
  SpanBuffer spans(8);
  FlightRecorder recorder(4, &spans);
  EXPECT_EQ(recorder.event_capacity(), 4u);
  for (std::uint64_t i = 0; i < 10; ++i)
    recorder.record_event(event_with_sequence(i));
  EXPECT_EQ(recorder.events_dropped(), 6u);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_EQ(events[i].sequence, 6u + i);  // oldest-first: 6, 7, 8, 9
}

TEST(FlightRecorderTest, WraparoundBumpsRegistryDropCounter) {
  LUMEN_REQUIRE_OBS();
  auto& counter = obs::Registry::global().counter("lumen.obs.events_dropped");
  const std::uint64_t before = counter.value();
  SpanBuffer spans(8);
  FlightRecorder recorder(2, &spans);
  for (std::uint64_t i = 0; i < 5; ++i)
    recorder.record_event(event_with_sequence(i));
  EXPECT_EQ(counter.value(), before + 3);
}

TEST(FlightRecorderTest, RouteEventLogOverflowCountsDrops) {
  LUMEN_REQUIRE_OBS();
  auto& counter = obs::Registry::global().counter("lumen.obs.events_dropped");
  const std::uint64_t before = counter.value();
  obs::RouteEventLog log(3);
  for (std::uint64_t i = 0; i < 8; ++i) log.append(event_with_sequence(i));
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped(), 5u);
  EXPECT_EQ(counter.value(), before + 5);
  const auto kept = log.snapshot();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].sequence, 5u);
}

TEST(FlightRecorderTest, DumpStringHoldsSpansThenEvents) {
  LUMEN_REQUIRE_OBS();
  SpanBuffer spans(8);
  FlightRecorder recorder(8, &spans);
  {
    obs::CausalSpan span("flight.demo", &spans);
    span.set_node(2);
  }
  recorder.record_event(event_with_sequence(41));
  const std::string dump = recorder.dump_string();
  std::istringstream in(dump);
  std::string first;
  std::string second;
  ASSERT_TRUE(std::getline(in, first));
  ASSERT_TRUE(std::getline(in, second));
  EXPECT_EQ(first.find("{\"type\":\"span\","), 0u);
  EXPECT_NE(first.find("\"flight.demo\""), std::string::npos);
  EXPECT_EQ(second.find("{\"type\":\"route_event\","), 0u);
  EXPECT_NE(second.find("\"sequence\":41"), std::string::npos);
}

TEST(FlightRecorderTest, TriggerDumpSanitizesTagAndWritesFile) {
  LUMEN_REQUIRE_OBS();
  SpanBuffer spans(8);
  FlightRecorder recorder(8, &spans);
  recorder.record_event(event_with_sequence(7));
  const std::string path =
      recorder.trigger_dump(::testing::TempDir(), "slo p99/breach tick#3");
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.find('#'), std::string::npos);
  EXPECT_NE(path.find("slo"), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"route_event\""), std::string::npos);
  in.close();
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, SessionManagerMirrorsEventsWithMatchingTraces) {
  FlightRecorder::global().clear();
  SpanBuffer::global().clear();

  SessionManager manager(testing::paper_example_network(),
                         RoutingPolicy::kSemilightpathEngine);
  // No RouteEventLog attached: the global recorder must capture anyway.
  const auto id = manager.open(NodeId{0}, NodeId{6});
  ASSERT_TRUE(id.has_value());

  if constexpr (obs::kObsEnabled) {
    const auto events = FlightRecorder::global().events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].outcome, "carried");
    ASSERT_NE(events[0].trace_id, 0u);

    // The event's trace resolves to a span tree rooted at rwa.open with the
    // routing work nested under it — the end-to-end linkage.
    const auto spans = SpanBuffer::global().snapshot();
    const obs::TraceTree tree =
        obs::assemble_trace(spans, events[0].trace_id);
    ASSERT_EQ(tree.roots.size(), 1u);
    EXPECT_STREQ(tree.roots[0].span.name, "rwa.open");
    EXPECT_EQ(tree.roots[0].span.node, 0u);
    EXPECT_NE(obs::find_span(tree, "engine.semilightpath"), nullptr);
  }
}

TEST(FlightRecorderTest, FailSpanStormSharesOneTrace) {
  FlightRecorder::global().clear();
  SpanBuffer::global().clear();

  const WdmNetwork net = testing::paper_example_network();
  const RouteResult route = route_semilightpath(net, NodeId{0}, NodeId{6});
  ASSERT_TRUE(route.found);
  ASSERT_FALSE(route.path.hops().empty());
  const LinkId first_link = route.path.hops()[0].link;

  SessionManager manager(net, RoutingPolicy::kSemilightpathEngine);
  ASSERT_TRUE(manager.open(NodeId{0}, NodeId{6}).has_value());
  FlightRecorder::global().clear();

  // Fail the span carrying the session's first hop; the reroute (or drop)
  // event must carry the fail_span trace, with rwa.reroute under its root.
  manager.fail_span(net.tail(first_link), net.head(first_link));
  if constexpr (obs::kObsEnabled) {
    const auto events = FlightRecorder::global().events();
    ASSERT_GE(events.size(), 1u);
    const std::uint64_t trace = events.back().trace_id;
    ASSERT_NE(trace, 0u);
    for (const RouteEvent& e : events) EXPECT_EQ(e.trace_id, trace);

    const obs::TraceTree tree =
        obs::assemble_trace(SpanBuffer::global().snapshot(), trace);
    ASSERT_EQ(tree.roots.size(), 1u);
    EXPECT_STREQ(tree.roots[0].span.name, "rwa.fail_span");
    EXPECT_NE(obs::find_span(tree, "rwa.reroute"), nullptr);
  }
}

}  // namespace
}  // namespace lumen
