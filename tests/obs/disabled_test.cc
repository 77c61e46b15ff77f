// Checks that with LUMEN_OBS_DISABLED the whole instrumentation surface
// degrades to inert no-ops.  Built as its own suite against lumen_obs_off
// (tests/CMakeLists.txt), so it runs in every tree, obs-on or obs-off.
#include <gtest/gtest.h>

#include <sstream>

#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_server.h"
#include "obs/obs.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/slo.h"
#include "obs/span_buffer.h"
#include "obs/tagset.h"
#include "obs/trace_context.h"

static_assert(LUMEN_OBS_ENABLED == 0,
              "LUMEN_OBS_DISABLED must switch the gate off");

namespace lumen::obs {
namespace {

TEST(DisabledObsTest, CounterIsInert) {
  Counter c;
  c.add();
  c.add(1000);
  EXPECT_EQ(c.value(), 0u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(DisabledObsTest, HistogramIsInert) {
  LatencyHistogram h;
  h.record(123);
  h.record_seconds(4.5);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
  EXPECT_EQ(h.summary().count, 0u);
  EXPECT_EQ(h.bucket_count(3), 0u);
}

TEST(DisabledObsTest, RegistryHandsOutDummiesAndStaysEmpty) {
  Registry& registry = Registry::global();
  registry.counter("lumen.disabled.a").add(7);
  registry.histogram("lumen.disabled.b").record(7);
  EXPECT_TRUE(registry.counter_entries().empty());
  EXPECT_TRUE(registry.histogram_entries().empty());
  EXPECT_EQ(registry.counter("lumen.disabled.a").value(), 0u);
}

TEST(DisabledObsTest, PrometheusExportIsEmpty) {
  EXPECT_EQ(prometheus_text(Registry::global()), "");
}

TEST(DisabledObsTest, CausalSpansAndContextAreInert) {
  EXPECT_FALSE(current_trace_context().valid());
  CausalSpan ambient("outer");
  EXPECT_EQ(ambient.trace_id(), 0u);
  EXPECT_EQ(ambient.span_id(), 0u);
  EXPECT_FALSE(ambient.context().valid());
  ambient.set_node(3);
  ambient.set_virtual_interval(1.0, 2.0);
  ambient.set_attributes(4, 5);
  ambient.close();

  TraceContext parent;
  parent.trace_id = 99;
  parent.parent_span_id = 7;
  CausalSpan child("inner", parent);
  EXPECT_EQ(child.trace_id(), 0u);
  ScopedTraceContext adopt(parent);
  EXPECT_FALSE(current_trace_context().valid());
}

TEST(DisabledObsTest, SpanBufferStoresNothing) {
  SpanBuffer& buffer = SpanBuffer::global();
  buffer.emit(CausalSpanRecord{});
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.capacity(), 0u);
  EXPECT_EQ(buffer.total_emitted(), 0u);
  EXPECT_EQ(buffer.dropped(), 0u);
  EXPECT_TRUE(buffer.snapshot().empty());
  buffer.clear();
}

TEST(DisabledObsTest, FlightRecorderRecordsAndDumpsNothing) {
  FlightRecorder& recorder = FlightRecorder::global();
  RouteEvent e;
  e.sequence = 1;
  recorder.record_event(e);
  EXPECT_TRUE(recorder.events().empty());
  EXPECT_EQ(recorder.event_capacity(), 0u);
  EXPECT_EQ(recorder.events_dropped(), 0u);
  EXPECT_EQ(recorder.dump_string(), "");
  EXPECT_FALSE(recorder.dump("/nonexistent/dir/file.jsonl"));
  EXPECT_EQ(recorder.trigger_dump(".", "tag"), "");
}

TEST(DisabledObsTest, WatchdogNeverBreachesAndPumpTicksEmpty) {
  SloWatchdog dog;
  dog.add_rule(SloRule::counter_value("r", "m", 0.0));
  EXPECT_EQ(dog.num_rules(), 1u);
  EXPECT_TRUE(dog.evaluate().empty());
  EXPECT_FALSE(dog.breaching("r"));

  MetricsPump pump;
  const PumpSnapshot snapshot = pump.tick();
  EXPECT_EQ(snapshot.tick, 1u);
  EXPECT_TRUE(snapshot.counters.empty());
  EXPECT_TRUE(snapshot.alerts.empty());
  pump.start();
  EXPECT_FALSE(pump.running());
  pump.stop();
  EXPECT_EQ(pump.ticks(), 1u);
  EXPECT_NE(pump_snapshot_to_json(snapshot).find("\"tick\":1"),
            std::string::npos);
}

TEST(DisabledObsTest, MetricsServerNeverBinds) {
  EXPECT_EQ(serve_metrics(0), nullptr);
  MetricsServer server(0);
  EXPECT_FALSE(server.ok());
  EXPECT_EQ(server.port(), 0);
  server.stop();
}

TEST(DisabledObsTest, LabeledFamiliesHandOutOneInertDummy) {
  Registry& registry = Registry::global();
  auto& family = registry.labeled_counter("lumen.disabled.labeled");
  family.at(TagSet{}.tenant(3)).add(7);
  family.at(TagSet{}.tenant(4)).add(9);
  EXPECT_EQ(family.at(TagSet{}.tenant(3)).value(), 0u);
  EXPECT_EQ(family.size(), 0u);
  EXPECT_EQ(family.dropped(), 0u);
  EXPECT_TRUE(family.entries().empty());
  EXPECT_TRUE(registry.labeled_counter_entries().empty());
  EXPECT_TRUE(registry.labeled_gauge_entries().empty());
  EXPECT_TRUE(registry.labeled_histogram_entries().empty());
  // TagSet arithmetic itself still works, so labels stay meaningful for
  // the passive codecs.  (The interned dimensions are exercised by
  // tagset_test in both builds.)
  EXPECT_EQ(TagSet{}.tenant(3).shard(1).canonical(), "tenant=3,shard=1");
}

TEST(DisabledObsTest, ProfilerIsInert) {
  Profiler& profiler = Profiler::global();
  profiler.on_span_open("stage");
  profiler.on_span_close(100);
  EXPECT_EQ(profiler.total_samples(), 0u);
  EXPECT_EQ(profiler.dropped(), 0u);
  EXPECT_EQ(profiler.capacity(), 0u);
  EXPECT_TRUE(profiler.snapshot().entries.empty());
  // The passive renderings stay functional for collectors.
  ProfileSnapshot snap;
  snap.entries = {{"a;b", 1, 2, 3}};
  EXPECT_EQ(snap.folded(), "a;b 2\n");
  EXPECT_NE(profile_entry_to_json(snap.entries[0]).find("\"total_ns\":3"),
            std::string::npos);
}

TEST(DisabledObsTest, RouteEventLogStillWorks) {
  // The structured event log is passive data, not ambient instrumentation:
  // it stays functional even when the obs gate is off.
  RouteEventLog log;
  RouteEvent e;
  e.sequence = 1;
  e.outcome = "carried";
  log.append(e);
  EXPECT_EQ(log.size(), 1u);
  std::stringstream stream;
  write_route_events_jsonl(stream, log.snapshot());
  EXPECT_EQ(read_route_events_jsonl(stream).size(), 1u);
}

}  // namespace
}  // namespace lumen::obs
