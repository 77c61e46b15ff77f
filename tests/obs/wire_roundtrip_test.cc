// Wire round-trip property: encode → transport → decode reproduces
// every PumpSnapshot value and route event exactly, including across
// frame splits, lost template frames, and mid-stream template resends.
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/registry.h"
#include "obs/slo.h"
#include "obs/tagset.h"
#include "obs/wire/wire_decoder.h"
#include "obs/wire/wire_encoder.h"
#include "obs/wire/wire_transport.h"

namespace lumen::obs::wire {
namespace {

/// A histogram with a few populated buckets and one exemplar.
HistogramData sample_histogram(std::uint64_t tick) {
  HistogramData data;
  data.buckets[0] = 1;
  data.buckets[7] = 12 + tick;
  data.buckets[12] = 2;
  data.exemplars[12] = 0xfeedbeef;
  data.sum = 1500 * (12 + tick) + 5000;
  data.min = 0;
  data.max = 2100;
  return data;
}

PumpSnapshot sample_snapshot(std::uint64_t tick) {
  PumpSnapshot snapshot;
  snapshot.tick = tick;
  snapshot.uptime_seconds = 0.5 * static_cast<double>(tick);
  snapshot.counters = {{"lumen.rwa.blocked", "", 3 + tick, 1},
                       {"lumen.rwa.offered", "", 100 * tick, 100}};
  snapshot.gauges = {{"lumen.rwa.util.busy_ratio", "", 1.0 / 3.0},
                     {"lumen.rwa.util.spans_busy", "", 17.0}};
  snapshot.histograms = {
      {"lumen.rwa.open_latency_ns", "", sample_histogram(tick)}};
  return snapshot;
}

void feed_all(const LoopbackTransport& transport, WireDecoder& decoder,
              std::size_t skip_index = SIZE_MAX) {
  for (std::size_t i = 0; i < transport.frames().size(); ++i) {
    if (i == skip_index) continue;
    EXPECT_TRUE(decoder.decode_frame(transport.frames()[i]));
  }
}

void expect_equal(const PumpSnapshot& got, const PumpSnapshot& want) {
  EXPECT_EQ(got.tick, want.tick);
  EXPECT_EQ(got.uptime_seconds, want.uptime_seconds);
  EXPECT_EQ(got.counters, want.counters);
  EXPECT_EQ(got.gauges, want.gauges);
  EXPECT_EQ(got.histograms, want.histograms);
  // The JSON and Prometheus renderings are the cross-tool contract; they
  // must agree too.
  EXPECT_EQ(pump_snapshot_to_json(got), pump_snapshot_to_json(want));
  EXPECT_EQ(prometheus_text(got), prometheus_text(want));
}

TEST(WireRoundTripTest, SnapshotSurvivesExactly) {
  LoopbackTransport transport;
  WireExporter exporter(transport);
  const PumpSnapshot sent = sample_snapshot(7);
  exporter.export_snapshot(sent);

  WireDecoder decoder;
  feed_all(transport, decoder);
  decoder.flush();
  const auto snapshots = decoder.take_snapshots();
  ASSERT_EQ(snapshots.size(), 1u);
  expect_equal(snapshots[0], sent);
  EXPECT_EQ(decoder.stats().frames_rejected, 0u);
}

TEST(WireRoundTripTest, AlertsSurviveWithEveryField) {
  LoopbackTransport transport;
  WireExporter exporter(transport);
  PumpSnapshot sent = sample_snapshot(9);
  AlertEvent breach;
  breach.rule = "blocking";
  breach.metric = "lumen.rwa.blocked";
  breach.value = 0.25;
  breach.threshold = 0.2;
  breach.resolved = false;
  breach.tick = 9;
  breach.dump_path = "dumps/slo-blocking-tick9.jsonl";
  AlertEvent resolve = breach;
  resolve.resolved = true;
  resolve.dump_path = "";
  sent.alerts = {breach, resolve};
  exporter.export_snapshot(sent);

  WireDecoder decoder;
  feed_all(transport, decoder);
  decoder.flush();
  const auto snapshots = decoder.take_snapshots();
  ASSERT_EQ(snapshots.size(), 1u);
  ASSERT_EQ(snapshots[0].alerts.size(), 2u);
  const AlertEvent& got = snapshots[0].alerts[0];
  EXPECT_EQ(got.rule, breach.rule);
  EXPECT_EQ(got.metric, breach.metric);
  EXPECT_EQ(got.value, breach.value);
  EXPECT_EQ(got.threshold, breach.threshold);
  EXPECT_FALSE(got.resolved);
  EXPECT_EQ(got.tick, 9u);
  EXPECT_EQ(got.dump_path, breach.dump_path);
  EXPECT_TRUE(snapshots[0].alerts[1].resolved);
}

TEST(WireRoundTripTest, SplitsAcrossFramesAtTransportCeiling) {
  LoopbackTransport transport;
  transport.set_max_frame_bytes(256);  // force aggressive splitting
  WireExporter exporter(transport);
  PumpSnapshot sent = sample_snapshot(1);
  for (int i = 0; i < 40; ++i) {
    const auto value = static_cast<std::uint64_t>(i) * 1000;
    sent.counters.push_back({"lumen.synthetic.counter_" + std::to_string(i),
                             "", value, value / 2});
  }
  exporter.export_snapshot(sent);
  ASSERT_GT(transport.frames().size(), 3u) << "splitting did not happen";

  WireDecoder decoder;
  feed_all(transport, decoder);
  decoder.flush();
  const auto snapshots = decoder.take_snapshots();
  ASSERT_EQ(snapshots.size(), 1u);
  expect_equal(snapshots[0], sent);
}

TEST(WireRoundTripTest, DataBeforeTemplateIsBufferedThenReplayed) {
  LoopbackTransport transport;
  WireExporterOptions options;
  options.template_interval = 0;  // templates only in the very first frame
  WireExporter exporter(transport, options);
  const PumpSnapshot first = sample_snapshot(1);
  const PumpSnapshot second = sample_snapshot(2);
  exporter.export_snapshot(first);
  exporter.export_snapshot(second);
  ASSERT_EQ(transport.frames().size(), 2u);

  // The collector joins late: frame 0 (with the templates) is lost.
  WireDecoder decoder;
  EXPECT_TRUE(decoder.decode_frame(transport.frames()[1]));
  EXPECT_TRUE(decoder.take_snapshots().empty());
  EXPECT_GT(decoder.stats().buffered_sets, 0u);

  // A mid-stream template resend unlocks the parked data.
  exporter.resend_templates();
  const PumpSnapshot third = sample_snapshot(3);
  exporter.export_snapshot(third);
  ASSERT_EQ(transport.frames().size(), 3u);
  EXPECT_TRUE(decoder.decode_frame(transport.frames()[2]));
  decoder.flush();

  const auto snapshots = decoder.take_snapshots();
  ASSERT_EQ(snapshots.size(), 2u);  // the buffered tick 2, then tick 3
  expect_equal(snapshots[0], second);
  expect_equal(snapshots[1], third);
  EXPECT_GT(decoder.stats().replayed_sets, 0u);
}

TEST(WireRoundTripTest, PeriodicTemplateResendHealsWithoutIntervention) {
  LoopbackTransport transport;
  WireExporterOptions options;
  options.template_interval = 2;  // re-announce every other snapshot
  WireExporter exporter(transport, options);
  for (std::uint64_t tick = 1; tick <= 4; ++tick)
    exporter.export_snapshot(sample_snapshot(tick));
  EXPECT_GE(exporter.stats().template_sets, 2u);

  // Lose the first frame entirely; the tick-3 frame re-announces, so
  // ticks 3 and 4 decode live and tick 2's parked sets replay.
  WireDecoder decoder;
  feed_all(transport, decoder, /*skip_index=*/0);
  decoder.flush();
  const auto snapshots = decoder.take_snapshots();
  ASSERT_EQ(snapshots.size(), 3u);
  expect_equal(snapshots[0], sample_snapshot(2));
  expect_equal(snapshots[1], sample_snapshot(3));
  expect_equal(snapshots[2], sample_snapshot(4));
}

TEST(WireRoundTripTest, LostFrameCountsAsSequenceGap) {
  LoopbackTransport transport;
  WireExporter exporter(transport);
  for (std::uint64_t tick = 1; tick <= 3; ++tick)
    exporter.export_snapshot(sample_snapshot(tick));
  ASSERT_EQ(transport.frames().size(), 3u);

  WireDecoder decoder;
  feed_all(transport, decoder, /*skip_index=*/1);
  EXPECT_EQ(decoder.stats().sequence_gaps, 1u);
  EXPECT_EQ(decoder.stats().frames_missed, 1u);
}

TEST(WireRoundTripTest, RouteEventsSurviveExactly) {
  LoopbackTransport transport;
  WireExporter exporter(transport);
  std::vector<RouteEvent> sent(3);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i].sequence = i;
    sent[i].source = 2 + static_cast<std::uint32_t>(i);
    sent[i].target = 9;
    sent[i].policy = "goal_directed_engine";
    sent[i].heap = "binary";
    sent[i].outcome = i == 1 ? "blocked" : "carried";
    sent[i].cost = 12.625 + static_cast<double>(i);
    sent[i].hops = 4;
    sent[i].conversions = 1;
    sent[i].aux_nodes = 120;
    sent[i].aux_links = 480;
    sent[i].relaxations = 96;
    sent[i].heap_pops = 64;
    sent[i].build_seconds = 0.00125;
    sent[i].search_seconds = 0.0005;
    sent[i].trace_id = 0xabcdef01 + i;
  }
  exporter.export_route_events(sent);

  WireDecoder decoder;
  feed_all(transport, decoder);
  const auto got = decoder.take_route_events();
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) EXPECT_EQ(got[i], sent[i]);
}

TEST(WireRoundTripTest, TwoDomainsDoNotInterfere) {
  LoopbackTransport transport;
  WireExporterOptions a_options;
  a_options.domain = 1;
  WireExporterOptions b_options;
  b_options.domain = 2;
  WireExporter a(transport, a_options);
  WireExporter b(transport, b_options);
  a.export_snapshot(sample_snapshot(1));
  b.export_snapshot(sample_snapshot(10));
  a.export_snapshot(sample_snapshot(2));

  WireDecoder decoder;
  feed_all(transport, decoder);
  decoder.flush();
  // Interleaved domains share one decoder: templates and sequence state
  // must be tracked per domain (no spurious gaps from the interleave).
  EXPECT_EQ(decoder.stats().sequence_gaps, 0u);
  EXPECT_EQ(decoder.stats().frames_rejected, 0u);
  EXPECT_EQ(decoder.take_snapshots().size(), 3u);
}

PumpSnapshot labeled_snapshot(std::uint64_t tick) {
  PumpSnapshot snapshot = sample_snapshot(tick);
  snapshot.counters.push_back({"lumen.svc.admitted", "tenant=3", 17 + tick, 4});
  snapshot.counters.push_back({"lumen.svc.admitted", "tenant=4", 2, 2});
  snapshot.counters.push_back(
      {"lumen.svc.blocked", "shard=1,policy=a\\,b\\=c", 1, 0});
  snapshot.gauges.push_back({"lumen.svc.tenant_share", "tenant=3", 0.625});
  HistogramData no_exemplar = sample_histogram(tick);
  no_exemplar.exemplars = {};
  snapshot.histograms.push_back(
      {"lumen.svc.admit_latency_ns", "tenant=3", sample_histogram(tick)});
  snapshot.histograms.push_back(
      {"lumen.svc.admit_latency_ns", "tenant=4", no_exemplar});
  snapshot.profile = {{"svc.admit", 24, 9000, 21000},
                      {"svc.admit;svc.route", 24, 12000, 12000}};
  return snapshot;
}

TEST(WireRoundTripTest, LabeledSeriesAndProfileSurviveExactly) {
  LoopbackTransport transport;
  WireExporter exporter(transport);
  const PumpSnapshot sent = labeled_snapshot(3);
  exporter.export_snapshot(sent);

  WireDecoder decoder;
  feed_all(transport, decoder);
  decoder.flush();
  const auto snapshots = decoder.take_snapshots();
  ASSERT_EQ(snapshots.size(), 1u);
  const PumpSnapshot& got = snapshots[0];
  expect_equal(got, sent);
  // Templates 262/264/265 carry every field bit-exactly, including the
  // escaped label text, zero vs nonzero exemplars, and profile weights.
  EXPECT_EQ(got.counters, sent.counters);
  EXPECT_EQ(got.gauges, sent.gauges);
  EXPECT_EQ(got.histograms, sent.histograms);
  EXPECT_EQ(got.profile, sent.profile);
  EXPECT_EQ(decoder.stats().frames_rejected, 0u);
}

TEST(WireRoundTripTest, LabeledRecordsSplitAcrossTinyFrames) {
  LoopbackTransport transport;
  transport.set_max_frame_bytes(160);
  WireExporter exporter(transport);
  const PumpSnapshot sent = labeled_snapshot(5);
  exporter.export_snapshot(sent);
  ASSERT_GT(transport.frames().size(), 2u);

  WireDecoder decoder;
  feed_all(transport, decoder);
  decoder.flush();
  const auto snapshots = decoder.take_snapshots();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].counters, sent.counters);
  EXPECT_EQ(snapshots[0].histograms, sent.histograms);
  EXPECT_EQ(snapshots[0].profile, sent.profile);
}

TEST(WireRoundTripTest, RegistryPrometheusTextSurvivesPumpAndWire) {
  // Plain and labeled series of every kind, including plain namesakes
  // whose family overflow child is nonzero: the pump's snapshot, sent
  // over the wire and decoded, renders byte for byte as the registry.
  Registry registry;
  registry.counter("lumen.test.both").add(10);
  auto& both = registry.labeled_counter("lumen.test.both");
  both.at(TagSet{}).add(5);
  both.at(TagSet{}.tenant(3)).add(7);
  registry.counter("lumen.test.plain").add(2);
  registry.labeled_counter("lumen.test.labeled").at(TagSet{}.shard(1)).add(4);
  registry.gauge("lumen.test.level").set(0.375);
  registry.labeled_gauge("lumen.test.share").at(TagSet{}.tenant(3)).set(0.625);
  LatencyHistogram& plain = registry.histogram("lumen.test.latency_ns");
  plain.record(3);
  plain.record(900, 0xabc);
  auto& family = registry.labeled_histogram("lumen.test.latency_ns");
  family.at(TagSet{}).record(17);
  family.at(TagSet{}.tenant(3)).record(std::uint64_t{1} << 40, 0xdef);
  registry.labeled_histogram("lumen.test.admit_ns")
      .at(TagSet{}.tenant(4))
      .record(0);

  LoopbackTransport transport;
  WireExporter exporter(transport);
  PumpOptions options;
  options.wire = &exporter;
  MetricsPump pump(registry, options);
  (void)pump.tick();

  WireDecoder decoder;
  feed_all(transport, decoder);
  decoder.flush();
  const auto snapshots = decoder.take_snapshots();
  ASSERT_EQ(snapshots.size(), 1u);
  const std::string want = prometheus_text(registry);
  EXPECT_EQ(prometheus_text(snapshots[0]), want);
  if constexpr (kObsEnabled) {
    EXPECT_NE(want.find("lumen_test_both 15\n"), std::string::npos);
    EXPECT_NE(want.find("lumen_test_latency_ns_count 3\n"), std::string::npos);
  } else {
    EXPECT_EQ(want, "");
  }
}

}  // namespace
}  // namespace lumen::obs::wire
