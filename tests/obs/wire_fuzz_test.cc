// Frame-fuzz sweep for the wire decoder: seeded mutations of valid
// frames plus pure random blobs.  The decoder must never crash or read
// out of bounds (the asan preset runs this suite), and the accounting
// invariant frames_received == frames_accepted + frames_rejected must
// hold after every single frame.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "obs/slo.h"
#include "obs/wire/wire_decoder.h"
#include "obs/wire/wire_encoder.h"
#include "obs/wire/wire_transport.h"
#include "util/byteorder.h"
#include "util/rng.h"

namespace lumen::obs::wire {
namespace {

/// The invariant every decode_frame call must preserve, malformed or not.
void expect_accounted(const WireDecoder& decoder) {
  const WireDecoderStats& s = decoder.stats();
  ASSERT_EQ(s.frames_received, s.frames_accepted + s.frames_rejected);
}

PumpSnapshot seed_snapshot(std::uint64_t tick) {
  PumpSnapshot snapshot;
  snapshot.tick = tick;
  snapshot.uptime_seconds = static_cast<double>(tick);
  snapshot.counters = {{"lumen.rwa.blocked", "", tick, tick},
                       {"lumen.rwa.offered", "", 9, 9}};
  snapshot.gauges = {{"lumen.rwa.util.busy_ratio", "", 0.25}};
  HistogramData data;
  data.buckets[2] = tick;
  data.sum = 3 * tick;
  data.min = 3;
  data.max = 3;
  snapshot.histograms = {{"lumen.rwa.open_latency_ns", "", data}};
  AlertEvent alert;
  alert.rule = "blocking";
  alert.metric = "lumen.rwa.blocked";
  snapshot.alerts = {alert};
  // Labeled series + profile put labels, exemplars and template 264 in
  // the corpus so the mutation sweep exercises their decode paths too.
  snapshot.counters.push_back({"lumen.svc.admitted", "tenant=3", tick, 1});
  snapshot.gauges.push_back({"lumen.svc.tenant_share", "tenant=3", 0.5});
  data.exemplars[2] = 0xbeef;
  snapshot.histograms.push_back(
      {"lumen.svc.admit_latency_ns", "tenant=3", data});
  snapshot.profile = {{"svc.admit;svc.route", 8, 100, 200}};
  return snapshot;
}

/// A corpus of genuine frames to mutate (templates + every record kind).
std::vector<std::vector<std::byte>> corpus() {
  LoopbackTransport transport;
  transport.set_max_frame_bytes(400);  // multi-frame snapshots too
  WireExporter exporter(transport);
  exporter.export_snapshot(seed_snapshot(1));
  exporter.export_snapshot(seed_snapshot(2));
  RouteEvent event;
  event.policy = "goal_directed_engine";
  event.outcome = "carried";
  exporter.export_route_events(std::span<const RouteEvent>(&event, 1));
  return transport.frames();
}

TEST(WireFuzzTest, SingleByteMutationsNeverCrash) {
  const auto frames = corpus();
  ASSERT_FALSE(frames.empty());
  lumen::Rng rng(0xC0FFEEULL);
  for (const auto& frame : frames) {
    // Every byte position gets flipped at least once across the sweep.
    for (std::size_t pos = 0; pos < frame.size(); ++pos) {
      std::vector<std::byte> mutated = frame;
      mutated[pos] ^= static_cast<std::byte>(1 + rng.next_below(255));
      WireDecoder decoder;
      (void)decoder.decode_frame(mutated);
      expect_accounted(decoder);
    }
  }
}

TEST(WireFuzzTest, MultiByteMutationStreamsNeverCrash) {
  const auto frames = corpus();
  lumen::Rng rng(0xDEADBEEFULL);
  // One long-lived decoder: mutated frames interleave with genuine ones,
  // so corrupted state (bogus templates, half-open snapshots) must not
  // poison later decodes either.
  WireDecoder decoder;
  for (int round = 0; round < 200; ++round) {
    std::vector<std::byte> mutated =
        frames[rng.next_below(frames.size())];
    const std::size_t flips = 1 + rng.next_below(8);
    for (std::size_t i = 0; i < flips; ++i)
      mutated[rng.next_below(mutated.size())] =
          static_cast<std::byte>(rng.next_below(256));
    // Also exercise truncation, the classic UDP failure.
    if (rng.next_below(4) == 0) mutated.resize(rng.next_below(mutated.size()));
    (void)decoder.decode_frame(mutated);
    expect_accounted(decoder);
    if (rng.next_below(4) == 0) {
      (void)decoder.decode_frame(frames[rng.next_below(frames.size())]);
      expect_accounted(decoder);
    }
  }
  decoder.flush();
  (void)decoder.take_snapshots();
  (void)decoder.take_route_events();
}

TEST(WireFuzzTest, RandomBlobsAreAllRejectedOrAccountedNeverFatal) {
  lumen::Rng rng(42);
  WireDecoder decoder;
  for (int round = 0; round < 500; ++round) {
    std::vector<std::byte> blob(rng.next_below(600));
    for (auto& b : blob) b = static_cast<std::byte>(rng.next_below(256));
    (void)decoder.decode_frame(blob);
    expect_accounted(decoder);
  }
  // Random bytes essentially never form a valid version-1 header; at the
  // very least, nothing here may count as silently dropped.
  expect_accounted(decoder);
}

TEST(WireFuzzTest, EmptyAndTinyFramesAreRejected) {
  WireDecoder decoder;
  EXPECT_FALSE(decoder.decode_frame({}));
  std::vector<std::byte> tiny(kHeaderBytes - 1);
  EXPECT_FALSE(decoder.decode_frame(tiny));
  expect_accounted(decoder);
  EXPECT_EQ(decoder.stats().frames_rejected, 2u);
}

/// (index, count, exemplar) triples as a raw kFBuckets payload.
std::vector<std::byte> triples(
    std::initializer_list<std::array<std::uint64_t, 3>> list) {
  std::vector<std::byte> out;
  ByteWriter writer(out);
  for (const auto& [index, count, exemplar] : list) {
    writer.u8(static_cast<std::uint8_t>(index));
    writer.u64(count);
    writer.u64(exemplar);
  }
  return out;
}

/// One frame announcing the histogram template and carrying one record
/// whose bucket list is `buckets`, verbatim.
std::vector<std::byte> histogram_frame(const std::vector<std::byte>& buckets) {
  std::vector<std::byte> frame;
  ByteWriter writer(frame);
  writer.u16(kWireVersion);
  writer.u16(0);  // frame length, patched below
  writer.u32(0);  // sequence
  writer.u32(0);  // export tick
  writer.u32(1);  // domain
  const auto begin_set = [&](std::uint16_t id) {
    const std::size_t at = frame.size();
    writer.u16(id);
    writer.u16(0);  // set length, patched by end_set
    return at;
  };
  const auto end_set = [&](std::size_t at) {
    writer.patch_u16(at + 2, static_cast<std::uint16_t>(frame.size() - at));
  };
  std::size_t set = begin_set(kTemplateSetId);
  writer.u16(kHistogramTemplate);
  writer.u16(static_cast<std::uint16_t>(std::size(kHistogramFields)));
  for (const FieldSpec& field : kHistogramFields) {
    writer.u16(field.id);
    writer.u16(field.length);
  }
  end_set(set);
  set = begin_set(kHistogramTemplate);
  writer.str("lumen.test.latency_ns");
  writer.str("");
  writer.u64(10);  // sum
  writer.u64(1);   // min
  writer.u64(9);   // max
  writer.u16(static_cast<std::uint16_t>(buckets.size()));
  writer.bytes(buckets);
  end_set(set);
  writer.patch_u16(2, static_cast<std::uint16_t>(frame.size()));
  return frame;
}

TEST(WireFuzzTest, MalformedBucketListsAreRejectedAndCounted) {
  WireDecoder decoder;
  // Control: a well-formed list decodes.
  EXPECT_TRUE(decoder.decode_frame(
      histogram_frame(triples({{1, 1, 0}, {4, 1, 0xbeef}}))));
  std::vector<std::byte> ragged = triples({{1, 1, 0}, {4, 1, 0}});
  ragged.pop_back();  // not a whole number of triples
  EXPECT_FALSE(decoder.decode_frame(histogram_frame(ragged)));
  // Indices past the last bucket.
  EXPECT_FALSE(decoder.decode_frame(histogram_frame(triples({{65, 1, 0}}))));
  EXPECT_FALSE(decoder.decode_frame(histogram_frame(triples({{255, 1, 0}}))));
  // Repeated and unsorted indices.
  EXPECT_FALSE(decoder.decode_frame(
      histogram_frame(triples({{4, 1, 0}, {4, 1, 0}}))));
  EXPECT_FALSE(decoder.decode_frame(
      histogram_frame(triples({{4, 1, 0}, {1, 1, 0}}))));
  // A listed bucket with neither a count nor an exemplar.
  EXPECT_FALSE(decoder.decode_frame(histogram_frame(triples({{4, 0, 0}}))));
  expect_accounted(decoder);
  EXPECT_EQ(decoder.stats().frames_accepted, 1u);
  EXPECT_EQ(decoder.stats().frames_rejected, 6u);
}

TEST(WireFuzzTest, ParkedSetCapEvictsOldestAndCounts) {
  // Data sets for an unannounced template park up to max_buffered_sets;
  // beyond that the oldest is evicted and counted, bounding memory.
  LoopbackTransport transport;
  WireExporterOptions options;
  options.template_interval = 0;
  WireExporter exporter(transport, options);
  for (std::uint64_t tick = 1; tick <= 40; ++tick)
    exporter.export_snapshot(seed_snapshot(tick));

  WireDecoderOptions decoder_options;
  decoder_options.max_buffered_sets = 4;
  WireDecoder decoder(decoder_options);
  // Skip frame 0 (the only template announcement): everything parks.
  for (std::size_t i = 1; i < transport.frames().size(); ++i)
    EXPECT_TRUE(decoder.decode_frame(transport.frames()[i]));
  expect_accounted(decoder);
  EXPECT_GT(decoder.stats().buffered_dropped, 0u);
  EXPECT_EQ(decoder.stats().buffered_sets -
                decoder.stats().buffered_dropped,
            decoder_options.max_buffered_sets);
}

}  // namespace
}  // namespace lumen::obs::wire
