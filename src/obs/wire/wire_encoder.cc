#include "obs/wire/wire_encoder.h"

#include <algorithm>

#include "util/byteorder.h"

namespace lumen::obs::wire {

namespace {

/// Offset of the u16 frame-length field inside the message header.
constexpr std::size_t kFrameLengthOffset = 2;
/// Frame split floor/ceiling.  The floor keeps a pathological transport
/// from forcing one record per frame below any useful size; the ceiling
/// stays under the u16 length field with headroom for one oversized
/// record's set header.
constexpr std::size_t kMinFrameBytes = 128;
constexpr std::size_t kMaxFrameBytes = 60000;

void append_one_template(ByteWriter& writer, std::uint16_t template_id,
                         std::span<const FieldSpec> fields) {
  writer.u16(template_id);
  writer.u16(static_cast<std::uint16_t>(fields.size()));
  for (const FieldSpec& field : fields) {
    writer.u16(field.id);
    writer.u16(field.length);
  }
}

}  // namespace

WireExporter::WireExporter(WireTransport& transport,
                           WireExporterOptions options)
    : transport_(transport), options_(options) {}

void WireExporter::begin_frame() {
  frame_.clear();
  open_set_offset_ = 0;
  open_set_id_ = 0;
  frame_has_data_ = false;
  ByteWriter writer(frame_);
  writer.u16(kWireVersion);
  writer.u16(0);  // total length, patched in finish_frame
  writer.u32(sequence_);
  writer.u32(export_tick_);
  writer.u32(options_.domain);
  if (templates_due_) {
    append_template_set();
    templates_due_ = false;
  }
}

void WireExporter::close_open_set() {
  if (open_set_offset_ == 0) return;  // sets never start at the header
  ByteWriter writer(frame_);
  writer.patch_u16(
      open_set_offset_ + 2,
      static_cast<std::uint16_t>(frame_.size() - open_set_offset_));
  open_set_offset_ = 0;
  open_set_id_ = 0;
}

void WireExporter::finish_frame() {
  if (frame_.empty()) return;
  close_open_set();
  ByteWriter writer(frame_);
  writer.patch_u16(kFrameLengthOffset,
                   static_cast<std::uint16_t>(frame_.size()));
  ++sequence_;  // counts every frame, sent or lost: a sender-side drop
                // surfaces as a collector-side gap like any other loss
  ++stats_.frames_sent;
  stats_.bytes_sent += frame_.size();
  if (!transport_.send(frame_)) ++stats_.frames_lost;
  frame_.clear();
}

void WireExporter::append_template_set() {
  close_open_set();
  const std::size_t set_offset = frame_.size();
  ByteWriter writer(frame_);
  writer.u16(kTemplateSetId);
  writer.u16(0);  // set length, patched below
  append_one_template(writer, kSnapshotTemplate, kSnapshotFields);
  append_one_template(writer, kAlertTemplate, kAlertFields);
  append_one_template(writer, kRouteEventTemplate, kRouteEventFields);
  append_one_template(writer, kSeriesTemplate, kSeriesFields);
  append_one_template(writer, kProfileTemplate, kProfileFields);
  append_one_template(writer, kHistogramTemplate, kHistogramFields);
  writer.patch_u16(set_offset + 2,
                   static_cast<std::uint16_t>(frame_.size() - set_offset));
  ++stats_.template_sets;
}

void WireExporter::append_record(std::uint16_t template_id,
                                 std::span<const std::byte> record) {
  // A record that cannot fit even an otherwise-empty frame can never be
  // carried (the set length field would overflow): count it, drop it.
  if (record.size() + kHeaderBytes + kSetHeaderBytes > kMaxFrameBytes) {
    ++stats_.records_dropped;
    return;
  }
  const std::size_t limit = std::clamp(transport_.max_frame_bytes(),
                                       kMinFrameBytes, kMaxFrameBytes);
  if (frame_.empty()) begin_frame();
  const std::size_t need =
      record.size() + (open_set_id_ == template_id ? 0 : kSetHeaderBytes);
  // Split to a fresh frame when full — but only if this frame already
  // carries a record; a fresh frame ships oversized rather than looping.
  if (frame_has_data_ && frame_.size() + need > limit) {
    finish_frame();
    begin_frame();
  }
  if (open_set_id_ != template_id) {
    close_open_set();
    open_set_offset_ = frame_.size();
    open_set_id_ = template_id;
    ByteWriter writer(frame_);
    writer.u16(template_id);
    writer.u16(0);  // set length, patched at close
  }
  ByteWriter writer(frame_);
  writer.bytes(record);
  frame_has_data_ = true;
  ++stats_.records_sent;
}

void WireExporter::export_snapshot(const PumpSnapshot& snapshot) {
  if (options_.template_interval != 0 &&
      stats_.snapshots % options_.template_interval == 0)
    templates_due_ = true;  // periodic re-announce (lossy-path recovery)
  ++stats_.snapshots;
  export_tick_ = static_cast<std::uint32_t>(snapshot.tick);

  // Snapshot boundary first: the collector opens a new snapshot on this
  // record, so everything that follows lands in the right tick.
  scratch_.clear();
  {
    ByteWriter writer(scratch_);
    writer.u64(snapshot.tick);
    writer.f64(snapshot.uptime_seconds);
  }
  append_record(kSnapshotTemplate, scratch_);

  for (const CounterSeries& series : snapshot.counters) {
    scratch_.clear();
    ByteWriter writer(scratch_);
    writer.str(series.name);
    writer.str(series.labels);
    writer.u8(0);  // kind: counter
    writer.u64(series.value);
    writer.u64(series.delta);
    writer.f64(0.0);
    append_record(kSeriesTemplate, scratch_);
  }
  for (const GaugeSeries& series : snapshot.gauges) {
    scratch_.clear();
    ByteWriter writer(scratch_);
    writer.str(series.name);
    writer.str(series.labels);
    writer.u8(1);  // kind: gauge
    writer.u64(0);
    writer.u64(0);
    writer.f64(series.value);
    append_record(kSeriesTemplate, scratch_);
  }
  for (const HistogramSeries& series : snapshot.histograms) {
    const HistogramData& data = series.data;
    scratch_.clear();
    ByteWriter writer(scratch_);
    writer.str(series.name);
    writer.str(series.labels);
    writer.u64(data.sum);
    writer.u64(data.min);
    writer.u64(data.max);
    const std::size_t length_at = scratch_.size();
    writer.u16(0);  // bucket-list length, patched below
    for (int b = 0; b < HistogramData::kBuckets; ++b) {
      if (data.buckets[b] == 0 && data.exemplars[b] == 0) continue;
      writer.u8(static_cast<std::uint8_t>(b));
      writer.u64(data.buckets[b]);
      writer.u64(data.exemplars[b]);
    }
    writer.patch_u16(length_at, static_cast<std::uint16_t>(
                                    scratch_.size() - length_at - 2));
    append_record(kHistogramTemplate, scratch_);
  }
  for (const ProfileEntry& entry : snapshot.profile) {
    scratch_.clear();
    ByteWriter writer(scratch_);
    writer.str(entry.stack);
    writer.u64(entry.samples);
    writer.u64(entry.self_ns);
    writer.u64(entry.total_ns);
    append_record(kProfileTemplate, scratch_);
  }
  for (const AlertEvent& alert : snapshot.alerts) {
    scratch_.clear();
    ByteWriter writer(scratch_);
    writer.str(alert.rule);
    writer.str(alert.metric);
    writer.f64(alert.value);
    writer.f64(alert.threshold);
    writer.u8(alert.resolved ? 1 : 0);
    writer.u64(alert.tick);
    writer.str(alert.dump_path);
    append_record(kAlertTemplate, scratch_);
  }
  finish_frame();  // a snapshot never sits half-exported
}

void WireExporter::export_route_events(std::span<const RouteEvent> events) {
  for (const RouteEvent& event : events) {
    scratch_.clear();
    ByteWriter writer(scratch_);
    writer.u64(event.sequence);
    writer.u32(event.source);
    writer.u32(event.target);
    writer.str(event.policy);
    writer.str(event.heap);
    writer.str(event.outcome);
    writer.f64(event.cost);
    writer.u32(event.hops);
    writer.u32(event.conversions);
    writer.u64(event.aux_nodes);
    writer.u64(event.aux_links);
    writer.u64(event.relaxations);
    writer.u64(event.heap_pops);
    writer.f64(event.build_seconds);
    writer.f64(event.search_seconds);
    writer.u64(event.trace_id);
    append_record(kRouteEventTemplate, scratch_);
  }
  finish_frame();
}

}  // namespace lumen::obs::wire
