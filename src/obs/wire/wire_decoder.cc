#include "obs/wire/wire_decoder.h"

#include <bit>
#include <utility>

namespace lumen::obs::wire {

namespace {

/// Field lengths a template may legally declare.
bool valid_field_length(std::uint16_t length) {
  return length == 1 || length == 2 || length == 4 || length == 8 ||
         length == kVarLen;
}

/// One decoded field: fixed-width fields land in `u` (doubles as the
/// IEEE-754 bit pattern), variable-length fields in `s`.
struct FieldValue {
  std::uint64_t u = 0;
  std::string s;
};

/// Reads one field per its template spec.  Returns false on truncation.
bool read_field(lumen::ByteReader& reader, const FieldSpec& spec,
                FieldValue& out) {
  if (spec.length == kVarLen) {
    out.s = reader.str();
  } else {
    switch (spec.length) {
      case 1: out.u = reader.u8(); break;
      case 2: out.u = reader.u16(); break;
      case 4: out.u = reader.u32(); break;
      default: out.u = reader.u64(); break;
    }
  }
  return reader.ok();
}

double as_f64(const FieldValue& v) { return std::bit_cast<double>(v.u); }

/// Fills `data` from a kFBuckets payload.  False unless the payload is
/// whole (index, count, exemplar) triples with strictly increasing
/// in-range indices, each holding a count or an exemplar.
bool read_buckets(const std::string& payload, HistogramData& data) {
  if (payload.size() % kBucketTripleBytes != 0) return false;
  lumen::ByteReader reader(std::as_bytes(std::span(payload)));
  int next = 0;  // smallest index the next triple may carry
  while (reader.remaining() > 0) {
    const int b = reader.u8();
    const std::uint64_t count = reader.u64();
    const std::uint64_t exemplar = reader.u64();
    if (b < next || b >= HistogramData::kBuckets ||
        (count == 0 && exemplar == 0))
      return false;
    data.buckets[b] = count;
    data.exemplars[b] = exemplar;
    next = b + 1;
  }
  return reader.ok();
}

}  // namespace

WireDecoder::WireDecoder(WireDecoderOptions options) : options_(options) {}

bool WireDecoder::decode_frame(std::span<const std::byte> frame) {
  ++stats_.frames_received;
  const auto reject = [this] {
    ++stats_.frames_rejected;
    return false;
  };

  lumen::ByteReader reader(frame);
  const std::uint16_t version = reader.u16();
  const std::uint16_t length = reader.u16();
  const std::uint32_t sequence = reader.u32();
  reader.u32();  // export_tick: diagnostic only
  const std::uint32_t domain_id = reader.u32();
  if (!reader.ok() || version != kWireVersion) return reject();
  // The length field must name this exact datagram: shorter means the
  // frame was truncated in flight, longer means it was padded or spliced
  // — both are corruption, not data.
  if (length != frame.size()) return reject();

  DomainState& domain = domains_[domain_id];
  // Sequence accounting happens on any frame whose header parsed: a
  // frame that later proves malformed still consumed a sequence number
  // at the exporter.
  note_sequence(domain, sequence);

  while (reader.ok() && reader.remaining() > 0) {
    if (reader.remaining() < kSetHeaderBytes) return reject();
    const std::uint16_t set_id = reader.u16();
    const std::uint16_t set_length = reader.u16();
    if (set_length < kSetHeaderBytes ||
        set_length - kSetHeaderBytes > reader.remaining())
      return reject();
    const std::span<const std::byte> payload =
        reader.bytes(set_length - kSetHeaderBytes);
    if (!reader.ok()) return reject();

    if (set_id == kTemplateSetId) {
      if (!decode_template_set(domain, payload)) return reject();
    } else if (set_id >= kMinDataSetId) {
      const auto it = domain.templates.find(set_id);
      if (it == domain.templates.end()) {
        park_set(domain, set_id, payload);  // template not yet announced
      } else if (!decode_data_set(domain, set_id, it->second, payload)) {
        return reject();
      }
    } else {
      return reject();  // reserved set id
    }
  }
  if (!reader.ok()) return reject();
  ++stats_.frames_accepted;
  return true;
}

void WireDecoder::note_sequence(DomainState& domain, std::uint32_t sequence) {
  if (domain.sequence_primed && sequence != domain.next_sequence) {
    ++stats_.sequence_gaps;
    // Forward jumps imply that many frames were lost; backward jumps
    // (reorder, exporter restart) are a discontinuity with no loss count.
    if (sequence > domain.next_sequence)
      stats_.frames_missed += sequence - domain.next_sequence;
  }
  domain.sequence_primed = true;
  domain.next_sequence = sequence + 1;
}

bool WireDecoder::decode_template_set(DomainState& domain,
                                      std::span<const std::byte> payload) {
  lumen::ByteReader reader(payload);
  bool any = false;
  while (reader.ok() && reader.remaining() > 0) {
    const std::uint16_t template_id = reader.u16();
    const std::uint16_t field_count = reader.u16();
    if (!reader.ok() || template_id < kMinDataSetId || field_count == 0)
      return false;
    std::vector<FieldSpec> fields;
    fields.reserve(field_count);
    for (std::uint16_t i = 0; i < field_count; ++i) {
      const std::uint16_t id = reader.u16();
      const std::uint16_t length = reader.u16();
      if (!reader.ok() || !valid_field_length(length)) return false;
      fields.push_back({id, length});
    }
    domain.templates[template_id] = std::move(fields);
    any = true;
  }
  if (!reader.ok() || !any) return false;
  ++stats_.template_sets;
  // Replay only after the whole announcement decoded: parked sets must
  // replay in their original arrival order (a snapshot-boundary set has
  // to reopen its snapshot before the metric sets that follow it), not
  // in template-id order.
  replay_parked(domain);
  return true;
}

bool WireDecoder::decode_data_set(DomainState& domain, std::uint16_t set_id,
                                  const std::vector<FieldSpec>& fields,
                                  std::span<const std::byte> payload) {
  lumen::ByteReader reader(payload);
  // An empty data set is legal (an exporter may close a set it never
  // filled); trailing bytes too short for a record are corruption.
  while (reader.ok() && reader.remaining() > 0)
    if (!decode_record(domain, reader, set_id, fields)) return false;
  return reader.ok();
}

bool WireDecoder::decode_record(DomainState& domain, lumen::ByteReader& reader,
                                std::uint16_t set_id,
                                const std::vector<FieldSpec>& fields) {
  // Stage 1: read every field the template declares (bounds-checked).
  // Stage 2: apply the ids this decoder knows; unknown ids were still
  // consumed at their declared width, so appended fields are compatible.
  switch (set_id) {
    case kSnapshotTemplate: {
      std::uint64_t tick = 0;
      double uptime = 0.0;
      for (const FieldSpec& spec : fields) {
        FieldValue v;
        if (!read_field(reader, spec, v)) return false;
        if (spec.id == kFTick) tick = v.u;
        if (spec.id == kFUptime) uptime = as_f64(v);
      }
      begin_snapshot(domain, tick, uptime);
      break;
    }
    case kAlertTemplate: {
      AlertEvent alert;
      for (const FieldSpec& spec : fields) {
        FieldValue v;
        if (!read_field(reader, spec, v)) return false;
        switch (spec.id) {
          case kFRule: alert.rule = std::move(v.s); break;
          case kFMetric: alert.metric = std::move(v.s); break;
          case kFValueF64: alert.value = as_f64(v); break;
          case kFThreshold: alert.threshold = as_f64(v); break;
          case kFResolved: alert.resolved = v.u != 0; break;
          case kFTick: alert.tick = v.u; break;
          case kFDumpPath: alert.dump_path = std::move(v.s); break;
          default: break;
        }
      }
      if (!domain.in_snapshot)
        ++stats_.records_orphaned;
      else
        domain.current.alerts.push_back(std::move(alert));
      break;
    }
    case kSeriesTemplate: {
      std::string name, labels;
      std::uint64_t kind = 0, value = 0, delta = 0;
      double fvalue = 0.0;
      for (const FieldSpec& spec : fields) {
        FieldValue v;
        if (!read_field(reader, spec, v)) return false;
        switch (spec.id) {
          case kFName: name = std::move(v.s); break;
          case kFLabels: labels = std::move(v.s); break;
          case kFKind: kind = v.u; break;
          case kFValueU64: value = v.u; break;
          case kFDeltaU64: delta = v.u; break;
          case kFValueF64: fvalue = as_f64(v); break;
          default: break;
        }
      }
      if (!domain.in_snapshot)
        ++stats_.records_orphaned;
      else if (kind == 0)
        domain.current.counters.push_back(
            {std::move(name), std::move(labels), value, delta});
      else
        domain.current.gauges.push_back(
            {std::move(name), std::move(labels), fvalue});
      break;
    }
    case kHistogramTemplate: {
      HistogramSeries series;
      for (const FieldSpec& spec : fields) {
        FieldValue v;
        if (!read_field(reader, spec, v)) return false;
        switch (spec.id) {
          case kFName: series.name = std::move(v.s); break;
          case kFLabels: series.labels = std::move(v.s); break;
          case kFSum: series.data.sum = v.u; break;
          case kFMinTicks: series.data.min = v.u; break;
          case kFMaxTicks: series.data.max = v.u; break;
          case kFBuckets:
            if (!read_buckets(v.s, series.data)) return false;
            break;
          default: break;
        }
      }
      if (!domain.in_snapshot)
        ++stats_.records_orphaned;
      else
        domain.current.histograms.push_back(std::move(series));
      break;
    }
    case kProfileTemplate: {
      ProfileEntry entry;
      for (const FieldSpec& spec : fields) {
        FieldValue v;
        if (!read_field(reader, spec, v)) return false;
        switch (spec.id) {
          case kFStack: entry.stack = std::move(v.s); break;
          case kFSamples: entry.samples = v.u; break;
          case kFSelfNs: entry.self_ns = v.u; break;
          case kFTotalNs: entry.total_ns = v.u; break;
          default: break;
        }
      }
      if (!domain.in_snapshot)
        ++stats_.records_orphaned;
      else
        domain.current.profile.push_back(std::move(entry));
      break;
    }
    case kRouteEventTemplate: {
      RouteEvent event;
      for (const FieldSpec& spec : fields) {
        FieldValue v;
        if (!read_field(reader, spec, v)) return false;
        switch (spec.id) {
          case kFSequence: event.sequence = v.u; break;
          case kFSource: event.source = static_cast<std::uint32_t>(v.u); break;
          case kFTarget: event.target = static_cast<std::uint32_t>(v.u); break;
          case kFPolicy: event.policy = std::move(v.s); break;
          case kFHeap: event.heap = std::move(v.s); break;
          case kFOutcome: event.outcome = std::move(v.s); break;
          case kFCost: event.cost = as_f64(v); break;
          case kFHops: event.hops = static_cast<std::uint32_t>(v.u); break;
          case kFConversions:
            event.conversions = static_cast<std::uint32_t>(v.u);
            break;
          case kFAuxNodes: event.aux_nodes = v.u; break;
          case kFAuxLinks: event.aux_links = v.u; break;
          case kFRelaxations: event.relaxations = v.u; break;
          case kFHeapPops: event.heap_pops = v.u; break;
          case kFBuildSeconds: event.build_seconds = as_f64(v); break;
          case kFSearchSeconds: event.search_seconds = as_f64(v); break;
          case kFTraceId: event.trace_id = v.u; break;
          default: break;
        }
      }
      route_events_.push_back(std::move(event));
      break;
    }
    default: {
      // A template this decoder has no semantics for: consume the record
      // at its declared widths so the rest of the set still decodes.
      for (const FieldSpec& spec : fields) {
        FieldValue v;
        if (!read_field(reader, spec, v)) return false;
      }
      break;
    }
  }
  ++stats_.records_decoded;
  return true;
}

void WireDecoder::park_set(DomainState& domain, std::uint16_t set_id,
                           std::span<const std::byte> payload) {
  if (domain.parked.size() >= options_.max_buffered_sets) {
    domain.parked.erase(domain.parked.begin());
    ++stats_.buffered_dropped;
  }
  domain.parked.push_back(
      {set_id, std::vector<std::byte>(payload.begin(), payload.end())});
  ++stats_.buffered_sets;
}

void WireDecoder::replay_parked(DomainState& domain) {
  for (auto parked = domain.parked.begin(); parked != domain.parked.end();) {
    const auto it = domain.templates.find(parked->set_id);
    if (it == domain.templates.end()) {
      ++parked;  // template still outstanding: keep waiting
      continue;
    }
    if (decode_data_set(domain, parked->set_id, it->second, parked->payload))
      ++stats_.replayed_sets;
    else
      ++stats_.buffered_dropped;  // parked bytes turned out malformed
    parked = domain.parked.erase(parked);
  }
}

void WireDecoder::begin_snapshot(DomainState& domain, std::uint64_t tick,
                                 double uptime_seconds) {
  flush_domain(domain);
  domain.current.tick = tick;
  domain.current.uptime_seconds = uptime_seconds;
  domain.in_snapshot = true;
}

void WireDecoder::flush_domain(DomainState& domain) {
  if (!domain.in_snapshot) return;
  completed_.push_back(std::move(domain.current));
  domain.current = PumpSnapshot{};
  domain.in_snapshot = false;
}

void WireDecoder::flush() {
  for (auto& [id, domain] : domains_) flush_domain(domain);
}

std::vector<PumpSnapshot> WireDecoder::take_snapshots() {
  return std::exchange(completed_, {});
}

std::vector<RouteEvent> WireDecoder::take_route_events() {
  return std::exchange(route_events_, {});
}

std::size_t WireDecoder::templates_known(std::uint32_t domain) const {
  const auto it = domains_.find(domain);
  return it == domains_.end() ? 0 : it->second.templates.size();
}

}  // namespace lumen::obs::wire
