// WireDecoder: turns wire frames back into snapshots and route events.
//
// The consuming half of the wire protocol (wire_format.h), built for
// hostile input: every read is bounds-checked (util/byteorder.h's
// sticky-fail ByteReader), a malformed or truncated frame is counted and
// rejected — never a crash, never an out-of-bounds read — and the
// accounting invariant
//
//   frames_received == frames_accepted + frames_rejected
//
// holds after any byte stream whatsoever (the frame-fuzz suite pins
// this).  UDP realities the decoder absorbs:
//
//   * data before template — a data set whose template has not been
//     announced yet (the announcement frame was lost) is parked, bounded
//     by `max_buffered_sets`, and replayed the moment the template
//     arrives (the exporter re-announces periodically).
//   * loss — every frame carries a per-exporter sequence number; jumps
//     are counted per observation domain (exported by lumen_collect as
//     `lumen.obs.wire.gaps`).
//   * interleaved exporters — templates, sequence state, and parked sets
//     are all keyed by the frame's observation-domain id.
//
// Decoded series, profile and alert records accumulate into the snapshot
// opened by the latest snapshot-boundary record; the next boundary (or
// flush()) completes it.  A histogram record whose bucket list is not
// whole, in-range, strictly increasing triples rejects its frame.  Route events accumulate
// independently.  Compiled in both build modes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "obs/route_event.h"
#include "obs/slo.h"
#include "obs/wire/wire_format.h"
#include "util/byteorder.h"

namespace lumen::obs::wire {

struct WireDecoderOptions {
  /// Data sets parked per domain while their template is outstanding;
  /// the oldest is evicted beyond this (counted in buffered_dropped).
  std::size_t max_buffered_sets = 64;
};

struct WireDecoderStats {
  std::uint64_t frames_received = 0;  ///< decode_frame calls
  std::uint64_t frames_accepted = 0;  ///< fully decoded
  std::uint64_t frames_rejected = 0;  ///< malformed/truncated/bad version
  std::uint64_t records_decoded = 0;  ///< data records applied
  std::uint64_t records_orphaned = 0;  ///< metric records outside a snapshot
  std::uint64_t template_sets = 0;     ///< template sets decoded
  std::uint64_t sequence_gaps = 0;     ///< discontinuity events observed
  std::uint64_t frames_missed = 0;     ///< frames the gaps imply were lost
  std::uint64_t buffered_sets = 0;     ///< data sets parked pre-template
  std::uint64_t replayed_sets = 0;     ///< parked sets decoded post-template
  std::uint64_t buffered_dropped = 0;  ///< parked sets evicted or malformed
};

class WireDecoder {
 public:
  explicit WireDecoder(WireDecoderOptions options = {});
  WireDecoder(const WireDecoder&) = delete;
  WireDecoder& operator=(const WireDecoder&) = delete;

  /// Decodes one frame.  False = the frame was rejected (counted); any
  /// records decoded before the malformed point are kept.  Never throws,
  /// never reads out of bounds, accepts arbitrary bytes.
  bool decode_frame(std::span<const std::byte> frame);

  /// Snapshots completed so far (each closed by the next boundary record
  /// or by flush()); clears the internal queue.
  [[nodiscard]] std::vector<PumpSnapshot> take_snapshots();
  /// Route events decoded so far; clears the internal queue.
  [[nodiscard]] std::vector<RouteEvent> take_route_events();
  /// Completes the in-progress snapshot, if any (end-of-stream).
  void flush();

  [[nodiscard]] const WireDecoderStats& stats() const { return stats_; }
  /// Templates currently known for `domain` (diagnostic).
  [[nodiscard]] std::size_t templates_known(std::uint32_t domain) const;

 private:
  struct ParkedSet {
    std::uint16_t set_id = 0;
    std::vector<std::byte> payload;
  };
  struct DomainState {
    std::map<std::uint16_t, std::vector<FieldSpec>> templates;
    std::vector<ParkedSet> parked;
    bool sequence_primed = false;
    std::uint32_t next_sequence = 0;
    /// Snapshot assembly is per domain: interleaved exporters must not
    /// bleed records into each other's snapshots.
    PumpSnapshot current;
    bool in_snapshot = false;
  };

  void note_sequence(DomainState& domain, std::uint32_t sequence);
  bool decode_template_set(DomainState& domain,
                           std::span<const std::byte> payload);
  bool decode_data_set(DomainState& domain, std::uint16_t set_id,
                       const std::vector<FieldSpec>& fields,
                       std::span<const std::byte> payload);
  bool decode_record(DomainState& domain, lumen::ByteReader& reader,
                     std::uint16_t set_id,
                     const std::vector<FieldSpec>& fields);
  void park_set(DomainState& domain, std::uint16_t set_id,
                std::span<const std::byte> payload);
  /// Decodes every parked set whose template is now known, in original
  /// arrival order (boundary records must reopen their snapshot before
  /// the metric sets that followed them).
  void replay_parked(DomainState& domain);
  void begin_snapshot(DomainState& domain, std::uint64_t tick,
                      double uptime_seconds);
  void flush_domain(DomainState& domain);

  WireDecoderOptions options_;
  WireDecoderStats stats_;
  std::map<std::uint32_t, DomainState> domains_;
  std::vector<PumpSnapshot> completed_;
  std::vector<RouteEvent> route_events_;
};

}  // namespace lumen::obs::wire
