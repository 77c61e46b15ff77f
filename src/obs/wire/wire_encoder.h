// WireExporter: encodes telemetry into wire frames and ships them.
//
// The producing half of the wire protocol (wire_format.h).  Feed it
// PumpSnapshots (each one becomes a snapshot-boundary record followed by
// one record per series / profile entry / alert, split across as
// many frames as the transport's datagram ceiling requires) and
// flight-recorder RouteEvents.  Template sets describing the record
// layouts lead the very first frame and are re-announced every
// `template_interval` snapshots — the periodic resend is what makes a
// lossy UDP path self-healing: a collector that missed the first
// announcement locks on at the next one.
//
// Wiring into a MetricsPump is one pointer:
//
//   obs::wire::UdpWireTransport udp(9901);
//   obs::wire::WireExporter wire(udp);
//   obs::PumpOptions options;
//   options.wire = &wire;                 // every tick -> frames
//   obs::MetricsPump pump(obs::Registry::global(), options);
//
// Sending never blocks on the collector and never throws; lost frames
// are counted here and detected (by sequence gap) there.  Compiled in
// both build modes: the exporter serializes whatever snapshot it is
// handed, instrumented build or not.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/route_event.h"
#include "obs/slo.h"
#include "obs/wire/wire_format.h"
#include "obs/wire/wire_transport.h"

namespace lumen::obs::wire {

struct WireExporterOptions {
  /// Observation-domain id stamped on every frame; give each exporting
  /// process its own so one collector can tell their streams apart.
  std::uint32_t domain = 1;
  /// Re-announce templates every N snapshots (0 = announce once, never
  /// resend — loopback tests and reliable transports).
  std::uint32_t template_interval = 16;
};

struct WireExporterStats {
  std::uint64_t frames_sent = 0;      ///< handed to the transport
  std::uint64_t frames_lost = 0;      ///< transport reported failure
  std::uint64_t bytes_sent = 0;       ///< sum of frame sizes
  std::uint64_t records_sent = 0;     ///< data records encoded
  std::uint64_t records_dropped = 0;  ///< too large for any frame
  std::uint64_t template_sets = 0;    ///< template announcements
  std::uint64_t snapshots = 0;        ///< export_snapshot calls
};

class WireExporter {
 public:
  explicit WireExporter(WireTransport& transport,
                        WireExporterOptions options = {});
  WireExporter(const WireExporter&) = delete;
  WireExporter& operator=(const WireExporter&) = delete;

  /// Encodes one pump snapshot: a snapshot-boundary record, then every
  /// counter, gauge and histogram series, profile entry, and alert, over
  /// as many frames as needed.  The final frame is sent before returning (a snapshot
  /// never sits half-exported in the buffer).
  void export_snapshot(const PumpSnapshot& snapshot);

  /// Encodes route events (one record each); sends what it buffered.
  void export_route_events(std::span<const RouteEvent> events);

  /// Convenience: exports the recorder's retained event ring.  Defined
  /// inline because FlightRecorder is a per-build-mode type (inline
  /// namespaces): each including TU binds to its own mode's recorder,
  /// while the out-of-line codec below stays mode-independent.
  void export_flight_recorder(const FlightRecorder& recorder) {
    const std::vector<RouteEvent> events = recorder.events();
    export_route_events(std::span<const RouteEvent>(events));
  }

  /// Forces a template announcement at the start of the next frame —
  /// the mid-stream resend a collector joining late relies on.
  void resend_templates() { templates_due_ = true; }

  [[nodiscard]] const WireExporterStats& stats() const { return stats_; }
  /// Sequence number the next frame will carry.
  [[nodiscard]] std::uint32_t next_sequence() const { return sequence_; }

 private:
  void begin_frame();
  void finish_frame();  ///< patches lengths, sends, clears the buffer
  void append_template_set();
  /// Opens (or continues) the data set for `template_id`; `record` is
  /// the encoded record body.  Splits to a fresh frame when full.
  void append_record(std::uint16_t template_id,
                     std::span<const std::byte> record);
  void close_open_set();

  WireTransport& transport_;
  WireExporterOptions options_;
  WireExporterStats stats_;

  std::vector<std::byte> frame_;     // frame under construction
  std::vector<std::byte> scratch_;   // one record being encoded
  std::size_t open_set_offset_ = 0;  // 0 = no open set
  std::uint16_t open_set_id_ = 0;
  std::uint32_t sequence_ = 0;
  std::uint32_t export_tick_ = 0;
  bool frame_has_data_ = false;  // frame carries >= 1 data record
  bool templates_due_ = true;    // very first frame announces
};

}  // namespace lumen::obs::wire
