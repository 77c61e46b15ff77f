// Flight recorder: a bounded in-memory ring of recent RouteEvents plus
// the causal span buffer, dumpable on demand or on an SLO trigger.
//
// The idea is the aircraft one: keep the last N interesting things in
// memory at negligible cost, and when something trips (an SLO breach, an
// operator request) write them all out — every open/block/fail/reroute
// with its trace id, and every causal span, so the breaching request's
// full event chain can be reconstructed offline (trace_assembler.h).
//
//   obs::FlightRecorder::global().dump("flight.jsonl");
//
// writes one flat JSON object per line: {"type":"span",…} lines for the
// span buffer followed by {"type":"route_event",…} lines for the events,
// which live in a bounded RouteEventLog.  SessionManager mirrors every
// RouteEvent it produces into the global recorder; MetricsPump calls
// trigger_dump() on SLO breaches.  With LUMEN_OBS_DISABLED recording and
// dumping are no-ops: the recorder retains nothing and writes no file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "obs/route_event.h"
#include "obs/span_buffer.h"

namespace lumen::obs {
inline namespace LUMEN_OBS_MODE_NAMESPACE {

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultEventCapacity = 1024;

  /// `spans` must outlive the recorder (defaults to the process-wide
  /// buffer all CausalSpans land in).
  explicit FlightRecorder(std::size_t event_capacity = kDefaultEventCapacity,
                          SpanBuffer* spans = &SpanBuffer::global());
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder SessionManager mirrors into.
  static FlightRecorder& global();

  /// Appends one event (thread-safe; overwrites the oldest once full,
  /// counted in events_dropped() and `lumen.obs.events_dropped`).
  void record_event(const RouteEvent& event) {
    if constexpr (kObsEnabled) events_.append(event);
  }

  /// The retained events, oldest first.
  [[nodiscard]] std::vector<RouteEvent> events() const {
    return events_.snapshot();
  }
  [[nodiscard]] std::size_t event_capacity() const noexcept {
    return events_.capacity();
  }
  /// Events lost to ring wraparound.
  [[nodiscard]] std::uint64_t events_dropped() const {
    return events_.dropped();
  }

  /// The span ring this recorder dumps alongside its events.
  [[nodiscard]] SpanBuffer& spans() noexcept { return *spans_; }
  [[nodiscard]] const SpanBuffer& spans() const noexcept { return *spans_; }

  /// The dump as a string: one {"type":"span",…} line per retained span,
  /// then one {"type":"route_event",…} line per retained event.
  [[nodiscard]] std::string dump_string() const;

  /// Writes dump_string() to `path`.  False on I/O failure, and always
  /// with telemetry compiled out.
  bool dump(const std::string& path) const;

  /// Dumps to `<dir>/<tag>.jsonl` (tag sanitized to [A-Za-z0-9._-]).
  /// `extra_lines` are prepended to the dump verbatim, one line each —
  /// the pump passes breach/profile context lines here so a dump opens
  /// with *why* it was taken.  Returns the path written, "" on failure
  /// (and with telemetry compiled out).
  std::string trigger_dump(const std::string& dir, const std::string& tag,
                           const std::vector<std::string>& extra_lines = {})
      const;

  /// Drops retained events (the span buffer is left alone).  For tests.
  void clear() { events_.clear(); }

 private:
  SpanBuffer* spans_;
  RouteEventLog events_;
};

}  // inline namespace LUMEN_OBS_MODE_NAMESPACE
}  // namespace lumen::obs
