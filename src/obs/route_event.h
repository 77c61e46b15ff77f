// Structured per-request routing records.
//
// One RouteEvent is produced per routing request (SessionManager::open,
// the lumen_route CLI, or any caller that fills one in): what was asked,
// which policy answered, what it cost, and how hard the engine worked.
// The schema is flat and numeric on purpose — every field lands verbatim
// in the JSONL/CSV exporters (obs/export.h), so downstream analysis never
// parses nested structures.
//
// RouteEvent/RouteEventLog are plain passive data (no ambient cost when
// nobody appends), so they stay available even under LUMEN_OBS_DISABLED;
// only the ambient instruments (registry, spans) compile away.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace lumen::obs {

/// Bumps the `lumen.obs.events_dropped` registry counter by `n`.  Defined
/// out of line (route_event.cc) so this passive header never pulls in the
/// registry; a no-op when the obs library was built with
/// LUMEN_OBS_DISABLED.
void note_route_events_dropped(std::uint64_t n);

/// One routing request, machine-readable.
struct RouteEvent {
  /// Monotone per-producer sequence number.
  std::uint64_t sequence = 0;
  std::uint32_t source = 0;
  std::uint32_t target = 0;
  /// Routing policy that served the request ("first_fit",
  /// "lightpath_engine", "semilightpath_engine", ...).
  std::string policy;
  /// Dijkstra heap used, when applicable ("fibonacci", "binary", ...).
  std::string heap;
  /// "carried", "blocked", "rerouted", "dropped", "found", "not_found".
  std::string outcome;
  /// C(P) of the chosen route (meaningless unless the outcome carries).
  double cost = 0.0;
  std::uint32_t hops = 0;
  std::uint32_t conversions = 0;
  /// Auxiliary-graph size searched (paper Observations 1-5 axes).
  std::uint64_t aux_nodes = 0;
  std::uint64_t aux_links = 0;
  /// Search effort.
  std::uint64_t relaxations = 0;
  std::uint64_t heap_pops = 0;
  /// Stage timings.
  double build_seconds = 0.0;
  double search_seconds = 0.0;
  /// Causal trace the request belongs to (obs/trace_context.h); 0 when
  /// tracing is off or the producer predates it.  Appended to the end of
  /// the JSONL/CSV schema.
  std::uint64_t trace_id = 0;

  friend bool operator==(const RouteEvent&, const RouteEvent&) = default;
};

/// Append-only, thread-safe event sink, and the one bounded RouteEvent
/// store (FlightRecorder keeps its events in one).  A capacity of 0 means
/// unbounded; otherwise the log is a ring that overwrites its oldest
/// event once the cap is reached (bounded memory, O(1) per append).
class RouteEventLog {
 public:
  explicit RouteEventLog(std::size_t capacity = 0) : capacity_(capacity) {}
  RouteEventLog(const RouteEventLog&) = delete;
  RouteEventLog& operator=(const RouteEventLog&) = delete;

  void append(RouteEvent event) {
    {
      const std::scoped_lock lock(mutex_);
      if (capacity_ == 0 || events_.size() < capacity_) {
        events_.push_back(std::move(event));
        return;
      }
      events_[oldest_] = std::move(event);
      oldest_ = (oldest_ + 1) % capacity_;
      ++dropped_;
    }
    note_route_events_dropped(1);
  }

  /// The retained events, oldest first.
  [[nodiscard]] std::vector<RouteEvent> snapshot() const {
    const std::scoped_lock lock(mutex_);
    const auto oldest = events_.begin() + static_cast<std::ptrdiff_t>(oldest_);
    std::vector<RouteEvent> out(oldest, events_.end());
    out.insert(out.end(), events_.begin(), oldest);
    return out;
  }

  [[nodiscard]] std::size_t size() const {
    const std::scoped_lock lock(mutex_);
    return events_.size();
  }

  /// The cap on retained events; 0 = unbounded.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Events overwritten by the capacity bound since construction or the
  /// last clear() (also counted in the `lumen.obs.events_dropped` registry
  /// counter, so silent truncation is visible in exports).
  [[nodiscard]] std::uint64_t dropped() const {
    const std::scoped_lock lock(mutex_);
    return dropped_;
  }

  void clear() {
    const std::scoped_lock lock(mutex_);
    events_.clear();
    oldest_ = 0;
    dropped_ = 0;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<RouteEvent> events_;
  std::size_t oldest_ = 0;  // ring start once full
  std::uint64_t dropped_ = 0;
};

}  // namespace lumen::obs
