// Online routing and wavelength assignment (RWA) session engine.
//
// The paper's setting: connection requests arrive online; each carried
// request claims one wavelength on every fiber link of its route (and a
// converter setting at switch nodes) until it departs.  SessionManager
// tracks the residual availability, routes each request with a pluggable
// policy, reserves/releases (link, wavelength) resources, and accounts
// blocking — the standard WDM evaluation loop built on the Liang–Shen
// router.
//
// Every manager builds one RouteEngine at construction and keeps it in
// sync with the residual availability by in-place weight patches on every
// reserve/release/failure/repair, so each request costs only a search.
//
// Policies, weakest to strongest:
//   kLightpathFirstFit   — classic greedy: hop-shortest route on links
//                          with any free wavelength, then the first
//                          wavelength free along the whole route (blocked
//                          otherwise).
//   kLightpathEngine     — optimal wavelength-continuous route (one search
//                          per wavelength over the engine's per-λ
//                          subnetwork cache).
//   kSemilightpathEngine — the paper's router: optimal with conversion,
//                          served by the engine's flattened core (same
//                          optimum as route_semilightpath; among equal-cost
//                          routes it takes the lowest wavelength).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/route_engine.h"
#include "core/route_types.h"
#include "obs/route_event.h"
#include "util/flat_map.h"
#include "util/strong_id.h"
#include "wdm/metrics.h"
#include "wdm/network.h"
#include "wdm/semilightpath.h"

namespace lumen {

struct SessionTag {};
/// Identifier of an accepted (possibly since-closed) session.
using SessionId = StrongId<SessionTag>;

/// Routing policy used for each arriving request.
enum class RoutingPolicy {
  kLightpathFirstFit,
  kSemilightpathEngine,
  kLightpathEngine,
};

/// One carried connection.
struct SessionRecord {
  SessionId id;
  NodeId source;
  NodeId target;
  Semilightpath path;
  double cost = 0.0;
  bool active = false;
};

/// Aggregate acceptance accounting.
struct SessionStats {
  std::uint64_t offered = 0;
  std::uint64_t carried = 0;
  std::uint64_t blocked = 0;
  std::uint64_t released = 0;
  /// Sessions moved to a new route after a span failure.
  std::uint64_t rerouted = 0;
  /// Sessions lost to a span failure (no restoration route existed).
  std::uint64_t dropped = 0;
  double carried_cost_sum = 0.0;

  [[nodiscard]] double blocking_rate() const noexcept {
    return offered == 0 ? 0.0
                        : static_cast<double>(blocked) /
                              static_cast<double>(offered);
  }
  [[nodiscard]] double mean_carried_cost() const noexcept {
    return carried == 0 ? 0.0
                        : carried_cost_sum / static_cast<double>(carried);
  }
};

/// One point of the periodic residual-state time series recorded when
/// telemetry is attached (see SessionManager::set_telemetry).
struct MetricsSnapshot {
  /// stats().offered at sample time (the series' x-axis).
  std::uint64_t offered = 0;
  std::uint64_t active = 0;
  double utilization = 0.0;
  NetworkMetrics metrics;
};

/// Owns the residual network state and the session table.
class SessionManager {
 public:
  /// Takes the base network by value (the manager mutates its copy's
  /// availability as sessions come and go).
  SessionManager(WdmNetwork network, RoutingPolicy policy);

  /// Routes a request on the residual availability.  On success the
  /// returned session holds its resources until close().  On blocking
  /// returns std::nullopt (and counts it).
  std::optional<SessionId> open(NodeId source, NodeId target);

  /// Releases a session's resources.  Returns false when the id is
  /// unknown or already closed.
  bool close(SessionId id);

  /// Outcome of a span failure.
  struct FailureReport {
    std::uint32_t links_failed = 0;   ///< directed links taken down
    std::uint32_t affected = 0;       ///< active sessions that crossed them
    std::uint32_t rerouted = 0;       ///< restored on an alternate route
    std::uint32_t dropped = 0;        ///< lost (no restoration route)
  };

  /// Fails every directed link between `a` and `b` (a fiber cut takes the
  /// whole span).  Active sessions crossing the span are restored on an
  /// alternate route when one exists under the current policy, otherwise
  /// dropped.  Idempotent for an already-failed span.
  FailureReport fail_span(NodeId a, NodeId b);

  /// Repairs the span: its links regain every base wavelength at its base
  /// cost (fail_span moved or dropped every session that crossed them).
  /// Sessions dropped earlier are NOT resurrected.  No-op for a healthy
  /// span (detected before any engine weight traffic).  Returns the number
  /// of directed links brought back up (0 for the no-op).
  std::uint32_t repair_span(NodeId a, NodeId b);

  /// Applies one span-state transition: down → fail_span (restoring or
  /// dropping crossing sessions), up → repair_span.  This is the replay
  /// hook for fault-injection timelines (FaultPlan::span_timeline() in
  /// src/dist emits events in exactly this shape), so simulator-level
  /// link-down windows drive the same fail/repair + engine weight-sync
  /// path as operator-initiated cuts.  Returns the failure report (empty
  /// for repairs).  Replaying a transition the span is already in (down
  /// while down, up while up) is a counted no-op: it bumps
  /// `lumen.rwa.span_noops` and performs no per-session scan and no
  /// engine weight re-sync (tests assert this via the counter).
  FailureReport apply_span_state(NodeId a, NodeId b, bool down);

  /// True when the directed link is currently failed.
  [[nodiscard]] bool is_failed(LinkId e) const;

  /// Re-routes an active session against the current residual state (its
  /// own resources are released during the search, so the old route is
  /// always re-acquirable).  Keeps the new route only when strictly
  /// cheaper; otherwise restores the old one.  Returns true when the
  /// session moved.  False (no-op) for unknown/closed ids.
  bool reoptimize(SessionId id);

  /// Ids of all currently active sessions, sorted ascending (the session
  /// table itself iterates in hash order; callers get a deterministic
  /// view regardless of table history).
  [[nodiscard]] std::vector<SessionId> active_session_ids() const;

  [[nodiscard]] const SessionStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t active_sessions() const noexcept {
    return active_;
  }
  /// The network as currently seen by new requests.
  [[nodiscard]] const WdmNetwork& residual() const noexcept { return net_; }
  /// The pristine network the manager was built from: every base (link, λ)
  /// at its base cost, whatever is reserved or failed.
  [[nodiscard]] const WdmNetwork& base() const noexcept { return base_; }
  [[nodiscard]] RoutingPolicy policy() const noexcept { return policy_; }

  /// The session record, or nullptr when unknown.
  [[nodiscard]] const SessionRecord* find(SessionId id) const;

  /// The build-once engine kept weight-synchronized with residual().
  /// Exposed so tests can check the patched weights against a
  /// rebuilt-from-scratch oracle.
  [[nodiscard]] const RouteEngine& engine() const noexcept {
    return *engine_;
  }

  /// Fraction of the base network's (link, λ) pairs currently reserved.
  [[nodiscard]] double wavelength_utilization() const noexcept;

  /// Recomputes the residual-occupancy gauges in the global registry:
  ///   lumen.rwa.util.spans_busy     — links carrying >= 1 reservation
  ///   lumen.rwa.util.busy_ratio     — mean per-link busy-λ fraction
  ///   lumen.rwa.util.fragmentation  — mean 1 - longest_free_run/free
  /// (failed links are excluded; 0 when nothing qualifies).  O(E·k), so
  /// it runs at snapshot cadence (maybe_snapshot_metrics), never per
  /// open/close; call it directly to refresh before a pump tick.  A
  /// no-op under LUMEN_OBS_DISABLED.
  void update_utilization_gauges() const;

  /// Attaches per-request event logging and (when metrics_every > 0) a
  /// NetworkMetrics snapshot of the residual state every `metrics_every`
  /// offered requests.  `events` may be null (snapshots only) and must
  /// outlive the manager; pass (nullptr, 0) to detach.  One RouteEvent is
  /// appended per offered request, plus one per reroute/drop decision
  /// made by fail_span.
  void set_telemetry(obs::RouteEventLog* events,
                     std::uint32_t metrics_every = 0);

  /// The recorded residual-state time series (empty until telemetry with
  /// metrics_every > 0 is attached).
  [[nodiscard]] const std::vector<MetricsSnapshot>& metrics_series()
      const noexcept {
    return metrics_series_;
  }

 private:
  [[nodiscard]] RouteResult route_request(NodeId source, NodeId target) const;
  [[nodiscard]] RouteResult first_fit_route(NodeId source,
                                            NodeId target) const;
  /// Makes `path` (of total `cost`) the route of `record` and claims its
  /// hops in net_ and the engine.
  void reserve(SessionRecord& record, const Semilightpath& path, double cost);
  /// Returns a session's hops to the pool at their base costs, skipping
  /// failed links.
  void release_resources(const SessionRecord& record);

  /// Appends one RouteEvent for a routing decision (no-op when no log is
  /// attached).
  void record_event(NodeId source, NodeId target, const RouteResult& route,
                    const char* outcome);
  /// Samples the residual-state metrics when the period is due.
  void maybe_snapshot_metrics();

  const WdmNetwork base_;  // pristine availability (release/repair source)
  WdmNetwork net_;         // residual availability (mutated)
  RoutingPolicy policy_;
  /// Build-once flattened router, kept weight-synchronized with net_.
  /// unique_ptr keeps queries usable from const methods — route_request is
  /// logically const, the engine scratch is not part of the observable
  /// state.
  std::unique_ptr<RouteEngine> engine_;
  SessionStats stats_;
  /// Hot table: looked up on every close/reoptimize and scanned on every
  /// span failure; flat storage keeps the scan contiguous.  FlatMap moves
  /// entries on insert/erase, so never hold a SessionRecord reference
  /// across a table mutation.
  FlatMap<SessionId, SessionRecord> sessions_;
  std::uint64_t next_id_ = 0;
  std::uint64_t active_ = 0;
  std::uint64_t base_pairs_;  // Σ|Λ(e)| of the pristine network
  std::uint64_t reserved_pairs_ = 0;
  std::vector<char> link_failed_;
  /// Telemetry (inert until set_telemetry is called).
  obs::RouteEventLog* event_log_ = nullptr;
  std::uint32_t metrics_every_ = 0;
  std::uint64_t event_sequence_ = 0;
  std::vector<MetricsSnapshot> metrics_series_;
  /// Causal trace of the request currently being served (open/fail_span);
  /// stamped onto its RouteEvents.  0 when tracing is compiled out.
  std::uint64_t current_trace_id_ = 0;
};

}  // namespace lumen
