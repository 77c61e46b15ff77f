#include "rwa/session_manager.h"

#include <algorithm>

#include "graph/dijkstra.h"  // kInfiniteCost
#include "graph/traversal.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/trace_context.h"
#include "util/stopwatch.h"

namespace lumen {

namespace {

const char* policy_name(RoutingPolicy policy) {
  switch (policy) {
    case RoutingPolicy::kLightpathFirstFit: return "first_fit";
    case RoutingPolicy::kSemilightpathEngine: return "semilightpath_engine";
    case RoutingPolicy::kLightpathEngine: return "lightpath_engine";
  }
  return "unknown";
}

}  // namespace

SessionManager::SessionManager(WdmNetwork network, RoutingPolicy policy)
    : base_(std::move(network)),
      net_(base_),
      policy_(policy),
      // The flatten cost is paid once here; afterwards every net_
      // availability change below is mirrored into the engine as an
      // in-place weight patch, so the two views of the residual state stay
      // equal.
      engine_(std::make_unique<RouteEngine>(net_)),
      base_pairs_(net_.total_link_wavelengths()),
      link_failed_(net_.num_links(), 0) {}

RouteResult SessionManager::first_fit_route(NodeId source,
                                            NodeId target) const {
  // Classic first-fit: BFS a hop-shortest route over links that still
  // carry at least one wavelength, then take the smallest wavelength free
  // on every link of that route.  One route attempt only.
  RouteResult result;
  result.found = false;
  result.cost = kInfiniteCost;

  const std::vector<LinkId> route = bfs_link_path(
      net_.topology(), source, target,
      [this](LinkId e) { return net_.num_available(e) > 0; });
  if (route.empty()) return result;

  // First fit: smallest λ available on every link of the route.
  for (std::uint32_t l = 0; l < net_.num_wavelengths(); ++l) {
    const Wavelength lambda{l};
    const bool free = std::all_of(
        route.begin(), route.end(),
        [&](LinkId e) { return net_.is_available(e, lambda); });
    if (!free) continue;
    Semilightpath path;
    double cost = 0.0;
    for (const LinkId e : route) {
      path.append(Hop{e, lambda});
      cost += net_.link_cost(e, lambda);
    }
    result.found = true;
    result.cost = cost;
    result.path = std::move(path);
    return result;
  }
  return result;  // route exists but no common wavelength: blocked
}

RouteResult SessionManager::route_request(NodeId source, NodeId target) const {
  switch (policy_) {
    case RoutingPolicy::kLightpathFirstFit:
      return first_fit_route(source, target);
    case RoutingPolicy::kSemilightpathEngine:
      return engine_->route_semilightpath(source, target);
    case RoutingPolicy::kLightpathEngine:
      return engine_->route_lightpath(source, target);
  }
  LUMEN_UNREACHABLE();
}

std::optional<SessionId> SessionManager::open(NodeId source, NodeId target) {
  LUMEN_REQUIRE(source.value() < net_.num_nodes());
  LUMEN_REQUIRE(target.value() < net_.num_nodes());
  LUMEN_REQUIRE_MSG(source != target, "a session needs distinct endpoints");
  ++stats_.offered;

  static obs::Counter& offered_counter =
      obs::Registry::global().counter("lumen.rwa.offered");
  static obs::Counter& carried_counter =
      obs::Registry::global().counter("lumen.rwa.carried");
  static obs::Counter& blocked_counter =
      obs::Registry::global().counter("lumen.rwa.blocked");
  static obs::LatencyHistogram& open_latency =
      obs::Registry::global().histogram("lumen.rwa.open_latency_ns");
  offered_counter.add();
  const Stopwatch open_timer;
  // Ambient causal root of the request: the engine query (and, for
  // distributed policies, the whole protocol run) nests under it, and the
  // trace id is stamped onto the request's RouteEvents so the flight
  // recorder can correlate events with spans end-to-end.
  obs::CausalSpan causal_span("rwa.open");
  causal_span.set_node(source.value());
  causal_span.set_attributes(source.value(), target.value());
  current_trace_id_ = causal_span.trace_id();

  const RouteResult route = route_request(source, target);
  if (!route.found) {
    ++stats_.blocked;
    blocked_counter.add();
    open_latency.record_seconds(open_timer.seconds());
    record_event(source, target, route, "blocked");
    maybe_snapshot_metrics();
    return std::nullopt;
  }
  carried_counter.add();
  open_latency.record_seconds(open_timer.seconds());

  SessionRecord record;
  record.id = SessionId{static_cast<std::uint32_t>(next_id_++)};
  record.source = source;
  record.target = target;
  record.active = true;
  reserve(record, route.path, route.cost);

  ++stats_.carried;
  stats_.carried_cost_sum += route.cost;
  ++active_;
  const SessionId id = record.id;
  sessions_.emplace(id, std::move(record));
  // Telemetry last, so a metrics snapshot sees the post-reservation state.
  record_event(source, target, route, "carried");
  maybe_snapshot_metrics();
  return id;
}

void SessionManager::set_telemetry(obs::RouteEventLog* events,
                                   std::uint32_t metrics_every) {
  event_log_ = events;
  metrics_every_ = metrics_every;
}

void SessionManager::record_event(NodeId source, NodeId target,
                                  const RouteResult& route,
                                  const char* outcome) {
  obs::RouteEvent event;
  event.sequence = event_sequence_++;
  event.source = source.value();
  event.target = target.value();
  event.policy = policy_name(policy_);
  event.outcome = outcome;
  // Documented as 0 when no route: kInfiniteCost would serialize as the
  // JSON-invalid token `inf` in the JSONL export.
  event.cost = route.found ? route.cost : 0.0;
  event.hops = static_cast<std::uint32_t>(route.path.length());
  event.conversions = route.path.num_conversions();
  event.aux_nodes = route.stats.aux_nodes;
  event.aux_links = route.stats.aux_links;
  event.relaxations = route.stats.search_relaxations;
  event.heap_pops = route.stats.search_pops;
  event.build_seconds = route.stats.build_seconds;
  event.search_seconds = route.stats.search_seconds;
  event.trace_id = current_trace_id_;
  // Every event is mirrored into the global flight recorder (a bounded
  // ring; record_event is a no-op under LUMEN_OBS_DISABLED) so a triggered dump
  // always holds the recent history even without an attached log.
  obs::FlightRecorder::global().record_event(event);
  if (event_log_ != nullptr) event_log_->append(std::move(event));
}

void SessionManager::update_utilization_gauges() const {
  // Obs-off gauges record nothing: skip the walk over the links.
  if constexpr (!obs::kObsEnabled) return;
  static obs::Gauge& spans_busy_gauge =
      obs::Registry::global().gauge("lumen.rwa.util.spans_busy");
  static obs::Gauge& busy_ratio_gauge =
      obs::Registry::global().gauge("lumen.rwa.util.busy_ratio");
  static obs::Gauge& fragmentation_gauge =
      obs::Registry::global().gauge("lumen.rwa.util.fragmentation");

  std::uint64_t busy_links = 0;
  double ratio_sum = 0.0;
  std::uint32_t ratio_links = 0;
  double frag_sum = 0.0;
  std::uint32_t frag_links = 0;
  for (std::uint32_t ei = 0; ei < net_.num_links(); ++ei) {
    const LinkId e{ei};
    if (link_failed_[ei]) continue;  // a cut span is down, not busy
    const std::uint32_t base = base_.num_available(e);
    if (base == 0) continue;
    const std::uint32_t free = net_.num_available(e);
    const std::uint32_t busy = base > free ? base - free : 0;
    if (busy > 0) ++busy_links;
    ratio_sum += static_cast<double>(busy) / static_cast<double>(base);
    ++ratio_links;
    if (free > 0) {
      // Fragmentation of this link's free spectrum: 0 when the free
      // wavelengths form one contiguous block, approaching 1 as they
      // shatter into single slots (long contiguous runs are what
      // wavelength-continuous lightpaths need).
      std::uint32_t longest = 0;
      std::uint32_t run = 0;
      for (std::uint32_t l = 0; l < net_.num_wavelengths(); ++l) {
        if (net_.is_available(e, Wavelength{l})) {
          ++run;
          longest = std::max(longest, run);
        } else {
          run = 0;
        }
      }
      frag_sum +=
          1.0 - static_cast<double>(longest) / static_cast<double>(free);
      ++frag_links;
    }
  }
  spans_busy_gauge.set(static_cast<double>(busy_links));
  busy_ratio_gauge.set(
      ratio_links == 0 ? 0.0 : ratio_sum / static_cast<double>(ratio_links));
  fragmentation_gauge.set(
      frag_links == 0 ? 0.0 : frag_sum / static_cast<double>(frag_links));
}

void SessionManager::maybe_snapshot_metrics() {
  if (metrics_every_ == 0 || stats_.offered % metrics_every_ != 0) return;
  update_utilization_gauges();
  MetricsSnapshot snapshot;
  snapshot.offered = stats_.offered;
  snapshot.active = active_;
  snapshot.utilization = wavelength_utilization();
  snapshot.metrics = compute_metrics(net_);
  metrics_series_.push_back(snapshot);
}

void SessionManager::reserve(SessionRecord& record, const Semilightpath& path,
                             double cost) {
  record.path = path;
  record.cost = cost;
  for (const Hop& hop : path.hops()) {
    const bool removed = net_.clear_wavelength(hop.link, hop.wavelength);
    LUMEN_ASSERT(removed);
    engine_->reserve(hop.link, hop.wavelength);
    ++reserved_pairs_;
  }
}

void SessionManager::release_resources(const SessionRecord& record) {
  for (const Hop& hop : record.path.hops()) {
    // A failed link's capacity stays down until the span is repaired
    // (mirrored in the engine: its weight stays +inf).
    if (!link_failed_[hop.link.value()]) {
      const double cost = base_.link_cost(hop.link, hop.wavelength);
      net_.set_wavelength(hop.link, hop.wavelength, cost);
      engine_->set_weight(hop.link, hop.wavelength, cost);
    }
    --reserved_pairs_;
  }
}

bool SessionManager::close(SessionId id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end() || !it->second.active) return false;
  SessionRecord& record = it->second;
  release_resources(record);
  record.active = false;
  --active_;
  ++stats_.released;
  return true;
}

bool SessionManager::is_failed(LinkId e) const {
  LUMEN_REQUIRE(e.value() < net_.num_links());
  return link_failed_[e.value()] != 0;
}

SessionManager::FailureReport SessionManager::fail_span(NodeId a, NodeId b) {
  LUMEN_REQUIRE(a.value() < net_.num_nodes());
  LUMEN_REQUIRE(b.value() < net_.num_nodes());
  FailureReport report;

  // Causal root of the repair storm: every reroute attempt (and its
  // engine queries) nests under it, and the rerouted/dropped events carry
  // its trace id.
  obs::CausalSpan fail_span_span("rwa.fail_span");
  fail_span_span.set_node(a.value());
  fail_span_span.set_attributes(a.value(), b.value());
  current_trace_id_ = fail_span_span.trace_id();

  // 1. Take the span's links down (both directions).
  std::vector<char> failing(net_.num_links(), 0);
  for (std::uint32_t ei = 0; ei < net_.num_links(); ++ei) {
    const LinkId e{ei};
    const bool on_span = (net_.tail(e) == a && net_.head(e) == b) ||
                         (net_.tail(e) == b && net_.head(e) == a);
    if (!on_span || link_failed_[ei]) continue;
    failing[ei] = 1;
    link_failed_[ei] = 1;
    ++report.links_failed;
    // Strip any still-free wavelengths from the residual network.  The
    // engine mirrors the whole base set to +inf (idempotent for slots
    // already reserved, which are +inf already).
    for (const LinkWavelength& lw : base_.available(e)) {
      (void)net_.clear_wavelength(e, lw.lambda);
      engine_->set_weight(e, lw.lambda, kInfiniteCost);
    }
  }
  if (report.links_failed == 0) return report;

  // 2. Restore or drop the sessions that crossed it, in ascending id
  // order.  Restoration order matters (earlier sessions grab contested
  // residual capacity first); id order makes it deterministic instead of
  // an accident of the session table's hash layout.
  std::vector<SessionId> hit_ids;
  for (const auto& [id, record] : sessions_) {
    if (!record.active) continue;
    const bool hit = std::any_of(
        record.path.hops().begin(), record.path.hops().end(),
        [&](const Hop& hop) { return failing[hop.link.value()] != 0; });
    if (hit) hit_ids.push_back(id);
  }
  std::sort(hit_ids.begin(), hit_ids.end());
  for (const SessionId id : hit_ids) {
    SessionRecord& record = sessions_.find(id)->second;
    ++report.affected;
    release_resources(record);
    obs::CausalSpan reroute_span("rwa.reroute");
    reroute_span.set_node(record.source.value());
    reroute_span.set_attributes(id.value(), 0);
    const RouteResult reroute = route_request(record.source, record.target);
    if (reroute.found) {
      reserve(record, reroute.path, reroute.cost);
      ++report.rerouted;
      ++stats_.rerouted;
      record_event(record.source, record.target, reroute, "rerouted");
    } else {
      record.active = false;
      --active_;
      ++report.dropped;
      ++stats_.dropped;
      record_event(record.source, record.target, reroute, "dropped");
    }
  }
  return report;
}

std::uint32_t SessionManager::repair_span(NodeId a, NodeId b) {
  LUMEN_REQUIRE(a.value() < net_.num_nodes());
  LUMEN_REQUIRE(b.value() < net_.num_nodes());

  // Early-out: a healthy span (or a nonexistent one) must cost not a
  // single engine weight patch — span timelines replayed through
  // apply_span_state are full of such no-op transitions.
  std::vector<std::uint32_t> repairing;
  for (std::uint32_t ei = 0; ei < net_.num_links(); ++ei) {
    const LinkId e{ei};
    const bool on_span = (net_.tail(e) == a && net_.head(e) == b) ||
                         (net_.tail(e) == b && net_.head(e) == a);
    if (on_span && link_failed_[ei]) repairing.push_back(ei);
  }
  if (repairing.empty()) return 0;

  // No active session crosses a failed link (fail_span moved or dropped
  // them all), so every base wavelength comes back.
  for (const std::uint32_t ei : repairing) {
    const LinkId e{ei};
    link_failed_[ei] = 0;
    for (const LinkWavelength& lw : base_.available(e)) {
      net_.set_wavelength(e, lw.lambda, lw.cost);
      engine_->set_weight(e, lw.lambda, lw.cost);
    }
  }
  return static_cast<std::uint32_t>(repairing.size());
}

SessionManager::FailureReport SessionManager::apply_span_state(NodeId a,
                                                               NodeId b,
                                                               bool down) {
  static obs::Counter& span_events =
      obs::Registry::global().counter("lumen.rwa.span_events");
  static obs::Counter& span_noops =
      obs::Registry::global().counter("lumen.rwa.span_noops");
  span_events.add();
  if (down) {
    const FailureReport report = fail_span(a, b);
    if (report.links_failed == 0) span_noops.add();
    return report;
  }
  if (repair_span(a, b) == 0) span_noops.add();
  return FailureReport{};
}

bool SessionManager::reoptimize(SessionId id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end() || !it->second.active) return false;
  SessionRecord& record = it->second;

  // Free this session's resources so the search can reuse them...
  const Semilightpath old_path = record.path;
  const double old_cost = record.cost;
  release_resources(record);

  const RouteResult better = route_request(record.source, record.target);
  if (better.found && better.cost < old_cost - 1e-12) {
    reserve(record, better.path, better.cost);
    return true;
  }

  // ...otherwise put the old route back exactly (always possible: we just
  // released it, an active route crosses no failed link, and nothing else
  // ran in between).
  reserve(record, old_path, old_cost);
  return false;
}

std::vector<SessionId> SessionManager::active_session_ids() const {
  std::vector<SessionId> ids;
  ids.reserve(active_);
  for (const auto& [id, record] : sessions_) {
    if (record.active) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

const SessionRecord* SessionManager::find(SessionId id) const {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

double SessionManager::wavelength_utilization() const noexcept {
  return base_pairs_ == 0 ? 0.0
                          : static_cast<double>(reserved_pairs_) /
                                static_cast<double>(base_pairs_);
}

}  // namespace lumen
