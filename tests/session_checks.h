// Shared SessionManager checks: per-operation oracles that hold every
// policy to the per-request reference routers and to a rebuilt engine.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/liang_shen.h"
#include "core/route_engine.h"
#include "rwa/session_manager.h"
#include "util/rng.h"

namespace lumen::testing {

/// The manager's live engine must carry exactly the weights a fresh
/// engine built from the current residual network would: reserved and
/// failed slots +inf, free slots at their base cost.
inline void expect_engine_matches_rebuilt(const SessionManager& manager,
                                          const char* where) {
  const RouteEngine& live = manager.engine();
  RouteEngine rebuilt(manager.residual());
  const WdmNetwork& net = manager.residual();
  for (std::uint32_t e = 0; e < net.num_links(); ++e) {
    for (std::uint32_t l = 0; l < net.num_wavelengths(); ++l) {
      EXPECT_EQ(live.weight(LinkId{e}, Wavelength{l}),
                rebuilt.weight(LinkId{e}, Wavelength{l}))
          << where << ": link " << e << " lambda " << l;
    }
  }
}

/// The per-request reference router an engine-policy `manager` must
/// agree with, run on `net`.
inline RouteResult reference_route(const SessionManager& manager,
                                   const WdmNetwork& net, NodeId s,
                                   NodeId t) {
  return manager.policy() == RoutingPolicy::kLightpathEngine
             ? route_lightpath(net, s, t)
             : route_semilightpath(net, s, t);
}

/// Opens (s, t) on an engine-policy `manager`, first asking the
/// per-request reference router on the residual network as it stands just
/// before the call: the open must carry the request exactly when the
/// reference finds a route, at the reference's cost.
inline std::optional<SessionId> open_checked(SessionManager& manager,
                                             NodeId s, NodeId t) {
  const RouteResult reference =
      reference_route(manager, manager.residual(), s, t);
  const std::optional<SessionId> id = manager.open(s, t);
  EXPECT_EQ(id.has_value(), reference.found)
      << s.value() << "->" << t.value();
  if (id.has_value() && reference.found) {
    EXPECT_NEAR(manager.find(*id)->cost, reference.cost, 1e-9)
        << s.value() << "->" << t.value();
  }
  return id;
}

/// Reoptimizes active session `id` on an engine-policy `manager`, first
/// asking the reference router on a copy of residual() with the session's
/// own hops put back at their base costs: the session must move exactly
/// when the reference beats its cost, and then to the reference's cost.
inline bool reoptimize_checked(SessionManager& manager, SessionId id) {
  const SessionRecord& record = *manager.find(id);
  WdmNetwork freed = manager.residual();
  for (const Hop& hop : record.path.hops()) {
    freed.set_wavelength(hop.link, hop.wavelength,
                         manager.base().link_cost(hop.link, hop.wavelength));
  }
  const RouteResult reference =
      reference_route(manager, freed, record.source, record.target);
  const double before = record.cost;
  const bool moved = manager.reoptimize(id);
  EXPECT_EQ(moved, reference.found && reference.cost < before - 1e-12)
      << "session " << id.value();
  EXPECT_NEAR(manager.find(id)->cost, moved ? reference.cost : before, 1e-9)
      << "session " << id.value();
  return moved;
}

/// Fails span a-b on an engine-policy `manager` and replays its
/// restoration against the reference router.  The replay takes residual()
/// just before the call and downs the span's healthy links.  Then, in
/// ascending id order like fail_span, each session that crossed the span
/// frees its healthy hops at their base() costs, the reference routes it,
/// and the replay claims the route the manager chose.  A session must
/// survive exactly when the reference finds a route, at the reference's
/// cost; the report must count the same sessions, and the replay must end
/// at residual().
inline SessionManager::FailureReport fail_span_checked(SessionManager& manager,
                                                       NodeId a, NodeId b) {
  WdmNetwork replay = manager.residual();
  std::vector<char> down(replay.num_links(), 0);
  for (std::uint32_t ei = 0; ei < replay.num_links(); ++ei) {
    const LinkId e{ei};
    const bool on_span = (replay.tail(e) == a && replay.head(e) == b) ||
                         (replay.tail(e) == b && replay.head(e) == a);
    if (!on_span || manager.is_failed(e)) continue;
    down[ei] = 1;
    for (std::uint32_t l = 0; l < replay.num_wavelengths(); ++l) {
      (void)replay.clear_wavelength(e, Wavelength{l});
    }
  }
  struct Hit {
    SessionId id;
    std::vector<Hop> hops;
  };
  std::vector<Hit> hits;
  for (const SessionId id : manager.active_session_ids()) {
    const SessionRecord& record = *manager.find(id);
    for (const Hop& hop : record.path.hops()) {
      if (down[hop.link.value()] == 0) continue;
      hits.push_back({id, record.path.hops()});
      break;
    }
  }

  const SessionManager::FailureReport report = manager.fail_span(a, b);
  EXPECT_EQ(report.affected, hits.size());
  std::uint32_t rerouted = 0;
  for (const Hit& hit : hits) {
    for (const Hop& hop : hit.hops) {
      if (down[hop.link.value()] != 0) continue;
      replay.set_wavelength(hop.link, hop.wavelength,
                            manager.base().link_cost(hop.link, hop.wavelength));
    }
    const SessionRecord& record = *manager.find(hit.id);
    const RouteResult reference =
        reference_route(manager, replay, record.source, record.target);
    EXPECT_EQ(record.active, reference.found) << "session " << hit.id.value();
    if (!record.active || !reference.found) continue;
    ++rerouted;
    EXPECT_NEAR(record.cost, reference.cost, 1e-9)
        << "session " << hit.id.value();
    for (const Hop& hop : record.path.hops()) {
      EXPECT_TRUE(replay.clear_wavelength(hop.link, hop.wavelength))
          << "session " << hit.id.value();
    }
  }
  EXPECT_EQ(report.rerouted, rerouted);
  EXPECT_EQ(report.dropped, report.affected - rerouted);
  for (std::uint32_t e = 0; e < replay.num_links(); ++e) {
    for (std::uint32_t l = 0; l < replay.num_wavelengths(); ++l) {
      EXPECT_EQ(replay.is_available(LinkId{e}, Wavelength{l}),
                manager.residual().is_available(LinkId{e}, Wavelength{l}))
          << "link " << e << " lambda " << l;
    }
  }
  return report;
}

/// Drives one kSemilightpathEngine manager through a tape of opens,
/// closes and one span failure (checked by fail_span_checked) and repair.
/// Before every open, the manager's live (patched) engine answers the
/// request flat and goal-directed (ALT), and a fresh engine rebuilt from
/// residual() answers it goal-directed: all three must agree exactly, and
/// the open must carry the request at that cost exactly when they found
/// a route.
inline void run_policy_parity_tape(const WdmNetwork& net,
                                   std::uint64_t seed) {
  SessionManager manager(net, RoutingPolicy::kSemilightpathEngine);
  const RouteEngine& live = manager.engine();
  const auto n = net.num_nodes();
  SearchScratch scratch;
  std::vector<SessionId> open_sessions;
  Rng workload(seed);
  for (int step = 0; step < 200; ++step) {
    if (step == 80) {
      const NodeId a{static_cast<std::uint32_t>(workload.next_below(n))};
      const NodeId b{static_cast<std::uint32_t>(workload.next_below(n))};
      (void)fail_span_checked(manager, a, b);
    }
    if (step == 140) {
      const NodeId a{static_cast<std::uint32_t>(workload.next_below(n))};
      const NodeId b{static_cast<std::uint32_t>(workload.next_below(n))};
      manager.repair_span(a, b);
    }
    if (!open_sessions.empty() && workload.next_bool(0.3)) {
      const std::size_t i = workload.next_below(open_sessions.size());
      (void)manager.close(open_sessions[i]);
      open_sessions.erase(open_sessions.begin() +
                          static_cast<std::ptrdiff_t>(i));
      continue;
    }
    const auto s = static_cast<std::uint32_t>(workload.next_below(n));
    auto t = static_cast<std::uint32_t>(workload.next_below(n));
    if (s == t) t = (t + 1) % n;

    const RouteResult flat =
        live.route_semilightpath(NodeId{s}, NodeId{t}, scratch);
    const RouteResult alt = live.route_semilightpath(
        NodeId{s}, NodeId{t}, scratch,
        RouteEngine::QueryOptions{.goal_directed = true});
    RouteEngine rebuilt(manager.residual());
    const RouteResult fresh = rebuilt.route_semilightpath(
        NodeId{s}, NodeId{t},
        RouteEngine::QueryOptions{.goal_directed = true});
    ASSERT_EQ(flat.found, alt.found) << "step=" << step;
    ASSERT_EQ(flat.found, fresh.found) << "step=" << step;
    if (flat.found) {
      EXPECT_EQ(flat.cost, alt.cost) << "step=" << step;
      EXPECT_EQ(flat.cost, fresh.cost) << "step=" << step;
    }

    const auto id = manager.open(NodeId{s}, NodeId{t});
    ASSERT_EQ(id.has_value(), flat.found) << "step=" << step;
    if (id) {
      EXPECT_EQ(manager.find(*id)->cost, flat.cost) << "step=" << step;
      open_sessions.push_back(*id);
    }
  }
  EXPECT_GT(manager.stats().carried, 0u);
}

}  // namespace lumen::testing
