#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/liang_shen.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/route_event.h"
#include "obs/span_buffer.h"
#include "obs/trace_assembler.h"
#include "rwa/session_manager.h"
#include "topo/topologies.h"
#include "topo/wavelengths.h"

namespace lumen {
namespace {

/// A tiny chain 0 -> 1 -> 2 with two wavelengths everywhere.
WdmNetwork chain_net() {
  WdmNetwork net(3, 2, std::make_shared<UniformConversion>(0.25));
  for (std::uint32_t i = 0; i < 2; ++i) {
    const LinkId e = net.add_link(NodeId{i}, NodeId{i + 1});
    net.set_wavelength(e, Wavelength{0}, 1.0);
    net.set_wavelength(e, Wavelength{1}, 1.0);
  }
  return net;
}

TEST(SessionTelemetryTest, OneEventPerOfferedRequest) {
  obs::RouteEventLog log;
  SessionManager manager(chain_net(), RoutingPolicy::kSemilightpathEngine);
  manager.set_telemetry(&log);
  ASSERT_TRUE(manager.open(NodeId{0}, NodeId{2}).has_value());
  ASSERT_TRUE(manager.open(NodeId{0}, NodeId{2}).has_value());
  EXPECT_FALSE(manager.open(NodeId{0}, NodeId{2}).has_value());  // full

  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), manager.stats().offered);
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].sequence, i);
    EXPECT_EQ(events[i].source, 0u);
    EXPECT_EQ(events[i].target, 2u);
    EXPECT_EQ(events[i].policy, "semilightpath_engine");
  }
  EXPECT_EQ(events[0].outcome, "carried");
  EXPECT_EQ(events[1].outcome, "carried");
  EXPECT_EQ(events[2].outcome, "blocked");
  // Blocked events report cost 0, never kInfiniteCost — `inf` is not a
  // valid JSON token in the JSONL export.
  EXPECT_DOUBLE_EQ(events[2].cost, 0.0);
  EXPECT_EQ(events[0].hops, 2u);
  EXPECT_GT(events[0].cost, 0.0);
  EXPECT_GT(events[0].aux_nodes, 0u);
  EXPECT_GT(events[0].relaxations, 0u);
}

TEST(SessionTelemetryTest, EventsSurviveJsonlRoundTrip) {
  obs::RouteEventLog log;
  SessionManager manager(chain_net(), RoutingPolicy::kSemilightpathEngine);
  manager.set_telemetry(&log);
  (void)manager.open(NodeId{0}, NodeId{2});
  (void)manager.open(NodeId{0}, NodeId{2});
  (void)manager.open(NodeId{0}, NodeId{2});

  std::stringstream stream;
  obs::write_route_events_jsonl(stream, log.snapshot());
  const auto parsed = obs::read_route_events_jsonl(stream);
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed, log.snapshot());
}

TEST(SessionTelemetryTest, MetricsSeriesSamplesOnPeriod) {
  obs::RouteEventLog log;
  SessionManager manager(chain_net(), RoutingPolicy::kSemilightpathEngine);
  manager.set_telemetry(&log, /*metrics_every=*/2);
  (void)manager.open(NodeId{0}, NodeId{2});  // offered 1: no sample
  (void)manager.open(NodeId{0}, NodeId{2});  // offered 2: sample
  (void)manager.open(NodeId{0}, NodeId{2});  // offered 3 (blocked): no sample
  (void)manager.open(NodeId{0}, NodeId{2});  // offered 4 (blocked): sample

  const auto& series = manager.metrics_series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].offered, 2u);
  EXPECT_EQ(series[1].offered, 4u);
  EXPECT_EQ(series[0].active, 2u);
  EXPECT_DOUBLE_EQ(series[0].utilization, 1.0);  // all 4 pairs reserved
  EXPECT_EQ(series[0].metrics.free_pairs, 0u);
}

TEST(SessionTelemetryTest, SnapshotsWithoutEventLog) {
  SessionManager manager(chain_net(), RoutingPolicy::kSemilightpathEngine);
  manager.set_telemetry(nullptr, /*metrics_every=*/1);
  (void)manager.open(NodeId{0}, NodeId{2});
  EXPECT_EQ(manager.metrics_series().size(), 1u);
}

TEST(SessionTelemetryTest, DetachStopsRecording) {
  obs::RouteEventLog log;
  SessionManager manager(chain_net(), RoutingPolicy::kSemilightpathEngine);
  manager.set_telemetry(&log, 1);
  (void)manager.open(NodeId{0}, NodeId{2});
  manager.set_telemetry(nullptr, 0);
  (void)manager.open(NodeId{0}, NodeId{2});
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(manager.metrics_series().size(), 1u);
}

TEST(SessionTelemetryTest, FailSpanRecordsRerouteOrDropEvents) {
  // Ring gives an alternate route, so a span failure reroutes.
  Rng rng(7);
  const Topology topo = ring_topology(5);
  const Availability avail = full_availability(topo, 2, CostSpec::unit(), rng);
  WdmNetwork net =
      assemble_network(topo, 2, avail, std::make_shared<UniformConversion>(0.1));
  obs::RouteEventLog log;
  SessionManager manager(std::move(net), RoutingPolicy::kSemilightpathEngine);
  manager.set_telemetry(&log);
  const auto id = manager.open(NodeId{0}, NodeId{1});
  ASSERT_TRUE(id.has_value());
  const auto report = manager.fail_span(NodeId{0}, NodeId{1});
  EXPECT_EQ(report.rerouted, 1u);

  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].outcome, "rerouted");
  // Sequence numbers stay strictly increasing across open/fail_span.
  EXPECT_GT(events[1].sequence, events[0].sequence);
}

TEST(SessionTelemetryTest, UtilizationGaugesTrackOccupancyAndFragmentation) {
  // One link, three wavelengths: open/close sessions and pin the
  // wavelength-occupancy gauges at every step.
  WdmNetwork net(2, 3, std::make_shared<UniformConversion>(0.25));
  const LinkId e = net.add_link(NodeId{0}, NodeId{1});
  for (std::uint32_t l = 0; l < 3; ++l)
    net.set_wavelength(e, Wavelength{l}, 1.0);
  SessionManager manager(std::move(net), RoutingPolicy::kSemilightpathEngine);

  const auto gauge = [](const char* name) {
    return obs::Registry::global().gauge(name).value();
  };

  manager.update_utilization_gauges();
  if constexpr (obs::kObsEnabled) {
    EXPECT_EQ(gauge("lumen.rwa.util.spans_busy"), 0.0);
    EXPECT_EQ(gauge("lumen.rwa.util.busy_ratio"), 0.0);
    EXPECT_EQ(gauge("lumen.rwa.util.fragmentation"), 0.0);
  }

  // Fill the link: three sessions claim all three wavelengths, one
  // each.  The assignment order is a routing-policy detail, so map each
  // session to its wavelength by diffing the residual across the open.
  std::vector<std::pair<SessionId, std::uint32_t>> opened;
  for (int i = 0; i < 3; ++i) {
    std::vector<bool> before;
    for (std::uint32_t l = 0; l < 3; ++l)
      before.push_back(
          manager.residual().is_available(LinkId{0}, Wavelength{l}));
    const auto id = manager.open(NodeId{0}, NodeId{1});
    ASSERT_TRUE(id.has_value());
    std::uint32_t claimed = 3;
    for (std::uint32_t l = 0; l < 3; ++l)
      if (before[l] &&
          !manager.residual().is_available(LinkId{0}, Wavelength{l}))
        claimed = l;
    ASSERT_LT(claimed, 3u) << "session did not claim a wavelength";
    opened.emplace_back(*id, claimed);
  }
  manager.update_utilization_gauges();
  if constexpr (obs::kObsEnabled) {
    EXPECT_EQ(gauge("lumen.rwa.util.spans_busy"), 1.0);
    EXPECT_NEAR(gauge("lumen.rwa.util.busy_ratio"), 1.0, 1e-12);
    // No free spectrum at all: fragmentation is defined as 0.
    EXPECT_EQ(gauge("lumen.rwa.util.fragmentation"), 0.0);
  }

  // Close the sessions on the outer wavelengths, keeping wavelength 1
  // busy: free wavelengths {0, 2} are two runs of length one out of two
  // free slots = fragmentation 0.5.
  for (const auto& [id, wavelength] : opened)
    if (wavelength != 1) {
      ASSERT_TRUE(manager.close(id));
    }
  manager.update_utilization_gauges();
  if constexpr (obs::kObsEnabled) {
    EXPECT_EQ(gauge("lumen.rwa.util.spans_busy"), 1.0);
    EXPECT_NEAR(gauge("lumen.rwa.util.busy_ratio"), 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(gauge("lumen.rwa.util.fragmentation"), 0.5, 1e-12);
  } else {
    // Obs-off build: the gauges record nothing and read zero.
    EXPECT_EQ(gauge("lumen.rwa.util.fragmentation"), 0.0);
  }
}

TEST(SessionTelemetryTest, RouteResultCarriesStageTelemetry) {
  // The paper's three phases (build G_{s,t}, Dijkstra, extract the
  // semilightpath) are ambient CausalSpans nested under the route's span.
  obs::SpanBuffer& buffer = obs::SpanBuffer::global();
  buffer.clear();
  const WdmNetwork net = chain_net();
  ASSERT_TRUE(route_semilightpath(net, NodeId{0}, NodeId{2}).found);
  if constexpr (obs::kObsEnabled) {
    const std::vector<obs::CausalSpanRecord> spans = buffer.snapshot();
    const auto route = std::find_if(
        spans.begin(), spans.end(), [](const obs::CausalSpanRecord& span) {
          return std::string_view(span.name) == "route.semilightpath";
        });
    ASSERT_NE(route, spans.end());
    const obs::TraceTree tree = obs::assemble_trace(spans, route->trace_id);
    ASSERT_EQ(tree.roots.size(), 1u);
    const obs::TraceNode& root = tree.roots[0];
    EXPECT_STREQ(root.span.name, "route.semilightpath");
    const char* const stages[] = {"route.aux_build", "route.dijkstra",
                                  "route.path_extract"};
    ASSERT_EQ(root.children.size(), std::size(stages));
    std::uint64_t stage_ns = 0;
    for (std::size_t i = 0; i < std::size(stages); ++i) {
      EXPECT_STREQ(root.children[i].span.name, stages[i]);
      EXPECT_EQ(root.children[i].span.parent_span_id, root.span.span_id);
      EXPECT_TRUE(root.children[i].children.empty());
      stage_ns += root.children[i].span.duration_ns;
    }
    EXPECT_LE(stage_ns, root.span.duration_ns);
  } else {
    // Obs-off build: the router still routes but records no spans.
    EXPECT_TRUE(buffer.snapshot().empty());
  }
}

}  // namespace
}  // namespace lumen
