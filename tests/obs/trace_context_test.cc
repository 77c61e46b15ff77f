// Causal trace-context propagation: CausalSpan mechanics, the SpanBuffer
// ring, and the exact parent/child linkage of the span trees the distributed routers emit —
// fault-free (a pure relaxation chain down a line network) and under a
// healed FaultPlan (sweeps and the recovery interval as children of the
// run root, everything in one trace).
#include "obs/trace_context.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "dist/async_router.h"
#include "dist/dist_router.h"
#include "dist/distributed_sssp.h"
#include "dist/fault_plan.h"
#include "obs/registry.h"
#include "obs/span_buffer.h"
#include "obs/trace_assembler.h"
#include "tests/obs_test_util.h"
#include "tests/test_util.h"
#include "wdm/conversion.h"
#include "wdm/network.h"

namespace lumen {
namespace {

using obs::CausalSpan;
using obs::CausalSpanRecord;
using obs::SpanBuffer;
using obs::TraceContext;
using obs::TraceNode;
using obs::TraceTree;

/// 0 → 1 → 2 → 3, both wavelengths on every link, cheap conversion.
WdmNetwork line4() {
  WdmNetwork net(4, 2, std::make_shared<UniformConversion>(0.2));
  for (std::uint32_t u = 0; u + 1 < 4; ++u) {
    const LinkId e = net.add_link(NodeId{u}, NodeId{u + 1});
    net.set_wavelength(e, Wavelength{0}, 1.0);
    net.set_wavelength(e, Wavelength{1}, 1.0);
  }
  return net;
}

TEST(CausalSpanTest, AmbientSpansNestViaThreadLocalContext) {
  LUMEN_REQUIRE_OBS();
  SpanBuffer buffer(64);
  std::uint64_t outer_id = 0;
  std::uint64_t trace = 0;
  {
    CausalSpan outer("outer", &buffer);
    trace = outer.trace_id();
    outer_id = outer.span_id();
    EXPECT_NE(trace, 0u);
    EXPECT_EQ(obs::current_trace_context(), outer.context());
    {
      CausalSpan inner("inner", &buffer);
      EXPECT_EQ(inner.trace_id(), trace);
      EXPECT_EQ(obs::current_trace_context(), inner.context());
    }
    // Inner closed: ambient context restored to outer.
    EXPECT_EQ(obs::current_trace_context(), outer.context());
  }
  EXPECT_FALSE(obs::current_trace_context().valid());

  const auto spans = buffer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const TraceTree tree = obs::assemble_trace(spans, trace);
  ASSERT_EQ(tree.roots.size(), 1u);
  EXPECT_STREQ(tree.roots[0].span.name, "outer");
  ASSERT_EQ(tree.roots[0].children.size(), 1u);
  EXPECT_STREQ(tree.roots[0].children[0].span.name, "inner");
  EXPECT_EQ(tree.roots[0].children[0].span.parent_span_id, outer_id);
}

TEST(TraceSpanTest, NestedSpansCarryDepth) {
  // A span's depth is its distance from the root in the assembled tree.
  SpanBuffer buffer(16);
  std::uint64_t trace = 0;
  {
    CausalSpan outer("route.semilightpath", &buffer);
    trace = outer.trace_id();
    {
      CausalSpan build("route.aux_build", &buffer);
      CausalSpan inner("route.dijkstra", &buffer);
    }
    CausalSpan extract("route.path_extract", &buffer);
  }
  if constexpr (obs::kObsEnabled) {
    // Records land innermost-first (close order).
    const auto records = buffer.snapshot();
    ASSERT_EQ(records.size(), 4u);
    EXPECT_STREQ(records[0].name, "route.dijkstra");
    EXPECT_STREQ(records[3].name, "route.semilightpath");
    // The outer span encloses the inner in time.
    EXPECT_LE(records[3].start_ns, records[0].start_ns);
    EXPECT_GE(records[3].start_ns + records[3].duration_ns,
              records[0].start_ns + records[0].duration_ns);

    const TraceTree tree = obs::assemble_trace(records, trace);
    ASSERT_EQ(tree.roots.size(), 1u);
    const TraceNode& root = tree.roots[0];  // depth 0
    EXPECT_STREQ(root.span.name, "route.semilightpath");
    ASSERT_EQ(root.children.size(), 2u);    // depth 1
    EXPECT_STREQ(root.children[0].span.name, "route.aux_build");
    EXPECT_STREQ(root.children[1].span.name, "route.path_extract");
    EXPECT_TRUE(root.children[1].children.empty());
    ASSERT_EQ(root.children[0].children.size(), 1u);  // depth 2
    EXPECT_STREQ(root.children[0].children[0].span.name, "route.dijkstra");
    EXPECT_TRUE(root.children[0].children[0].children.empty());
  }
}

TEST(CausalSpanTest, ExplicitParentDoesNotTouchAmbientContext) {
  LUMEN_REQUIRE_OBS();
  SpanBuffer buffer(64);
  CausalSpan root("root", &buffer);
  {
    CausalSpan child("child", root.context(), &buffer);
    EXPECT_EQ(child.trace_id(), root.trace_id());
    // Explicit-parent spans never install themselves as ambient context.
    EXPECT_EQ(obs::current_trace_context(), root.context());
  }
  // An invalid parent starts a fresh trace.
  CausalSpan fresh("fresh", TraceContext{}, &buffer);
  EXPECT_NE(fresh.trace_id(), 0u);
  EXPECT_NE(fresh.trace_id(), root.trace_id());
}

TEST(CausalSpanTest, ScopedTraceContextAdoptsAndRestores) {
  SpanBuffer buffer(64);
  CausalSpan root("root", &buffer);
  const TraceContext handoff = root.context();
  root.close();
  EXPECT_FALSE(obs::current_trace_context().valid());
  {
    obs::ScopedTraceContext scope(handoff);
    EXPECT_EQ(obs::current_trace_context(), handoff);
    CausalSpan worker("worker", &buffer);
    EXPECT_EQ(worker.trace_id(), handoff.trace_id);
  }
  EXPECT_FALSE(obs::current_trace_context().valid());
}

TEST(CausalSpanTest, RecordCarriesOptionalFields) {
  SpanBuffer buffer(8);
  {
    CausalSpan span("s", &buffer);
    span.set_node(5);
    span.set_virtual_interval(2.0, 7.5);
    span.set_attributes(11, 13);
  }
  if constexpr (obs::kObsEnabled) {
    const auto spans = buffer.snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].node, 5u);
    EXPECT_DOUBLE_EQ(spans[0].vt_begin, 2.0);
    EXPECT_DOUBLE_EQ(spans[0].vt_end, 7.5);
    EXPECT_EQ(spans[0].attr0, 11u);
    EXPECT_EQ(spans[0].attr1, 13u);
  }
}

TEST(SpanBufferTest, RingKeepsNewestAndCountsDrops) {
  LUMEN_REQUIRE_OBS();
  SpanBuffer buffer(4);
  for (std::uint64_t id = 1; id <= 10; ++id) {
    CausalSpanRecord record;
    record.span_id = id;
    record.name = "stage";
    buffer.emit(record);
  }
  EXPECT_EQ(buffer.capacity(), 4u);
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.total_emitted(), 10u);
  EXPECT_EQ(buffer.dropped(), 6u);
  const std::vector<CausalSpanRecord> kept = buffer.snapshot();
  ASSERT_EQ(kept.size(), 4u);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].span_id, 7 + i);  // oldest retained first
  }
  buffer.clear();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.dropped(), 0u);
  EXPECT_TRUE(buffer.snapshot().empty());
}

/// A span whose every word is derived from `v`, so a record mixing two
/// emits shows as words that disagree.
CausalSpanRecord stress_record(std::uint64_t v) {
  static const char* const kNames[4] = {"w0", "w1", "w2", "w3"};
  CausalSpanRecord r;
  r.trace_id = v;
  r.span_id = v;
  r.parent_span_id = v;
  r.name = kNames[v % 4];
  r.node = static_cast<std::uint32_t>(v);
  r.start_ns = v;
  r.duration_ns = v;
  r.vt_begin = static_cast<double>(v);
  r.vt_end = static_cast<double>(v);
  r.attr0 = v;
  r.attr1 = v;
  return r;
}

TEST(SpanBufferTest, LappedWritersNeverTearRecords) {
  LUMEN_REQUIRE_OBS();
  // On a 2-slot ring, tickets t and t + 2 share a slot.  Three writers
  // keep lapping each other; a reader checks every record it copies out.
  constexpr std::uint64_t kWriters = 3;
  constexpr std::uint64_t kEmitsPerWriter = 100000;
  auto& spans_dropped =
      obs::Registry::global().counter("lumen.obs.spans_dropped");
  const std::uint64_t dropped_before = spans_dropped.value();
  SpanBuffer buffer(2);
  std::atomic<std::uint64_t> writers_left{kWriters};
  std::uint64_t checked = 0;
  std::uint64_t torn = 0;
  std::thread reader([&] {
    while (writers_left.load(std::memory_order_acquire) != 0) {
      for (const CausalSpanRecord& r : buffer.snapshot()) {
        ++checked;
        if (r != stress_record(r.trace_id)) ++torn;
      }
    }
  });
  std::vector<std::thread> writers;
  for (std::uint64_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&buffer, &writers_left, w] {
      for (std::uint64_t i = 1; i <= kEmitsPerWriter; ++i)
        buffer.emit(stress_record((w << 32) | i));
      writers_left.fetch_sub(1, std::memory_order_release);
    });
  }
  for (std::thread& t : writers) t.join();
  reader.join();

  EXPECT_EQ(torn, 0u) << "of " << checked << " records read";
  const std::vector<CausalSpanRecord> kept = buffer.snapshot();
  ASSERT_EQ(kept.size(), 2u);
  for (const CausalSpanRecord& r : kept)
    EXPECT_EQ(r, stress_record(r.trace_id));
  // Lapped writers drop their own record, and that drop is counted.
  EXPECT_EQ(buffer.total_emitted(), kWriters * kEmitsPerWriter);
  EXPECT_EQ(buffer.size() + buffer.dropped(), buffer.total_emitted());
  EXPECT_EQ(spans_dropped.value() - dropped_before, buffer.dropped());
}

TEST(DistTraceTest, FaultFreeLineIsOneRelaxationChain) {
  LUMEN_REQUIRE_OBS();
  SpanBuffer::global().clear();
  const WdmNetwork net = line4();
  const DistRouteResult result =
      distributed_route_semilightpath(net, NodeId{0}, NodeId{3});
  ASSERT_TRUE(result.found);
  ASSERT_NE(result.trace_id, 0u);

  const auto spans = SpanBuffer::global().snapshot();
  const TraceTree tree = obs::assemble_trace(spans, result.trace_id);
  EXPECT_EQ(tree.orphans, 0u);
  ASSERT_EQ(tree.roots.size(), 1u);
  const TraceNode& root = tree.roots[0];
  EXPECT_STREQ(root.span.name, "dist.sync.run");
  EXPECT_EQ(root.span.node, 0u);

  // Exactly one useful node-round per downstream node, and the causal
  // chain mirrors the physical line: the offer that wakes node i comes
  // from node i-1's round (node 1's from the run root's seeding).
  const auto rounds = obs::find_spans(tree, "dist.node_round");
  ASSERT_EQ(rounds.size(), 3u);
  ASSERT_EQ(root.children.size(), 1u);
  const TraceNode* node1 = &root.children[0];
  EXPECT_STREQ(node1->span.name, "dist.node_round");
  EXPECT_EQ(node1->span.node, 1u);
  EXPECT_EQ(node1->span.parent_span_id, root.span.span_id);
  ASSERT_EQ(node1->children.size(), 1u);
  const TraceNode* node2 = &node1->children[0];
  EXPECT_EQ(node2->span.node, 2u);
  EXPECT_EQ(node2->span.parent_span_id, node1->span.span_id);
  ASSERT_EQ(node2->children.size(), 1u);
  const TraceNode* node3 = &node2->children[0];
  EXPECT_EQ(node3->span.node, 3u);
  EXPECT_EQ(node3->span.parent_span_id, node2->span.span_id);
  EXPECT_TRUE(node3->children.empty());

  // Virtual time advances one round per hop down the line.
  EXPECT_DOUBLE_EQ(node1->span.vt_begin, 1.0);
  EXPECT_DOUBLE_EQ(node2->span.vt_begin, 2.0);
  EXPECT_DOUBLE_EQ(node3->span.vt_begin, 3.0);

  // No sweeps or recovery in a fault-free run.
  EXPECT_EQ(obs::find_span(tree, "dist.sweep"), nullptr);
  EXPECT_EQ(obs::find_span(tree, "dist.recovery"), nullptr);
}

TEST(DistTraceTest, HealedFaultRunIsOneTreeWithSweepAndRecoveryChildren) {
  LUMEN_REQUIRE_OBS();
  Rng rng(20260806);
  const WdmNetwork net =
      testing::random_network(24, 40, 4, 4, testing::ConvKind::kUniform, rng);

  // Fault-free optimum for comparison (its spans land in another trace).
  const DistRouteResult pristine =
      distributed_route_semilightpath(net, NodeId{0}, NodeId{23});

  SpanBuffer::global().clear();
  FaultPlan plan(97);
  plan.drop_messages(0.3, 6.0).span_down(NodeId{1}, NodeId{2}, 0.0, 4.0);
  const DistRouteResult faulted =
      distributed_route_semilightpath(net, NodeId{0}, NodeId{23}, plan);
  ASSERT_TRUE(faulted.converged);
  EXPECT_EQ(faulted.found, pristine.found);
  if (pristine.found) {
    EXPECT_DOUBLE_EQ(faulted.cost, pristine.cost);
  }
  ASSERT_NE(faulted.trace_id, 0u);
  ASSERT_GE(faulted.retransmit_sweeps, 1u);

  const auto spans = SpanBuffer::global().snapshot();
  // Every span of the run belongs to the one trace: the whole execution —
  // seeding, node rounds, sweeps, recovery — is a single causal tree.
  const TraceTree tree = obs::assemble_trace(spans, faulted.trace_id);
  EXPECT_EQ(tree.orphans, 0u);
  ASSERT_EQ(tree.roots.size(), 1u);
  const TraceNode& root = tree.roots[0];
  EXPECT_STREQ(root.span.name, "dist.sync.run");

  // Each retransmission sweep is timeout-driven, so causally a child of
  // the run root, never of another message.
  const auto sweeps = obs::find_spans(tree, "dist.sweep");
  ASSERT_EQ(sweeps.size(), faulted.retransmit_sweeps);
  for (const TraceNode* sweep : sweeps)
    EXPECT_EQ(sweep->span.parent_span_id, root.span.span_id);

  // The recovery interval (heal horizon → quiescence) hangs off the root
  // and is linked to the triggering plan by its seed attribute.
  const TraceNode* recovery = obs::find_span(tree, "dist.recovery");
  ASSERT_NE(recovery, nullptr);
  EXPECT_EQ(recovery->span.parent_span_id, root.span.span_id);
  EXPECT_DOUBLE_EQ(recovery->span.vt_begin, 6.0);
  EXPECT_GE(recovery->span.vt_end, recovery->span.vt_begin);
  EXPECT_EQ(recovery->span.attr0, plan.seed());
  EXPECT_EQ(recovery->span.attr1, faulted.retransmit_sweeps);

  // The plan's fiber cut is replayed as a child span of the root.
  const TraceNode* cut = obs::find_span(tree, "fault.span_down");
  ASSERT_NE(cut, nullptr);
  EXPECT_EQ(cut->span.parent_span_id, root.span.span_id);
  EXPECT_DOUBLE_EQ(cut->span.vt_begin, 0.0);
  EXPECT_DOUBLE_EQ(cut->span.vt_end, 4.0);
  EXPECT_EQ(cut->span.attr0, 1u);
  EXPECT_EQ(cut->span.attr1, 2u);

  // Node rounds may parent under seeding, another node round, or a sweep
  // — but never float: with zero orphans every parent is in the tree.
  EXPECT_FALSE(obs::find_spans(tree, "dist.node_round").empty());
}

TEST(DistTraceTest, AsyncHealedRunIsOneTree) {
  LUMEN_REQUIRE_OBS();
  Rng rng(7);
  const WdmNetwork net =
      testing::random_network(20, 32, 3, 3, testing::ConvKind::kUniform, rng);
  SpanBuffer::global().clear();

  FaultPlan plan(5);
  plan.drop_messages(0.25, 8.0);
  AsyncOptions options;
  options.faults = &plan;
  const AsyncRouteResult result =
      async_route_semilightpath(net, NodeId{0}, NodeId{19}, 11, options);
  ASSERT_TRUE(result.converged);
  ASSERT_NE(result.trace_id, 0u);

  const TraceTree tree =
      obs::assemble_trace(SpanBuffer::global().snapshot(), result.trace_id);
  EXPECT_EQ(tree.orphans, 0u);
  ASSERT_EQ(tree.roots.size(), 1u);
  EXPECT_STREQ(tree.roots[0].span.name, "dist.async.run");
  for (const TraceNode* sweep : obs::find_spans(tree, "dist.sweep"))
    EXPECT_EQ(sweep->span.parent_span_id, tree.roots[0].span.span_id);
  EXPECT_FALSE(obs::find_spans(tree, "dist.node_event").empty());
}

TEST(DistTraceTest, SsspChainParentsFollowRelaxations) {
  LUMEN_REQUIRE_OBS();
  SpanBuffer::global().clear();
  Digraph g(3);
  g.add_link(NodeId{0}, NodeId{1}, 1.0);
  g.add_link(NodeId{1}, NodeId{2}, 1.0);
  const DistributedSsspResult result = distributed_sssp(g, NodeId{0});
  ASSERT_NE(result.trace_id, 0u);
  EXPECT_DOUBLE_EQ(result.dist[2], 2.0);

  const TraceTree tree =
      obs::assemble_trace(SpanBuffer::global().snapshot(), result.trace_id);
  ASSERT_EQ(tree.roots.size(), 1u);
  EXPECT_STREQ(tree.roots[0].span.name, "dist.sssp.run");
  ASSERT_EQ(tree.roots[0].children.size(), 1u);
  EXPECT_EQ(tree.roots[0].children[0].span.node, 1u);
  ASSERT_EQ(tree.roots[0].children[0].children.size(), 1u);
  EXPECT_EQ(tree.roots[0].children[0].children[0].span.node, 2u);
}

TEST(TraceAssemblerTest, RendersJsonAndText) {
  LUMEN_REQUIRE_OBS();
  SpanBuffer buffer(16);
  std::uint64_t trace = 0;
  {
    CausalSpan root("demo.root", &buffer);
    trace = root.trace_id();
    root.set_node(3);
    CausalSpan child("demo.child", root.context(), &buffer);
    child.set_virtual_interval(1.0, 2.0);
  }
  const TraceTree tree = obs::assemble_trace(buffer.snapshot(), trace);
  const std::string json = obs::trace_tree_to_json(tree);
  EXPECT_NE(json.find("\"demo.root\""), std::string::npos);
  EXPECT_NE(json.find("\"children\":[{"), std::string::npos);
  const std::string text = obs::render_trace_tree(tree);
  EXPECT_NE(text.find("demo.root"), std::string::npos);
  EXPECT_NE(text.find("demo.child"), std::string::npos);
  EXPECT_NE(text.find("vt=[1,2]"), std::string::npos);
}

}  // namespace
}  // namespace lumen
