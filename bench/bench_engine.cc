// E14: build once, route many: the engine's amortization.
//
// Measures the RouteEngine against the per-request routers on the ISSUE's
// reference workload — a 100-node sparse WAN with a 16-wavelength universe
// — in two regimes:
//   * per-request rebuild (route_semilightpath / route_lightpath): every
//     query pays construction + search;
//   * engine single queries: construction amortized away, search only.
// The amortized speedup is the acceptance gate (>= 5x on this workload);
// items_processed makes the per-route rate comparable across regimes.  BM_EngineBuild times the engine construction alone: the
// same build every perfbench workload's setup_s samples.
// BM_EngineSaturatedTarget times a blocked admission's query: every
// in-slot of the target is reserved, so the engine refuses it from the
// endpoint check without a search (arg 0 flat, 1 goal-directed).
#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/liang_shen.h"
#include "core/route_engine.h"

namespace lumen::bench {
namespace {

constexpr std::uint32_t kNodes = 100;
constexpr std::uint32_t kWavelengths = 16;
constexpr std::uint64_t kSeed = 0xe14'5eedULL;

/// The reference workload: 100-node sparse WAN (m = 3n + (n-1) links),
/// 16-λ universe with up to 8 per link, uniform conversion.
WdmNetwork engine_network() {
  Rng rng(kSeed);
  const Topology topo = random_sparse_topology(kNodes, 3 * kNodes, rng);
  const Availability avail = uniform_availability(
      topo, kWavelengths, 2, 8, CostSpec::uniform(1.0, 3.0), rng);
  return assemble_network(topo, kWavelengths, avail,
                          std::make_shared<UniformConversion>(0.3));
}

std::vector<std::pair<NodeId, NodeId>> query_mix(std::size_t count) {
  Rng rng(kSeed ^ 0x9e3779b9ULL);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    const NodeId s{static_cast<std::uint32_t>(rng.next_below(kNodes))};
    const NodeId t{static_cast<std::uint32_t>(rng.next_below(kNodes))};
    if (s != t) pairs.emplace_back(s, t);
  }
  return pairs;
}

void BM_SemilightpathPerRequestRebuild(benchmark::State& state) {
  const WdmNetwork net = engine_network();
  const auto pairs = query_mix(64);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, t] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(route_semilightpath(net, s, t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SemilightpathPerRequestRebuild)->Unit(benchmark::kMicrosecond);

void BM_SemilightpathEngine(benchmark::State& state) {
  const WdmNetwork net = engine_network();
  RouteEngine engine(net);
  const auto pairs = query_mix(64);
  // The engine's core must price every pair as the per-request router
  // does, bit for bit; when it does not, the loop below does not run.
  for (const auto& [s, t] : pairs) {
    if (engine.route_semilightpath(s, t).cost !=
        route_semilightpath(net, s, t).cost) {
      state.SkipWithError("engine optimum disagrees with route_semilightpath");
      break;
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, t] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(engine.route_semilightpath(s, t));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["core_nodes"] =
      static_cast<double>(engine.stats().core_nodes);
  state.counters["core_links"] =
      static_cast<double>(engine.stats().core_links);
  state.counters["build_seconds"] = engine.stats().build_seconds;
}
BENCHMARK(BM_SemilightpathEngine)->Unit(benchmark::kMicrosecond);

void BM_LightpathPerRequestRebuild(benchmark::State& state) {
  const WdmNetwork net = engine_network();
  const auto pairs = query_mix(64);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, t] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(route_lightpath(net, s, t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LightpathPerRequestRebuild)->Unit(benchmark::kMicrosecond);

void BM_LightpathEngine(benchmark::State& state) {
  const WdmNetwork net = engine_network();
  RouteEngine engine(net);
  const auto pairs = query_mix(64);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, t] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(engine.route_lightpath(s, t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LightpathEngine)->Unit(benchmark::kMicrosecond);

void BM_EngineSaturatedTarget(benchmark::State& state) {
  const WdmNetwork net = engine_network();
  RouteEngine engine(net);
  const NodeId t{kNodes / 2};
  for (const LinkId e : net.in_links(t)) {
    for (const LinkWavelength& slot : net.available(e))
      engine.reserve(e, slot.lambda);
  }
  const RouteEngine::QueryOptions query{.goal_directed = state.range(0) != 0};
  std::vector<NodeId> sources;
  for (const auto& [s, unused] : query_mix(64))
    if (s != t) sources.push_back(s);
  // Every query must be refused before it searches; when one is not, the
  // loop below does not run.
  for (const NodeId s : sources) {
    const RouteResult r = engine.route_semilightpath(s, t, query);
    if (r.found || r.stats.search_pops > 0) {
      state.SkipWithError("saturated target was searched or routed");
      break;
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.route_semilightpath(sources[i++ % sources.size()], t, query));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(query.goal_directed ? "goal_directed" : "flat");
}
BENCHMARK(BM_EngineSaturatedTarget)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_EngineBuild(benchmark::State& state) {
  const WdmNetwork net = engine_network();
  for (auto _ : state) {
    RouteEngine engine(net);
    benchmark::DoNotOptimize(engine.stats().core_links);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineBuild)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lumen::bench

LUMEN_BENCH_MAIN();
