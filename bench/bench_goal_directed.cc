// E17 (extension) — goal-directed search ablations.
//
// Theorem 1 is a single-pair query answered by an SSSP run that settles
// the whole auxiliary graph.  RouteEngine + QueryOptions{goal_directed}
// prunes that work: A* over the build-once flattened core with the
// engine's shared per-target reverse-Dijkstra potential rows (each capped
// at a pop budget).  The ALT series max-combine 8 landmark bounds into
// it, so they build the engine with num_landmarks = 8; the target-only
// series uses the default landmark-free engine.
//
// BM_PlainDijkstraRoute is the per-request reference (G_{s,t} build plus
// heap Dijkstra).  The engine series isolate the search cost
// (construction is amortized outside the loop) at low load (pristine
// residual) and high load (~half the (link, λ) pairs reserved, where +inf
// patches erode the pruning).  They repeat one (s, t), so every timed
// query reads a row already expanded in its scratch; the scattered series
// (BM_EngineAstarColdRow / SharedRow) walk a new target every query, as
// svc admissions do, and time the row's first touch against a read of the
// published row.  Every engine series is verified in-bench to return the
// engine's plain-Dijkstra optimum.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/liang_shen.h"
#include "core/route_engine.h"

namespace {

using namespace lumen;

constexpr std::uint64_t kSeed = 13579;

constexpr RouteEngine::QueryOptions kAlt{.goal_directed = true};
constexpr RouteEngine::Options kNoLandmarks{.num_landmarks = 0};
constexpr RouteEngine::Options kLandmarks{.num_landmarks = 8};

/// Reserves ~`fraction` of the engine's (link, λ) slots, mirroring a
/// loaded residual network.  Deterministic in `seed`.
void load_engine(RouteEngine& engine, const WdmNetwork& net, double fraction,
                 std::uint64_t seed) {
  Rng rng(seed);
  for (std::uint32_t ei = 0; ei < net.num_links(); ++ei) {
    const LinkId e{ei};
    for (const auto& lw : net.available(e)) {
      if (rng.next_bool(fraction)) (void)engine.reserve(e, lw.lambda);
    }
  }
}

void BM_PlainDijkstraRoute(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const WdmNetwork net = bench::comparison_network(n, kSeed);
  std::uint64_t pops = 0;
  for (auto _ : state) {
    const RouteResult r = route_semilightpath(net, NodeId{0}, NodeId{n / 2});
    pops = r.stats.search_pops;
    benchmark::DoNotOptimize(r.cost);
  }
  state.counters["search_pops"] = static_cast<double>(pops);
}
BENCHMARK(BM_PlainDijkstraRoute)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMillisecond);

/// Shared engine-series body: routes (0, n/2) under `query` on an engine
/// built with `options` at `load` reserved fraction, verifying against the
/// engine's own uninformed search and exporting pop/settle/prune counters.
void engine_series(benchmark::State& state, const RouteEngine::Options& options,
                   const RouteEngine::QueryOptions& query, double load) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const WdmNetwork net = bench::comparison_network(n, kSeed);
  RouteEngine engine(net, options);
  if (load > 0.0) load_engine(engine, net, load, kSeed ^ 0x10adULL);

  const RouteResult plain = engine.route_semilightpath(NodeId{0}, NodeId{n / 2});
  const RouteResult goal =
      engine.route_semilightpath(NodeId{0}, NodeId{n / 2}, query);
  if (plain.found != goal.found ||
      (plain.found && plain.cost != goal.cost)) {
    state.SkipWithError("goal-directed optimum disagrees with engine Dijkstra");
    return;
  }

  SearchScratch scratch;
  for (auto _ : state) {
    const RouteResult r =
        engine.route_semilightpath(NodeId{0}, NodeId{n / 2}, scratch, query);
    benchmark::DoNotOptimize(r.cost);
  }
  state.counters["search_pops"] = static_cast<double>(goal.stats.search_pops);
  state.counters["search_pruned"] =
      static_cast<double>(goal.stats.search_pruned);
  state.counters["pop_reduction_pct"] =
      plain.stats.search_pops == 0
          ? 0.0
          : 100.0 * (1.0 - static_cast<double>(goal.stats.search_pops) /
                               static_cast<double>(plain.stats.search_pops));
}

void BM_EngineDijkstra(benchmark::State& state) {
  engine_series(state, {}, RouteEngine::QueryOptions{}, 0.0);
}
BENCHMARK(BM_EngineDijkstra)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMicrosecond);

void BM_EngineAstarTargetOnly(benchmark::State& state) {
  engine_series(state, kNoLandmarks, kAlt, 0.0);
}
BENCHMARK(BM_EngineAstarTargetOnly)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMicrosecond);

void BM_EngineAlt(benchmark::State& state) {
  engine_series(state, kLandmarks, kAlt, 0.0);
}
BENCHMARK(BM_EngineAlt)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMicrosecond);

void BM_EngineDijkstraHighLoad(benchmark::State& state) {
  engine_series(state, {}, RouteEngine::QueryOptions{}, 0.5);
}
BENCHMARK(BM_EngineDijkstraHighLoad)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMicrosecond);

void BM_EngineAltHighLoad(benchmark::State& state) {
  engine_series(state, kLandmarks, kAlt, 0.5);
}
BENCHMARK(BM_EngineAltHighLoad)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMicrosecond);

/// Scattered-target series: query i routes pair i of a list whose
/// targets walk a random permutation of every node, from random sources,
/// so no query reuses its scratch's expanded row.  `cold`: every query is
/// its target's first touch in a fresh engine (the engine is rebuilt,
/// untimed, when the list wraps), so it builds and publishes the row;
/// otherwise every row was published before the loop and a query expands
/// the shared row.  Counters are means per query.
void scattered_series(benchmark::State& state, bool cold) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const WdmNetwork net = bench::comparison_network(n, kSeed);
  Rng rng(kSeed ^ 0x5ca7ULL);
  std::vector<std::uint32_t> targets(n);
  std::iota(targets.begin(), targets.end(), 0u);
  for (std::uint32_t i = n; i > 1; --i)
    std::swap(targets[i - 1], targets[rng.next_below(i)]);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const std::uint32_t t : targets) {
    const auto s = static_cast<std::uint32_t>(rng.next_below(n - 1));
    pairs.emplace_back(NodeId{s < t ? s : s + 1}, NodeId{t});
  }

  {
    RouteEngine check(net);
    for (std::size_t i = 0; i < std::min<std::size_t>(32, pairs.size()); ++i) {
      const auto [s, t] = pairs[i];
      const RouteResult plain = check.route_semilightpath(s, t);
      const RouteResult goal = check.route_semilightpath(s, t, kAlt);
      if (plain.found != goal.found ||
          (plain.found && plain.cost != goal.cost)) {
        state.SkipWithError(
            "goal-directed optimum disagrees with engine Dijkstra");
        return;
      }
    }
  }

  auto engine = std::make_unique<RouteEngine>(net);
  SearchScratch scratch;
  if (!cold) {
    for (const auto& [s, t] : pairs)
      (void)engine->route_semilightpath(s, t, scratch, kAlt);
  }
  std::size_t next = 0;
  std::uint64_t queries = 0;
  std::uint64_t potential_pops = 0;
  std::uint64_t search_pops = 0;
  for (auto _ : state) {
    if (next == pairs.size()) {
      next = 0;
      if (cold) {
        state.PauseTiming();
        engine = std::make_unique<RouteEngine>(net);
        state.ResumeTiming();
      }
    }
    const auto [s, t] = pairs[next++];
    const RouteResult r = engine->route_semilightpath(s, t, scratch, kAlt);
    benchmark::DoNotOptimize(r.cost);
    ++queries;
    potential_pops += r.stats.potential_pops;
    search_pops += r.stats.search_pops;
  }
  const double per_query =
      queries == 0 ? 0.0 : 1.0 / static_cast<double>(queries);
  state.counters["potential_pops"] =
      static_cast<double>(potential_pops) * per_query;
  state.counters["search_pops"] = static_cast<double>(search_pops) * per_query;
}

void BM_EngineAstarColdRow(benchmark::State& state) {
  scattered_series(state, true);
}
BENCHMARK(BM_EngineAstarColdRow)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMicrosecond);

void BM_EngineAstarSharedRow(benchmark::State& state) {
  scattered_series(state, false);
}
BENCHMARK(BM_EngineAstarSharedRow)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

LUMEN_BENCH_MAIN();
