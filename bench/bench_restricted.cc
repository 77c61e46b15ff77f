// E4 — Section IV / Theorem 4: with |Λ(e)| <= k_0 fixed, Liang–Shen's
// running time is independent of the universe size k, while CFZ's grows
// with k (its wavelength graph always materializes all k·n nodes and scans
// k·n² node pairs).
//
// Sweep: n = 512, m ≈ 1536, k_0 = 3 fixed; k = 8 … 65,536 for the route,
// 8 … 2^20 for the layout of G' alone.
// Expected shape: the BM_LS_UniverseSweep and BM_CoreLayoutBuild series
// are flat; the BM_CFZ_UniverseSweep series grows superlinearly in k.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "core/aux_graph.h"
#include "core/cfz.h"
#include "core/layout.h"
#include "core/liang_shen.h"

namespace {

using namespace lumen;

constexpr std::uint32_t kN = 512;
constexpr std::uint32_t kK0 = 3;
constexpr std::uint64_t kSeed = 424242;

void BM_LS_UniverseSweep(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const WdmNetwork net = bench::restricted_network(kN, k, kK0, kSeed);
  const NodeId s{0}, t{kN / 2};
  double cost = 0;
  std::uint64_t aux_nodes = 0;
  for (auto _ : state) {
    const RouteResult r = route_semilightpath(net, s, t);
    benchmark::DoNotOptimize(cost = r.cost);
    aux_nodes = r.stats.aux_nodes;
  }
  state.counters["k"] = k;
  state.counters["k0"] = kK0;
  state.counters["aux_nodes"] = static_cast<double>(aux_nodes);
  state.counters["bound_mk0"] =
      static_cast<double>(net.num_links()) * kK0 + 2;
}
BENCHMARK(BM_LS_UniverseSweep)
    ->RangeMultiplier(2)
    ->Range(8, 65536)
    ->Unit(benchmark::kMillisecond);

/// The per-request layout of G' alone: its λ radix sort is sized by |E_M|
/// and the largest λ, never by k, so this series stays flat up to 2^20.
/// Errors out when the layout's size differs from the materialised graph's.
void BM_CoreLayoutBuild(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const WdmNetwork net = bench::restricted_network(kN, k, kK0, kSeed);
  const auto aux =
      AuxiliaryGraph::build_single_pair(net, NodeId{0}, NodeId{kN / 2});
  std::uint32_t nodes = 0;
  std::uint64_t transmissions = 0;
  for (auto _ : state) {
    const CoreLayout layout(net);
    benchmark::DoNotOptimize(nodes = layout.num_nodes());
    transmissions = layout.num_transmissions();
  }
  if (nodes != aux.stats().gadget_nodes ||
      transmissions != aux.stats().transmission_links) {
    state.SkipWithError("CoreLayout size differs from the materialised G'");
    return;
  }
  state.counters["k"] = k;
  state.counters["aux_nodes"] = nodes;
  state.counters["transmissions"] = static_cast<double>(transmissions);
}
BENCHMARK(BM_CoreLayoutBuild)
    ->RangeMultiplier(4)
    ->Range(8, 1 << 20)
    ->Unit(benchmark::kMicrosecond);

void BM_CFZ_UniverseSweep(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const WdmNetwork net = bench::restricted_network(kN, k, kK0, kSeed);
  const NodeId s{0}, t{kN / 2};
  double cost = 0;
  std::uint64_t wg_nodes = 0;
  for (auto _ : state) {
    const RouteResult r = cfz_route(net, s, t);
    benchmark::DoNotOptimize(cost = r.cost);
    wg_nodes = r.stats.aux_nodes;
  }
  state.counters["k"] = k;
  state.counters["wg_nodes_kn"] = static_cast<double>(wg_nodes);
}
// CFZ grows with k by design; cap the sweep at 128 (k = 256 already takes
// >5 s on a laptop because the k·n-node wavelength graph thrashes caches)
// and run each point once.
BENCHMARK(BM_CFZ_UniverseSweep)
    ->RangeMultiplier(2)
    ->Range(8, 128)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/// The same sweep restricted to construction-free search effort: heap pops
/// inside the Liang–Shen Dijkstra must not depend on k either.
void BM_LS_SearchEffort(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const WdmNetwork net = bench::restricted_network(kN, k, kK0, kSeed);
  std::uint64_t pops = 0;
  for (auto _ : state) {
    const RouteResult r = route_semilightpath(net, NodeId{0}, NodeId{kN / 2});
    pops = r.stats.search_pops;
    benchmark::DoNotOptimize(pops);
  }
  state.counters["search_pops"] = static_cast<double>(pops);
}
BENCHMARK(BM_LS_SearchEffort)
    ->RangeMultiplier(4)
    ->Range(8, 1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace

LUMEN_BENCH_MAIN();
