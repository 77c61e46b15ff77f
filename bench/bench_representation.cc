// E12 (extension) — graph representation ablation: adjacency-list Digraph
// vs packed CSR for the Dijkstra phase of Theorem 1.
//
// The auxiliary graph is built once per query but searched hot; CSR packs
// the out-links contiguously.  Counters report the conversion cost and
// the speedup so the trade-off (snapshot cost vs traversal locality) is
// visible per size.
//
// E8 rides along: the same Dijkstra on G_{s,t} with each in-tree heap
// plugged in (BM_DijkstraOnAux), route_semilightpath's own search with
// each heap (BM_SemilightpathHeap), plus the raw heap push/decrease/pop mix
// (BM_HeapMixedOps).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench/bench_common.h"
#include "core/aux_graph.h"
#include "core/liang_shen.h"
#include "graph/binary_heap.h"
#include "graph/csr.h"
#include "graph/dijkstra.h"
#include "graph/pairing_heap.h"
#include "util/stopwatch.h"

namespace {

using namespace lumen;

constexpr std::uint64_t kSeed = 86420;

void BM_DijkstraAdjList(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const WdmNetwork net = bench::comparison_network(n, kSeed);
  const auto aux =
      AuxiliaryGraph::build_single_pair(net, NodeId{0}, NodeId{n / 2});
  for (auto _ : state) {
    const auto tree = dijkstra(aux.graph(), aux.source_terminal());
    benchmark::DoNotOptimize(tree.dist.back());
  }
  state.counters["aux_links"] = aux.graph().num_links();
}
BENCHMARK(BM_DijkstraAdjList)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMillisecond);

void BM_DijkstraCsr(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const WdmNetwork net = bench::comparison_network(n, kSeed);
  const auto aux =
      AuxiliaryGraph::build_single_pair(net, NodeId{0}, NodeId{n / 2});

  Stopwatch snapshot_clock;
  const CsrDigraph csr(aux.graph());
  const double snapshot_ms = snapshot_clock.millis();

  // Verify equivalence once.
  {
    const auto a = dijkstra(aux.graph(), aux.source_terminal());
    const auto b = dijkstra_csr(csr, aux.source_terminal());
    for (std::uint32_t v = 0; v < csr.num_nodes(); ++v) {
      if (a.dist[v] != b.dist[v]) {
        state.SkipWithError("CSR Dijkstra disagrees with adjacency-list");
        return;
      }
    }
  }

  for (auto _ : state) {
    const auto tree = dijkstra_csr(csr, aux.source_terminal());
    benchmark::DoNotOptimize(tree.dist.back());
  }
  state.counters["snapshot_ms"] = snapshot_ms;
}
BENCHMARK(BM_DijkstraCsr)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMillisecond);

/// E8 heap ablation: Dijkstra over the single-pair auxiliary graph with
/// each in-tree heap plugged in, showing Theorem 1's asymptotic
/// Fibonacci-heap choice versus practical constants.  Keeps the original
/// E8 seed and expander instance so the E8 table stays comparable across
/// captures.
template <class Heap>
void BM_DijkstraOnAux(benchmark::State& state) {
  constexpr std::uint64_t kE8Seed = 5150;
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const WdmNetwork net = bench::comparison_network(n, kE8Seed);
  const auto aux =
      AuxiliaryGraph::build_single_pair(net, NodeId{0}, NodeId{n / 2});
  for (auto _ : state) {
    const auto tree = dijkstra_with<Heap>(aux.graph(), aux.source_terminal());
    benchmark::DoNotOptimize(tree.dist.back());
  }
  state.counters["aux_nodes"] = static_cast<double>(aux.graph().num_nodes());
  state.counters["aux_links"] = static_cast<double>(aux.graph().num_links());
}
BENCHMARK(BM_DijkstraOnAux<FibHeap>)
    ->Name("BM_DijkstraOnAux/Fibonacci")
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DijkstraOnAux<BinaryHeap>)
    ->Name("BM_DijkstraOnAux/Binary")
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DijkstraOnAux<QuaternaryHeap>)
    ->Name("BM_DijkstraOnAux/Quaternary")
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DijkstraOnAux<PairingHeap>)
    ->Name("BM_DijkstraOnAux/Pairing")
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMillisecond);

/// E8 on the router's own search: route_semilightpath with each heap on
/// the BM_DijkstraOnAux instances.  It generates gadget links as X-nodes
/// settle and stops at t'', so `search_ms` (the search alone, without the
/// G_{s,t} layout) is the column that ranks the heaps.
void BM_SemilightpathHeap(benchmark::State& state, HeapKind heap) {
  constexpr std::uint64_t kE8Seed = 5150;
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const WdmNetwork net = bench::comparison_network(n, kE8Seed);
  double search_seconds = 0.0;
  std::uint64_t pops = 0;
  for (auto _ : state) {
    const RouteResult r = route_semilightpath(net, NodeId{0}, NodeId{n / 2},
                                              heap);
    search_seconds += r.stats.search_seconds;
    pops = r.stats.search_pops;
  }
  state.counters["search_ms"] =
      1e3 * search_seconds / static_cast<double>(state.iterations());
  state.counters["pops"] = static_cast<double>(pops);
}
BENCHMARK_CAPTURE(BM_SemilightpathHeap, Fibonacci, HeapKind::kFibonacci)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SemilightpathHeap, Binary, HeapKind::kBinary)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SemilightpathHeap, Quaternary, HeapKind::kQuaternary)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SemilightpathHeap, Pairing, HeapKind::kPairing)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMillisecond);

/// Raw heap micro-bench: a Dijkstra-shaped push/decrease/pop mix (same
/// seed as every earlier E8 capture).
constexpr std::uint64_t kHeapMixSeed = 24680;

template <class Heap>
void BM_HeapMixedOps(benchmark::State& state) {
  const auto ops = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    Heap heap;
    Rng rng(kHeapMixSeed);
    std::vector<typename Heap::Handle> handles;
    std::vector<double> keys;
    handles.reserve(ops);
    for (std::uint32_t i = 0; i < ops; ++i) {
      const double key = rng.next_double_in(0, 1e6);
      handles.push_back(heap.push(key, i));
      keys.push_back(key);
      if (i % 3 == 0 && i > 0) {
        const auto j = static_cast<std::uint32_t>(rng.next_below(i));
        // decrease_key on a possibly-stale handle is guarded by key check.
        if (keys[j] > 0) {
          heap.decrease_key(handles[j], keys[j] * 0.5);
          keys[j] *= 0.5;
        }
      }
      if (i % 4 == 0 && !heap.empty()) {
        const auto [key_popped, item] = heap.pop_min();
        keys[item] = -1;  // mark dead
        benchmark::DoNotOptimize(key_popped);
      }
    }
    benchmark::DoNotOptimize(heap.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * ops);
}
BENCHMARK(BM_HeapMixedOps<FibHeap>)
    ->Name("BM_HeapMixedOps/Fibonacci")
    ->Arg(100000);
BENCHMARK(BM_HeapMixedOps<BinaryHeap>)
    ->Name("BM_HeapMixedOps/Binary")
    ->Arg(100000);
BENCHMARK(BM_HeapMixedOps<QuaternaryHeap>)
    ->Name("BM_HeapMixedOps/Quaternary")
    ->Arg(100000);
BENCHMARK(BM_HeapMixedOps<PairingHeap>)
    ->Name("BM_HeapMixedOps/Pairing")
    ->Arg(100000);

}  // namespace

LUMEN_BENCH_MAIN();
