// E2 — Section III-C comparison: Liang–Shen vs Chlamtac–Faragó–Zhang.
//
// Regime: m = 4n (sparse WAN), k = ceil(log2 n).  The paper's analysis:
//   T_LS  = O(k²n + km + kn log kn)  ≈ O(n log² n)
//   T_CFZ = O(k²n + kn²)             ≈ O(n² log n)
// so the ratio should grow like Ω(n / log n) — roughly doubling every time
// n doubles.  Both series route the same fixed, seeded sample of (s, t)
// pairs, so a row times the whole sample rather than one pair that may sit
// close or far; the `ratio_vs_LS` counter on each CFZ row reports the
// measured ratio against warm same-input Liang–Shen passes.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/cfz.h"
#include "core/liang_shen.h"
#include "topo/wavelengths.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace lumen;

constexpr std::uint64_t kSeed = 20260707;
constexpr std::uint32_t kPairs = 8;

/// E2's demands on an n-node network: kPairs distinct (s, t), s != t.
std::vector<std::pair<NodeId, NodeId>> sample_pairs(std::uint32_t n) {
  Rng rng(kSeed + n);
  return random_demands(n, kPairs, rng);
}

void BM_LiangShen(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const WdmNetwork net = bench::comparison_network(n, kSeed);
  const auto pairs = sample_pairs(n);
  std::uint64_t aux_links = 0;
  for (auto _ : state) {
    aux_links = 0;
    for (const auto& [s, t] : pairs) {
      const RouteResult r = route_semilightpath(net, s, t);
      benchmark::DoNotOptimize(r.cost);
      aux_links += r.stats.aux_links;
    }
  }
  state.counters["n"] = n;
  state.counters["m"] = net.num_links();
  state.counters["k"] = net.num_wavelengths();
  state.counters["pairs"] = kPairs;
  state.counters["aux_links"] = static_cast<double>(aux_links) / kPairs;
}
BENCHMARK(BM_LiangShen)
    ->RangeMultiplier(2)
    ->Range(128, 4096)
    ->Unit(benchmark::kMillisecond);

void BM_CFZ(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const WdmNetwork net = bench::comparison_network(n, kSeed);
  const auto pairs = sample_pairs(n);

  // LS reference on the identical inputs for the optimum check and the
  // ratio counter: one warm-up pass over the sample, then the mean of
  // repeated passes, so first-call effects do not skew the ratio against
  // the BM_LiangShen rows.
  std::vector<RouteResult> ls;
  for (const auto& [s, t] : pairs) ls.push_back(route_semilightpath(net, s, t));
  constexpr int kLsRuns = 5;
  Stopwatch ls_clock;
  for (int i = 0; i < kLsRuns; ++i)
    for (const auto& [s, t] : pairs) {
      const RouteResult warm = route_semilightpath(net, s, t);
      benchmark::DoNotOptimize(warm.cost);
    }
  const double ls_seconds = ls_clock.seconds() / kLsRuns;

  double cfz_seconds = 0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      Stopwatch clock;
      const RouteResult r = cfz_route(net, pairs[i].first, pairs[i].second);
      cfz_seconds += clock.seconds();
      benchmark::DoNotOptimize(r.cost);
      if (r.found != ls[i].found ||
          (r.found && std::abs(r.cost - ls[i].cost) > 1e-6)) {
        state.SkipWithError("CFZ optimum disagrees with Liang–Shen");
        return;
      }
    }
    ++runs;
  }
  state.counters["n"] = n;
  state.counters["k"] = net.num_wavelengths();
  state.counters["pairs"] = kPairs;
  state.counters["ratio_vs_LS"] =
      (cfz_seconds / static_cast<double>(runs)) / std::max(ls_seconds, 1e-9);
  state.counters["pair_scans_kn2"] =
      static_cast<double>(net.num_wavelengths()) * n * n;
}
BENCHMARK(BM_CFZ)
    ->RangeMultiplier(2)
    ->Range(128, 4096)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

LUMEN_BENCH_MAIN();
