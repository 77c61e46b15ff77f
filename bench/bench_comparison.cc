// E2 — Section III-C comparison: Liang–Shen vs Chlamtac–Faragó–Zhang.
//
// Regime: m = 4n (sparse WAN), k = ceil(log2 n).  The paper's analysis:
//   T_LS  = O(k²n + km + kn log kn)  ≈ O(n log² n)
//   T_CFZ = O(k²n + kn²)             ≈ O(n² log n)
// so the ratio should grow like Ω(n / log n) — roughly doubling every time
// n doubles.  The `ratio_vs_LS` counter on each CFZ row reports the
// measured ratio against warm same-input Liang–Shen runs.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "core/cfz.h"
#include "core/liang_shen.h"
#include "util/stopwatch.h"

namespace {

using namespace lumen;

constexpr std::uint64_t kSeed = 20260707;

void BM_LiangShen(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const WdmNetwork net = bench::comparison_network(n, kSeed);
  const NodeId s{0}, t{n / 2};
  double cost = 0;
  std::uint64_t aux_links = 0;
  for (auto _ : state) {
    const RouteResult r = route_semilightpath(net, s, t);
    benchmark::DoNotOptimize(cost = r.cost);
    aux_links = r.stats.aux_links;
  }
  state.counters["n"] = n;
  state.counters["m"] = net.num_links();
  state.counters["k"] = net.num_wavelengths();
  state.counters["aux_links"] = static_cast<double>(aux_links);
}
BENCHMARK(BM_LiangShen)
    ->RangeMultiplier(2)
    ->Range(128, 4096)
    ->Unit(benchmark::kMillisecond);

void BM_CFZ(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const WdmNetwork net = bench::comparison_network(n, kSeed);
  const NodeId s{0}, t{n / 2};

  // LS reference on the identical input for the ratio counter: one
  // warm-up call, then the mean of repeated calls, so first-call effects
  // do not skew the ratio against the BM_LiangShen rows.
  const RouteResult ls = route_semilightpath(net, s, t);
  constexpr int kLsRuns = 5;
  Stopwatch ls_clock;
  for (int i = 0; i < kLsRuns; ++i) {
    const RouteResult warm = route_semilightpath(net, s, t);
    benchmark::DoNotOptimize(warm.cost);
  }
  const double ls_seconds = ls_clock.seconds() / kLsRuns;

  double cost = 0;
  double cfz_seconds = 0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    Stopwatch clock;
    const RouteResult r = cfz_route(net, s, t);
    cfz_seconds += clock.seconds();
    ++runs;
    benchmark::DoNotOptimize(cost = r.cost);
    if (r.found != ls.found ||
        (r.found && std::abs(r.cost - ls.cost) > 1e-6)) {
      state.SkipWithError("CFZ optimum disagrees with Liang–Shen");
      return;
    }
  }
  state.counters["n"] = n;
  state.counters["k"] = net.num_wavelengths();
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
