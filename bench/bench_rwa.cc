// E10 (extension) — online provisioning: blocking vs offered load per
// routing policy, and the sparse-converter ablation.
//
// Two classic WDM results the semilightpath machinery lets us regenerate:
//   1. Conversion suppresses blocking: at equal load the semilightpath
//      policy blocks less than wavelength-continuous lightpath routing
//      (first-fit worst, optimal lightpath in between).
//   2. A few converters go a long way: blocking with converters at a
//      fraction of nodes (SparseConversion) approaches full conversion
//      well before every node is upgraded.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

#include <memory>

#include "obs/route_event.h"
#include "rwa/dynamic_workload.h"
#include "rwa/placement.h"
#include "topo/topologies.h"
#include "topo/wavelengths.h"

namespace {

using namespace lumen;

constexpr std::uint32_t kWavelengths = 8;
constexpr std::uint32_t kArrivals = 1500;
constexpr std::uint64_t kSeed = 2468;

WdmNetwork arpanet_full(std::shared_ptr<const ConversionModel> conv) {
  Rng rng(kSeed);
  const Topology topo = arpanet_topology();
  const Availability avail =
      full_availability(topo, kWavelengths, CostSpec::distance(10.0), rng);
  return assemble_network(topo, kWavelengths, avail, std::move(conv));
}

DynamicWorkloadConfig config_for(double load) {
  DynamicWorkloadConfig config;
  config.arrival_rate = load;
  config.mean_holding_time = 1.0;
  config.num_arrivals = kArrivals;
  config.seed = kSeed ^ 0x10adULL;
  return config;
}

void run_policy(benchmark::State& state, RoutingPolicy policy) {
  const double load = static_cast<double>(state.range(0));
  double blocking = 0.0, utilization = 0.0;
  Percentiles carried_cost(1024);
  for (auto _ : state) {
    obs::RouteEventLog events;
    SessionManager manager(
        arpanet_full(std::make_shared<UniformConversion>(0.5)), policy);
    manager.set_telemetry(&events);
    const auto result = run_dynamic_workload(manager, config_for(load));
    blocking = result.stats.blocking_rate();
    utilization = result.mean_utilization;
    for (const obs::RouteEvent& e : events.snapshot())
      if (e.outcome == "carried") carried_cost.add(e.cost);
    benchmark::DoNotOptimize(blocking);
  }
  state.counters["load_erlang"] = load;
  state.counters["blocking_pct"] = 100.0 * blocking;
  state.counters["utilization_pct"] = 100.0 * utilization;
  bench::export_percentile_counters(state, "carried_cost", carried_cost);
}

void BM_Blocking_FirstFit(benchmark::State& state) {
  run_policy(state, RoutingPolicy::kLightpathFirstFit);
}
void BM_Blocking_OptimalLightpath(benchmark::State& state) {
  run_policy(state, RoutingPolicy::kLightpathEngine);
}
void BM_Blocking_Semilightpath(benchmark::State& state) {
  run_policy(state, RoutingPolicy::kSemilightpathEngine);
}
BENCHMARK(BM_Blocking_FirstFit)
    ->Arg(30)->Arg(60)->Arg(90)->Arg(120)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Blocking_OptimalLightpath)
    ->Arg(30)->Arg(60)->Arg(90)->Arg(120)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Blocking_Semilightpath)
    ->Arg(30)->Arg(60)->Arg(90)->Arg(120)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

/// Sparse-converter ablation at fixed load: converters at the `pct`% of
/// nodes ranked best by betweenness centrality (rwa/placement.h — the
/// natural upgrade order for transit-heavy nodes).
void BM_Blocking_SparseConverters(benchmark::State& state) {
  const auto pct = static_cast<std::uint32_t>(state.range(0));
  const WdmNetwork probe =
      arpanet_full(std::make_shared<NoConversion>());
  const auto conv = place_converters(
      probe, pct * probe.num_nodes() / 100,
      std::make_shared<UniformConversion>(0.5),
      PlacementStrategy::kBetweenness);

  double blocking = 0.0;
  for (auto _ : state) {
    SessionManager manager(arpanet_full(conv),
                           RoutingPolicy::kSemilightpathEngine);
    const auto result = run_dynamic_workload(manager, config_for(90.0));
    blocking = result.stats.blocking_rate();
    benchmark::DoNotOptimize(blocking);
  }
  state.counters["converter_pct"] = pct;
  state.counters["blocking_pct"] = 100.0 * blocking;
}
BENCHMARK(BM_Blocking_SparseConverters)
    ->Arg(0)->Arg(10)->Arg(25)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

LUMEN_BENCH_MAIN();
