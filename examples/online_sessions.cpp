// Online session provisioning under Poisson traffic.
//
//   $ ./online_sessions [num_arrivals] [seed] [--metrics out.jsonl]
//
// Sweeps offered load on the ARPANET backbone and compares the three
// routing policies of the RWA engine: greedy first-fit lightpaths,
// optimal lightpaths, and the paper's optimal semilightpaths.  The
// semilightpath column shows how wavelength conversion suppresses
// blocking at moderate loads — the operational payoff of the paper's
// algorithm in the online setting its introduction motivates.
//
// With --metrics <file> every offered request across every (policy, load)
// point is appended to <file> as one JSONL RouteEvent record (schema:
// docs/OBSERVABILITY.md).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>

#include "obs/export.h"
#include "obs/route_event.h"
#include "rwa/dynamic_workload.h"
#include "topo/topologies.h"
#include "topo/wavelengths.h"
#include "util/parse.h"
#include "util/table.h"

using namespace lumen;

namespace {

SessionManager make_manager(RoutingPolicy policy, std::uint64_t seed) {
  constexpr std::uint32_t kWavelengths = 8;
  Rng rng(seed);
  const Topology topo = arpanet_topology();
  const Availability avail =
      full_availability(topo, kWavelengths, CostSpec::distance(10.0), rng);
  return SessionManager(
      assemble_network(topo, kWavelengths, avail,
                       std::make_shared<UniformConversion>(0.5)),
      policy);
}

double blocking_at(RoutingPolicy policy, double load,
                   std::uint32_t num_arrivals, std::uint64_t seed,
                   obs::RouteEventLog* events) {
  auto manager = make_manager(policy, seed);
  if (events != nullptr) manager.set_telemetry(events);
  DynamicWorkloadConfig config;
  config.arrival_rate = load;
  config.mean_holding_time = 1.0;
  config.num_arrivals = num_arrivals;
  config.seed = seed ^ 0x10adULL;
  return run_dynamic_workload(manager, config).stats.blocking_rate();
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off `--metrics <file>` wherever it appears.
  const char* metrics_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics_path = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      break;
    }
  }
  std::uint32_t num_arrivals = 2000;
  std::uint64_t seed = 11;
  if (!parse_positional(argc, argv, num_arrivals, seed)) {
    std::fprintf(stderr,
                 "usage: %s [num_arrivals] [seed] [--metrics out.jsonl]\n",
                 argv[0]);
    return 2;
  }
  obs::RouteEventLog event_log;
  obs::RouteEventLog* events = metrics_path != nullptr ? &event_log : nullptr;

  std::printf("ARPANET (20 nodes, 32 spans), k=8 wavelengths, %u Poisson "
              "arrivals per point\n\n",
              num_arrivals);
  Table table({"offered load (Erlang)", "first-fit lightpath %",
               "optimal lightpath %", "semilightpath %"});
  for (const double load : {20.0, 40.0, 60.0, 80.0, 120.0}) {
    table.add_row(
        {fmt_double(load, 0),
         fmt_double(100 * blocking_at(RoutingPolicy::kLightpathFirstFit, load,
                                      num_arrivals, seed, events),
                    1),
         fmt_double(100 * blocking_at(RoutingPolicy::kLightpathEngine, load,
                                      num_arrivals, seed, events),
                    1),
         fmt_double(100 * blocking_at(RoutingPolicy::kSemilightpathEngine, load,
                                      num_arrivals, seed, events),
                    1)});
  }
  std::printf("%s\nblocking %% per policy; lower is better.\n",
              table.to_markdown().c_str());
  if (events != nullptr) {
    std::ofstream out(metrics_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot open metrics file '%s'\n",
                   metrics_path);
      return 2;
    }
    const auto records = events->snapshot();
    obs::write_route_events_jsonl(out, records);
    std::printf("wrote %zu route events to %s\n", records.size(),
                metrics_path);
  }
  return 0;
}
