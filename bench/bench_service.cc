// E20 — sharded routing-service churn macro-benchmark.
//
// Steady-state Poisson churn against svc::RoutingService: each worker
// thread drives an independent virtual clock with exponential
// inter-arrival and holding times (no sleeps — the virtual clock only
// orders opens against departures), opening sessions through the full
// admission path (quota check, shard route with ALT, two-phase slot
// commit, cross-shard broadcast) and closing them when their holding
// time expires.  The headline counters are route_reserve_per_min (opens
// — each one is a route + reserve attempt; the PR gate demands >= 1M on
// one machine) and admit_ns_p99 (wall-clock admission latency, the
// quantity the svc-admit-p99 SLO rule watches).
//
// Sweeps thread count x shard count on a 64-node sparse WAN.  Every
// seed is fixed, so two runs of the same binary produce the same
// arrival tape; admitted/blocked splits are deterministic for the
// single-threaded configurations.
//
// Reproduce: ./build/bench/bench_service --json out.json
//
// --tenants N (default 2) sets the tenant population; arrivals then
// draw their tenant from a Zipf(s=1) distribution over the N ids, so
// tenant 0 dominates the offered load — the skew that makes the
// per-tenant dimensional telemetry (obs v3) worth watching.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "svc/service.h"
#include "util/parse.h"

namespace {

using namespace lumen;

constexpr std::uint64_t kSeed = 8808;
/// Tenant population (--tenants N); arrivals sample tenants Zipf(s=1).
std::uint32_t g_num_tenants = 2;

/// Zipf(s=1) sampler over tenant ids 0..n-1: P(k) ∝ 1/(k+1), sampled by
/// CDF inversion so one next_double() per arrival picks the tenant.
struct ZipfTenants {
  std::vector<double> cdf;
  explicit ZipfTenants(std::uint32_t n) {
    cdf.resize(n);
    double total = 0.0;
    for (std::uint32_t k = 0; k < n; ++k) total += 1.0 / (k + 1);
    double acc = 0.0;
    for (std::uint32_t k = 0; k < n; ++k) {
      acc += 1.0 / ((k + 1) * total);
      cdf[k] = acc;
    }
    cdf.back() = 1.0;  // guard CDF rounding at the tail
  }
  [[nodiscard]] svc::TenantId sample(Rng& rng) const {
    const double u = rng.next_double();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return svc::TenantId{static_cast<std::uint32_t>(
        std::min<std::size_t>(
            static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1))};
  }
};
// Per-worker offered load: arrival rate x mean holding time ~ 24
// concurrent sessions in steady state, enough to keep slot contention
// and occasional blocking in the mix without collapsing the network.
constexpr double kArrivalRate = 24.0;
constexpr double kMeanHolding = 1.0;

/// One worker's persistent churn state: virtual clock, pending
/// departures, and the sample of wall-clock admit latencies.
struct Worker {
  Rng rng{0};
  double clock = 0.0;
  double next_arrival = 0.0;
  // (virtual departure time, session) — earliest departure first.
  std::priority_queue<std::pair<double, std::uint64_t>,
                      std::vector<std::pair<double, std::uint64_t>>,
                      std::greater<>>
      departures;
  std::uint64_t opens = 0;
  std::uint64_t closes = 0;
  std::uint64_t admitted = 0;
  std::vector<double> admit_ns;
};

double exponential(Rng& rng, double mean) {
  // next_double() is in [0, 1); flip so the log argument stays positive.
  return -mean * std::log(1.0 - rng.next_double());
}

/// Runs `events` churn events on one worker: the next event is whichever
/// of (next Poisson arrival, earliest departure) comes first in virtual
/// time.  Every arrival is a full route+reserve attempt, timed
/// wall-clock around svc::RoutingService::open.
void churn_events(svc::RoutingService& service, Worker& worker,
                  const ZipfTenants& tenants, std::uint32_t num_nodes,
                  std::uint32_t events) {
  for (std::uint32_t i = 0; i < events; ++i) {
    if (!worker.departures.empty() &&
        worker.departures.top().first <= worker.next_arrival) {
      const auto [when, bits] = worker.departures.top();
      worker.departures.pop();
      worker.clock = when;
      if (service.close(svc::SvcSessionId::from_bits(bits))) ++worker.closes;
      continue;
    }
    worker.clock = worker.next_arrival;
    worker.next_arrival += exponential(worker.rng, 1.0 / kArrivalRate);
    const auto s = NodeId{
        static_cast<std::uint32_t>(worker.rng.next_below(num_nodes))};
    auto t = NodeId{
        static_cast<std::uint32_t>(worker.rng.next_below(num_nodes))};
    if (s == t) t = NodeId{(t.value() + 1) % num_nodes};

    const svc::TenantId tenant = tenants.sample(worker.rng);
    const auto begin = std::chrono::steady_clock::now();
    const svc::AdmitTicket ticket = service.open(tenant, s, t);
    const auto end = std::chrono::steady_clock::now();
    worker.admit_ns.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
            .count()));
    ++worker.opens;
    if (ticket.status == svc::AdmitStatus::kAdmitted) {
      ++worker.admitted;
      worker.departures.emplace(
          worker.clock + exponential(worker.rng, kMeanHolding),
          ticket.id.bits());
    }
  }
}

/// The macro-benchmark: threads x shards churn over a 64-node WAN.  The
/// service (and its ALT engine replicas) is built once per run;
/// every iteration continues the steady-state churn, so setup cost
/// never pollutes the throughput numbers.
void run_churn(benchmark::State& state, std::uint32_t threads,
               std::uint32_t shards, std::uint32_t nodes,
               std::uint32_t events_per_thread) {
  const WdmNetwork net = bench::comparison_network(nodes, kSeed);

  svc::ServiceOptions options;
  options.num_shards = shards;
  options.num_tenants = g_num_tenants;
  svc::RoutingService service(net, options);

  std::vector<Worker> workers(threads);
  for (std::uint32_t w = 0; w < threads; ++w) {
    workers[w].rng = Rng(kSeed * 7919 + w);
    workers[w].next_arrival =
        exponential(workers[w].rng, 1.0 / kArrivalRate);
  }

  const ZipfTenants tenants(g_num_tenants);
  double busy_seconds = 0.0;
  for (auto _ : state) {
    const auto begin = std::chrono::steady_clock::now();
    if (threads == 1) {
      churn_events(service, workers[0], tenants, net.num_nodes(),
                   events_per_thread);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(threads);
      for (std::uint32_t w = 0; w < threads; ++w) {
        pool.emplace_back([&, w] {
          churn_events(service, workers[w], tenants, net.num_nodes(),
                       events_per_thread);
        });
      }
      for (std::thread& thread : pool) thread.join();
    }
    busy_seconds += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - begin)
                        .count();
  }

  std::uint64_t opens = 0, closes = 0, admitted = 0;
  Percentiles admit_ns(4096);
  for (Worker& worker : workers) {
    opens += worker.opens;
    closes += worker.closes;
    admitted += worker.admitted;
    for (const double ns : worker.admit_ns) admit_ns.add(ns);
  }
  const svc::ServiceStats stats = service.stats();

  state.SetItemsProcessed(static_cast<std::int64_t>(opens + closes));
  state.counters["route_reserve_per_min"] =
      busy_seconds > 0.0 ? 60.0 * static_cast<double>(opens) / busy_seconds
                         : 0.0;
  state.counters["ops_per_min"] =
      busy_seconds > 0.0
          ? 60.0 * static_cast<double>(opens + closes) / busy_seconds
          : 0.0;
  state.counters["admitted_pct"] =
      opens > 0 ? 100.0 * static_cast<double>(admitted) /
                      static_cast<double>(opens)
                : 0.0;
  state.counters["commit_conflicts"] =
      static_cast<double>(stats.commit_conflicts);
  state.counters["resync_patches"] =
      static_cast<double>(stats.cross_shard_patches);
  state.counters["active_at_end"] = static_cast<double>(stats.active);
  bench::export_percentile_counters(state, "admit_ns", admit_ns);
  // The svc-admit-p99 SLO rule (svc::RoutingService::default_slo_rules)
  // watches the same admission path through the obs histogram; surface
  // whether this run would have tripped the 5 ms budget.
  state.counters["slo_p99_budget_ns"] = 5e6;
  state.counters["slo_p99_ok"] = admit_ns.p99() <= 5e6 ? 1.0 : 0.0;
}

void BM_ServiceChurn(benchmark::State& state) {
  run_churn(state, static_cast<std::uint32_t>(state.range(0)),
            static_cast<std::uint32_t>(state.range(1)), /*nodes=*/64,
            /*events_per_thread=*/4000);
}
BENCHMARK(BM_ServiceChurn)
    ->ArgNames({"threads", "shards"})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({2, 4})
    ->Args({4, 4})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Tiny configuration for the tier-1 smoke test: a 16-node net, one
// worker, a few hundred events — proves the binary links and the whole
// admission path runs in every build configuration in well under a
// second.  Run with --benchmark_filter=Smoke --benchmark_min_time=0.01.
void BM_ServiceChurnSmoke(benchmark::State& state) {
  run_churn(state, /*threads=*/1, /*shards=*/2, /*nodes=*/16,
            /*events_per_thread=*/300);
}
BENCHMARK(BM_ServiceChurnSmoke)->Unit(benchmark::kMillisecond);

}  // namespace

// LUMEN_BENCH_MAIN() with a --tenants N front-end: the flag is consumed
// here (google benchmark would reject it) before the usual --json
// rewrite and benchmark::Initialize.  N must be a whole positive number;
// anything else is a usage error (exit 2).
int main(int argc, char** argv) {
  std::vector<char*> kept;
  kept.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tenants") == 0) {
      const std::optional<std::uint32_t> n =
          i + 1 < argc ? lumen::parse_unsigned<std::uint32_t>(argv[++i])
                       : std::nullopt;
      if (!n || *n == 0) {
        std::fprintf(stderr,
                     "usage: %s [--tenants N>=1] [benchmark flags]\n",
                     argv[0]);
        return 2;
      }
      g_num_tenants = *n;
      continue;
    }
    kept.push_back(argv[i]);
  }
  int kept_argc = static_cast<int>(kept.size());
  char** lumen_argv = lumen::bench::apply_json_flag(kept_argc, kept.data());
  benchmark::Initialize(&kept_argc, lumen_argv);
  if (benchmark::ReportUnrecognizedArguments(kept_argc, lumen_argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
