// E16 — observability overhead: what the v2 causal-tracing stack costs.
//
// Every row is meant to be run twice — once in the default build and once
// with -DLUMEN_OBS_DISABLED=ON (the obs-off preset) — and compared:
//   engine_query        — the routing hot path (ambient CausalSpan + the
//                         registry instruments around each query) on the
//                         E16 workload: 100 nodes, 16 wavelengths
//   session_open_close  — the RWA request path: rwa.open root span, route
//                         spans, flight-recorder event mirror
//   dist_route          — a full sync protocol run with per-round spans
//   causal_span         — one span lifecycle (TLS install + seqlock emit)
//   span_emit           — the lock-free SpanBuffer ring alone
//   pump_tick           — one MetricsPump snapshot + watchdog evaluation
// The acceptance budget is <3% overhead on engine_query; the span
// micro-rows explain where the rest of the time goes.
//
// The v3 rows (BENCH_9) add the dimensional and profiler costs:
// counter_increment vs labeled_counter_increment (the labeled probe must
// stay within 2x of a plain add), profiler_sample (the per-span-close
// cooperative sampling cost), and profiler_snapshot (the read side).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/route_engine.h"
#include "dist/dist_router.h"
#include "obs/flight_recorder.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/slo.h"
#include "obs/span_buffer.h"
#include "obs/trace_context.h"
#include "obs/wire/wire_decoder.h"
#include "obs/wire/wire_encoder.h"
#include "obs/wire/wire_transport.h"
#include "rwa/session_manager.h"

namespace {

using namespace lumen;

constexpr std::uint64_t kSeed = 20260806;
constexpr std::uint32_t kNodes = 100;
constexpr std::uint32_t kWavelengths = 16;
constexpr std::uint32_t kMaxPerLink = 8;

WdmNetwork e16_network() {
  return bench::distributed_network(kNodes, kWavelengths, kMaxPerLink, kSeed);
}

void BM_EngineQuery_HotPath(benchmark::State& state) {
  const WdmNetwork net = e16_network();
  RouteEngine engine(net);
  Rng rng(kSeed);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 64; ++i) {
    const auto s = static_cast<std::uint32_t>(rng.next_below(kNodes));
    auto t = static_cast<std::uint32_t>(rng.next_below(kNodes));
    if (s == t) t = (t + 1) % kNodes;
    pairs.emplace_back(NodeId{s}, NodeId{t});
  }
  std::size_t i = 0;
  std::uint64_t found = 0;
  for (auto _ : state) {
    const auto& [s, t] = pairs[i++ % pairs.size()];
    const RouteResult r = engine.route_semilightpath(s, t);
    found += r.found ? 1 : 0;
    benchmark::DoNotOptimize(r.cost);
  }
  state.counters["found"] = static_cast<double>(found);
  state.counters["obs_enabled"] = LUMEN_OBS_ENABLED;
}
BENCHMARK(BM_EngineQuery_HotPath)->Unit(benchmark::kMicrosecond);

void BM_SessionOpenClose(benchmark::State& state) {
  const WdmNetwork net = e16_network();
  SessionManager manager(net, RoutingPolicy::kSemilightpathEngine);
  Rng rng(kSeed ^ 0xbeefULL);
  for (auto _ : state) {
    const auto s = static_cast<std::uint32_t>(rng.next_below(kNodes));
    auto t = static_cast<std::uint32_t>(rng.next_below(kNodes));
    if (s == t) t = (t + 1) % kNodes;
    if (const auto id = manager.open(NodeId{s}, NodeId{t}))
      (void)manager.close(*id);
  }
  state.counters["blocked"] = static_cast<double>(manager.stats().blocked);
  state.counters["obs_enabled"] = LUMEN_OBS_ENABLED;
}
BENCHMARK(BM_SessionOpenClose)->Unit(benchmark::kMicrosecond);

void BM_DistRoute_SpanPerRound(benchmark::State& state) {
  const WdmNetwork net = e16_network();
  for (auto _ : state) {
    const auto r =
        distributed_route_semilightpath(net, NodeId{0}, NodeId{kNodes / 2});
    benchmark::DoNotOptimize(r.cost);
  }
  state.counters["obs_enabled"] = LUMEN_OBS_ENABLED;
}
BENCHMARK(BM_DistRoute_SpanPerRound)->Unit(benchmark::kMillisecond);

void BM_CausalSpanLifecycle(benchmark::State& state) {
  for (auto _ : state) {
    obs::CausalSpan span("bench.span");
    span.set_node(1);
    span.set_attributes(2, 3);
    benchmark::DoNotOptimize(span.trace_id());
  }
  state.counters["obs_enabled"] = LUMEN_OBS_ENABLED;
}
BENCHMARK(BM_CausalSpanLifecycle);

void BM_SpanEmit(benchmark::State& state) {
  obs::SpanBuffer buffer;
  obs::CausalSpanRecord record{};
  record.trace_id = 7;
  record.span_id = 9;
  for (auto _ : state) {
    buffer.emit(record);
    benchmark::DoNotOptimize(buffer.total_emitted());
  }
  state.counters["obs_enabled"] = LUMEN_OBS_ENABLED;
}
BENCHMARK(BM_SpanEmit);

// --- dimensional instruments (obs v3) ----------------------------------
// The BENCH_9 gate: a labeled child increment (lock-free family probe +
// atomic add) must stay within 2x of the unlabeled counter add.

void BM_CounterIncrement(benchmark::State& state) {
  obs::Counter& counter =
      obs::Registry::global().counter("lumen.bench.plain_counter");
  for (auto _ : state) {
    counter.add();
    benchmark::DoNotOptimize(&counter);
  }
  state.counters["obs_enabled"] = LUMEN_OBS_ENABLED;
}
BENCHMARK(BM_CounterIncrement);

void BM_LabeledCounterIncrement(benchmark::State& state) {
  obs::LabeledFamily<obs::Counter>& family =
      obs::Registry::global().labeled_counter("lumen.bench.labeled_counter");
  const obs::TagSet tags = obs::TagSet{}.tenant(3).shard(1);
  for (auto _ : state) {
    family.at(tags).add();
    benchmark::DoNotOptimize(&family);
  }
  state.counters["children"] = static_cast<double>(family.size());
  state.counters["obs_enabled"] = LUMEN_OBS_ENABLED;
}
BENCHMARK(BM_LabeledCounterIncrement);

// --- always-on profiler -------------------------------------------------
// One cooperative sample boundary (TLS stack push/pop + every period-th
// close writing a seqlock slot); this is the incremental cost the
// profiler adds to every ambient CausalSpan close.

void BM_ProfilerSample(benchmark::State& state) {
  obs::Profiler profiler;
  for (auto _ : state) {
    profiler.on_span_open("bench.stage");
    profiler.on_span_close(1000);
  }
  state.counters["samples"] = static_cast<double>(profiler.total_samples());
  state.counters["obs_enabled"] = LUMEN_OBS_ENABLED;
}
BENCHMARK(BM_ProfilerSample);

void BM_ProfilerSnapshot(benchmark::State& state) {
  obs::Profiler profiler(1024, 1);
  for (int i = 0; i < 1024; ++i) {
    profiler.on_span_open("bench.outer");
    profiler.on_span_open(i % 2 == 0 ? "bench.a" : "bench.b");
    profiler.on_span_close(500);
    profiler.on_span_close(1200);
  }
  for (auto _ : state) {
    const obs::ProfileSnapshot snapshot = profiler.snapshot();
    benchmark::DoNotOptimize(snapshot.entries.size());
  }
  state.counters["obs_enabled"] = LUMEN_OBS_ENABLED;
}
BENCHMARK(BM_ProfilerSnapshot);

void BM_PumpTick(benchmark::State& state) {
  obs::SloWatchdog watchdog;
  watchdog.add_rule(obs::SloRule::ratio("blocking", "lumen.rwa.blocked",
                                        "lumen.rwa.offered", 0.5));
  watchdog.add_rule(obs::SloRule::percentile(
      "open-p99", "lumen.rwa.open_latency_ns", 0.99, 1e9));
  obs::PumpOptions options;
  options.watchdog = &watchdog;
  obs::MetricsPump pump(obs::Registry::global(), options);
  for (auto _ : state) {
    const auto snapshot = pump.tick();
    benchmark::DoNotOptimize(snapshot.tick);
  }
  state.counters["obs_enabled"] = LUMEN_OBS_ENABLED;
}
BENCHMARK(BM_PumpTick);

// --- wire telemetry codec (obs/wire) -----------------------------------
// Encode/decode throughput of the binary export path; unlike the rows
// above these run identical code in both build modes (the codec never
// branches on kObsEnabled), so obs-off numbers should match the default
// build.

obs::PumpSnapshot wire_bench_snapshot() {
  obs::PumpSnapshot snapshot;
  snapshot.tick = 100;
  snapshot.uptime_seconds = 100.0;
  for (int i = 0; i < 32; ++i)
    snapshot.counters.push_back({"lumen.bench.counter_" + std::to_string(i),
                                 "", static_cast<std::uint64_t>(i) * 997,
                                 static_cast<std::uint64_t>(i)});
  for (int i = 0; i < 8; ++i)
    snapshot.gauges.push_back(
        {"lumen.bench.gauge_" + std::to_string(i), "", 0.125 * i});
  // 4096 observations over five buckets, one exemplar in the tail.
  obs::HistogramData data;
  for (int b = 10; b < 15; ++b) data.buckets[b] = 4096 / 5;
  data.buckets[10] += 4096 % 5;
  data.exemplars[14] = 0xfeedbeef;
  data.sum = 4096 * 2500;
  data.min = 600;
  data.max = 16000;
  for (int i = 0; i < 4; ++i)
    snapshot.histograms.push_back(
        {"lumen.bench.hist_" + std::to_string(i), "", data});
  return snapshot;
}

void BM_WireEncodeSnapshot(benchmark::State& state) {
  obs::wire::LoopbackTransport transport;
  obs::wire::WireExporter exporter(transport);
  const obs::PumpSnapshot snapshot = wire_bench_snapshot();
  for (auto _ : state) {
    exporter.export_snapshot(snapshot);
    transport.clear();
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(exporter.stats().bytes_sent));
  state.counters["records_per_snapshot"] =
      static_cast<double>(exporter.stats().records_sent) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_WireEncodeSnapshot)->Unit(benchmark::kMicrosecond);

void BM_WireDecodeSnapshot(benchmark::State& state) {
  obs::wire::LoopbackTransport transport;
  obs::wire::WireExporter exporter(transport);
  exporter.export_snapshot(wire_bench_snapshot());
  std::int64_t bytes = 0;
  obs::wire::WireDecoder decoder;
  for (auto _ : state) {
    for (const auto& frame : transport.frames()) {
      benchmark::DoNotOptimize(decoder.decode_frame(frame));
      bytes += static_cast<std::int64_t>(frame.size());
    }
    benchmark::DoNotOptimize(decoder.take_snapshots());
  }
  state.SetBytesProcessed(bytes);
  state.counters["rejected"] =
      static_cast<double>(decoder.stats().frames_rejected);
}
BENCHMARK(BM_WireDecodeSnapshot)->Unit(benchmark::kMicrosecond);

void BM_WireDecodeMalformed(benchmark::State& state) {
  // Worst-case collector input: frames that fail validation at random
  // depths.  Rejection must stay cheap — a hostile sender may not cost
  // the collector more than a well-behaved one.
  obs::wire::LoopbackTransport transport;
  obs::wire::WireExporter exporter(transport);
  exporter.export_snapshot(wire_bench_snapshot());
  Rng rng(kSeed);
  std::vector<std::vector<std::byte>> mutated;
  for (int i = 0; i < 64; ++i) {
    std::vector<std::byte> frame = transport.frames()[0];
    for (int flip = 0; flip < 4; ++flip)
      frame[rng.next_below(frame.size())] =
          static_cast<std::byte>(rng.next_below(256));
    mutated.push_back(std::move(frame));
  }
  obs::wire::WireDecoder decoder;
  std::int64_t bytes = 0;
  for (auto _ : state) {
    for (const auto& frame : mutated) {
      benchmark::DoNotOptimize(decoder.decode_frame(frame));
      bytes += static_cast<std::int64_t>(frame.size());
    }
    benchmark::DoNotOptimize(decoder.take_snapshots());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_WireDecodeMalformed)->Unit(benchmark::kMicrosecond);

}  // namespace

LUMEN_BENCH_MAIN();
