// lumen end-to-end benchmark.
//
//   lumen_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--tiny] [--corrupt] [--commit <id>] [--spans-out <file>]
//
// Runs one workload's seeded tape against the library's public API for
// --seconds of wall time, checks the program's outputs, prints every
// metric by name with its unit, and ends with one JSON line:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// --trace 0 reports the end-to-end metrics.  --trace 1 runs the same tape
// twice, untraced and then traced, for half of --seconds each, and reports
// the per-layer metrics of the traced pass (plus the tracing overhead
// between the two).  The exit code is 1 when any correctness check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::PassResult;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload reports in its JSON line.  The
/// tail is gated at p90: on a shared host p99 swings with preemption.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mib", "MiB"},
    {"ops_per_s", "1/s"},       {"admit_p50_us", "us"},
    {"admit_p90_us", "us"},
};

/// End-to-end metrics that are not gated, or that only some workloads
/// have: printed in the table wherever they apply, and carried in the
/// traced JSON line.
constexpr MetricSpec kWorkloadSpecific[] = {
    {"admit_p99_us", "us"},
    {"blocked_pct", "%"},    {"failed_pct", "%"},
    {"restore_p50_us", "us"}, {"restore_p99_us", "us"},
    {"dropped_pct", "%"},    {"ls_vs_cfz_x", "x"},
};

/// Per-layer metrics of the traced pass (0 where a layer is not run).
constexpr MetricSpec kPerLayer[] = {
    {"svc.open_us", "us"},
    {"svc.close_us", "us"},
    {"svc.resync_patches_per_admit", "count"},
    {"svc.conflicts_per_admit", "count"},
    {"svc.cpu_per_wall", "ratio"},
    {"svc.retried_pct", "%"},
    {"core.search_pops_per_admit", "count"},
    {"core.customize_ns_per_admit", "ns"},
    {"core.recustomized_arcs_per_admit", "count"},
    {"core.hierarchy_fallback_pct", "%"},
    {"core.ls_build_us", "us"},
    {"core.ls_search_us", "us"},
    {"core.ls_pops", "count"},
    {"core.cfz_route_us", "us"},
    {"rwa.open_us", "us"},
    {"rwa.close_us", "us"},
    {"rwa.repair_span_us", "us"},
    {"rwa.fail_span_us", "us"},
    {"rwa.rerouted_per_cut", "count"},
    {"rwa.affected_per_cut", "count"},
    {"bench.unattributed_pct", "%"},
    {"bench.trace_overhead_pct", "%"},
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "lumen_perfbench: %s\n"
               "usage: lumen_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--corrupt] "
               "[--commit <id>] [--spans-out <file>]\n",
               problem.c_str());
  std::exit(2);
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

const Metric* find(const std::vector<Metric>& metrics, const char* name) {
  for (const Metric& metric : metrics) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

void print_metric(const char* name, double value, const char* unit,
                  const std::string& note) {
  std::printf("  %-34s %14.4f %-6s %s\n", name, value, unit, note.c_str());
}

/// Prints the spec'd metrics that `metrics` has; with `all`, the missing
/// ones as 0.  Appends them to the JSON object body `json`.
template <std::size_t N>
void emit(const MetricSpec (&specs)[N], const std::vector<Metric>& metrics,
          bool all, bool to_json, std::string& json) {
  for (const MetricSpec& spec : specs) {
    const Metric* metric = find(metrics, spec.name);
    if (metric == nullptr && !all) continue;
    const double value = metric != nullptr ? metric->value : 0.0;
    print_metric(spec.name, value, spec.unit,
                 metric != nullptr ? metric->note : "not run");
    if (!to_json) continue;
    if (!json.empty()) json += ", ";
    json += "\"" + std::string(spec.name) + "\": {\"value\": " +
            json_number(value) + ", \"unit\": \"" + spec.unit + "\"}";
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  std::string commit = "unknown", spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        trace = std::stoi(value());
      } else if (arg == "--tiny") {
        options.tiny = true;
      } else if (arg == "--corrupt") {
        options.corrupt = true;
      } else if (arg == "--commit") {
        commit = value();
      } else if (arg == "--spans-out") {
        spans_out = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::workload_names())
    known = known || name == options.workload;
  if (!known) usage("unknown workload '" + options.workload + "'");
  if (!have_seed || !have_seconds || (trace != 0 && trace != 1))
    usage("--seed, --seconds and --trace 0|1 are required");
  if (!(options.seconds > 0.0 && options.seconds <= 120.0))
    usage("--seconds must be in (0, 120]");

  std::printf(
      "host {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"obs_disabled\": %s, \"commit\": \"%s\"}\n",
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      LUMEN_OBS_ENABLED ? "false" : "true", json_escape(commit).c_str());

  try {
    if (trace == 1) options.seconds /= 2.0;
    PassResult result = perfbench::run_workload(options, /*traced=*/false);
    std::vector<std::string> failures = result.failures;
    std::uint64_t attempted = result.attempted, failed = result.failed;
    std::string json;
    std::printf("workload %s seed %llu, %.3g s window: %s\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, result.describe.c_str());

    if (trace == 0) {
      std::printf("end-to-end metrics:\n");
      emit(kEndToEnd, result.metrics, true, true, json);
      emit(kWorkloadSpecific, result.metrics, false, false, json);
    } else {
      PassResult traced = perfbench::run_workload(options, /*traced=*/true);
      failures.insert(failures.end(), traced.failures.begin(),
                      traced.failures.end());
      attempted += traced.attempted;
      failed += traced.failed;
      const double untraced_ops = result.value("ops_per_s");
      traced.metrics.push_back(
          {"bench.trace_overhead_pct",
           untraced_ops > 0.0
               ? 100.0 * (untraced_ops - traced.value("ops_per_s")) /
                     untraced_ops
               : 0.0,
           "%", "traced vs untraced ops_per_s"});

      std::printf("self time per span (traced pass):\n");
      for (std::size_t i = 0; i < perfbench::kNumSpanNames; ++i) {
        const auto name = static_cast<perfbench::SpanName>(i);
        const perfbench::SpanTotals& totals = traced.trace[name];
        if (totals.count == 0) continue;
        std::printf("  %-26s %-5s %9llu spans %12.2f us/span %7.2f %% of window\n",
                    perfbench::span_name(name), perfbench::span_layer(name),
                    static_cast<unsigned long long>(totals.count),
                    1e-3 * totals.self_ns / static_cast<double>(totals.count),
                    100.0 * totals.self_ns / traced.window_thread_ns);
      }
      std::printf("per-layer metrics (traced pass):\n");
      emit(kWorkloadSpecific, traced.metrics, true, true, json);
      emit(kPerLayer, traced.metrics, true, true, json);
      if (!spans_out.empty() &&
          !perfbench::write_spans(spans_out, traced.spans,
                                  traced.window_start_ns)) {
        std::fprintf(stderr, "could not write spans to %s\n",
                     spans_out.c_str());
      }
    }

    for (const std::string& failure : failures)
      std::printf("check FAILED: %s\n", failure.c_str());
    if (failures.empty()) std::printf("checks: all passed\n");
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {%s}}\n",
        failures.empty() ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed), json.c_str());
    return failures.empty() ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "lumen_perfbench: %s\n", error.what());
    return 1;
  }
}
