// lumen_top — live terminal view of the obs MetricsPump snapshot stream.
//
//   $ ./lumen_top <snapshot.jsonl> [--interval S] [--once]
//   $ ./lumen_top --collect PORT [--interval S] [--once]
//   $ ./lumen_top --demo [--once] [--serve PORT]
//
// Tail mode follows a JSONL sink written by obs::MetricsPump (see
// PumpOptions::snapshot_path): every refresh it re-reads the file, picks
// the newest snapshot line, and renders counters, window deltas, latency
// summaries, and any alert lines as a refreshing terminal table.  The
// parser is the same flat-JSON reader the exporters use, so lumen_top
// needs no dependencies beyond the lumen libraries themselves.
//
//   --interval S   refresh period in seconds (default 1.0; finite, > 0)
//   --once         render the newest snapshot once and exit (no clearing)
//
// Ports are whole unsigned tokens below 65536; a malformed flag prints
// the usage and exits 2.
//
// Demo mode is a self-contained traffic generator: it drives an online
// RWA workload on the ARPANET backbone, ticks a local MetricsPump with a
// blocking-ratio SLO watchdog attached, and renders each tick's snapshot
// directly — a one-command way to see the whole v2 pipeline (instruments
// → pump → watchdog → flight-recorder dump) without wiring up a real
// deployment.  With --serve PORT it also exposes the live registry as a
// Prometheus text endpoint on 127.0.0.1:PORT.
//
// Collect mode is the UDP twin of tail mode: it binds 127.0.0.1:PORT,
// decodes wire-telemetry frames (src/obs/wire) as a WireExporter on any
// process sends them, and renders each completed snapshot live — no
// shared filesystem required.  A recv quiet period flushes the
// in-progress snapshot so the view never stalls on a lost boundary.
//
// Under LUMEN_OBS_DISABLED everything still compiles and links; the demo
// then renders empty snapshots (the instruments are no-ops) and --serve
// reports that the endpoint is compiled out.  Collect mode keeps
// working — the wire decoder is compiled in both modes.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/flat_json.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_server.h"
#include "obs/registry.h"
#include "obs/slo.h"
#include "obs/wire/wire_decoder.h"
#include "rwa/session_manager.h"
#include "topo/topologies.h"
#include "topo/wavelengths.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/udp.h"

using namespace lumen;

namespace {

struct Options {
  std::string snapshot_path;
  double interval_seconds = 1.0;
  bool once = false;
  bool demo = false;
  int serve_port = -1;    // < 0: no endpoint
  int collect_port = -1;  // < 0: not collecting
};

void usage() {
  std::fprintf(stderr,
               "usage: lumen_top <snapshot.jsonl> [--interval S] [--once]\n"
               "       lumen_top --collect PORT [--interval S] [--once]\n"
               "       lumen_top --demo [--once] [--serve PORT]\n");
}

/// Renders one pump snapshot (plus any trailing alert lines) as tables.
void render(const obs::PumpSnapshot& snapshot,
            const std::vector<std::string>& alert_lines, bool clear_screen) {
  std::string out;
  if (clear_screen) out += "\x1b[2J\x1b[H";
  out += "lumen_top — tick " + std::to_string(snapshot.tick) + ", uptime " +
         fmt_double(snapshot.uptime_seconds, 1) + "s, alerts " +
         std::to_string(snapshot.alerts.size()) + "\n\n";

  // Unlabeled series here; labeled ones feed the pivots below.
  Table counters({"counter", "total", "delta"});
  for (const obs::CounterSeries& s : snapshot.counters)
    if (s.labels.empty())
      counters.add_row({s.name, fmt_int(static_cast<std::int64_t>(s.value)),
                        "+" + std::to_string(s.delta)});
  if (counters.num_rows() != 0) out += counters.to_markdown() + "\n";

  Table gauges({"gauge", "labels", "value"});
  for (const obs::GaugeSeries& s : snapshot.gauges)
    gauges.add_row({s.name, s.labels, fmt_double(s.value, 4)});
  if (gauges.num_rows() != 0) out += gauges.to_markdown() + "\n";

  Table latencies({"histogram", "count", "mean", "p50", "p90", "p99"});
  for (const obs::HistogramSeries& s : snapshot.histograms) {
    if (!s.labels.empty()) continue;
    const obs::HistogramSummary summary = s.data.summary();
    latencies.add_row({s.name,
                       fmt_int(static_cast<std::int64_t>(summary.count)),
                       fmt_sci(summary.mean), fmt_sci(summary.p50),
                       fmt_sci(summary.p90), fmt_sci(summary.p99)});
  }
  if (latencies.num_rows() != 0) out += latencies.to_markdown() + "\n";

  // Per-tenant admission split, pivoted from the labeled svc children.
  struct TenantRow {
    std::uint64_t admitted = 0, blocked = 0, quota_denied = 0;
    double p99 = 0.0;
    std::uint64_t exemplar = 0;
  };
  std::map<std::string, TenantRow> tenants;
  struct ShardRow {
    std::uint64_t conflicts = 0, patches = 0;
  };
  std::map<std::string, ShardRow> shards;
  const auto label_value = [](const std::string& labels,
                              const std::string& key) -> std::string {
    for (const auto& [k, v] : obs::labels_parse(labels))
      if (k == key) return v;
    return {};
  };
  for (const obs::CounterSeries& s : snapshot.counters) {
    const std::string tenant = label_value(s.labels, "tenant");
    if (!tenant.empty()) {
      TenantRow& row = tenants[tenant];
      if (s.name.ends_with(".admitted")) row.admitted += s.value;
      else if (s.name.ends_with(".blocked")) row.blocked += s.value;
      else if (s.name.ends_with(".quota_denied")) row.quota_denied += s.value;
    }
    const std::string shard = label_value(s.labels, "shard");
    if (!shard.empty()) {
      ShardRow& row = shards[shard];
      if (s.name.ends_with(".commit_conflicts")) row.conflicts += s.value;
      else if (s.name.ends_with(".resync_patches")) row.patches += s.value;
    }
  }
  for (const obs::HistogramSeries& s : snapshot.histograms) {
    const std::string tenant = label_value(s.labels, "tenant");
    if (tenant.empty() || s.name.find("admit_latency") == std::string::npos)
      continue;
    TenantRow& row = tenants[tenant];
    row.p99 = s.data.percentile(0.99);
    if (s.data.worst_exemplar() != 0) row.exemplar = s.data.worst_exemplar();
  }
  if (!tenants.empty()) {
    Table table({"tenant", "admitted", "blocked", "quota", "admit p99",
                 "exemplar"});
    for (const auto& [tenant, row] : tenants) {
      char trace[32] = "-";
      if (row.exemplar != 0)
        std::snprintf(trace, sizeof trace, "%016llx",
                      static_cast<unsigned long long>(row.exemplar));
      table.add_row({tenant, fmt_int(static_cast<std::int64_t>(row.admitted)),
                     fmt_int(static_cast<std::int64_t>(row.blocked)),
                     fmt_int(static_cast<std::int64_t>(row.quota_denied)),
                     fmt_sci(row.p99), trace});
    }
    out += table.to_markdown() + "\n";
  }
  if (!shards.empty()) {
    Table table({"shard", "conflicts", "resync patches"});
    for (const auto& [shard, row] : shards)
      table.add_row({shard, fmt_int(static_cast<std::int64_t>(row.conflicts)),
                     fmt_int(static_cast<std::int64_t>(row.patches))});
    out += table.to_markdown() + "\n";
  }

  // Top profiler stages by weighted self time.
  if (!snapshot.profile.empty()) {
    std::vector<const obs::ProfileEntry*> by_self;
    by_self.reserve(snapshot.profile.size());
    for (const obs::ProfileEntry& entry : snapshot.profile)
      by_self.push_back(&entry);
    std::sort(by_self.begin(), by_self.end(),
              [](const obs::ProfileEntry* a, const obs::ProfileEntry* b) {
                return a->self_ns > b->self_ns;
              });
    constexpr std::size_t kTopStages = 12;
    Table table({"profile stack (top by self time)", "samples", "self ns",
                 "total ns"});
    for (std::size_t i = 0; i < by_self.size() && i < kTopStages; ++i)
      table.add_row({by_self[i]->stack,
                     fmt_int(static_cast<std::int64_t>(by_self[i]->samples)),
                     fmt_int(static_cast<std::int64_t>(by_self[i]->self_ns)),
                     fmt_int(static_cast<std::int64_t>(by_self[i]->total_ns))});
    out += table.to_markdown() + "\n";
  }

  for (const obs::AlertEvent& alert : snapshot.alerts) {
    out += (alert.resolved ? "RESOLVED " : "ALERT    ") + alert.rule + ": " +
           alert.metric + " = " + fmt_double(alert.value, 4) +
           " (threshold " + fmt_double(alert.threshold, 4) + ")";
    if (!alert.dump_path.empty()) out += " — dump: " + alert.dump_path;
    out += '\n';
  }
  for (const std::string& line : alert_lines) out += line + '\n';
  if (snapshot.counters.empty() && snapshot.histograms.empty())
    out += "(no instruments in this snapshot)\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

/// Splits "name{labels}" into its parts; labels stays "" when the key
/// carries no brace section (a plain instrument).
void split_labeled(const std::string& key, std::string& name,
                   std::string& labels) {
  const std::size_t brace = key.find('{');
  if (brace == std::string::npos || key.back() != '}') {
    name = key;
    labels.clear();
    return;
  }
  name = key.substr(0, brace);
  labels = key.substr(brace + 1, key.size() - brace - 2);
}

/// Fills `data` from an "h:<key>:buckets" value: sum, min and max, then
/// one "index:count:exemplar" triple per listed bucket.
void parse_buckets(const std::string& text, obs::HistogramData& data) {
  std::istringstream in(text);
  in >> data.sum >> data.min >> data.max;
  int b = 0;
  std::uint64_t count = 0, exemplar = 0;
  char colon = 0;
  while (in >> b >> colon >> count >> colon >> exemplar)
    if (b >= 0 && b < obs::HistogramData::kBuckets) {
      data.buckets[b] = count;
      data.exemplars[b] = exemplar;
    }
}

/// Parses one pump_snapshot_to_json line back into a PumpSnapshot.
/// Key scheme: "tick", "uptime_seconds", "c:<key>", "d:<key>",
/// "g:<key>", "h:<key>:<field>", "p:<stack>:<field>", "alerts", where
/// <key> is a name with "{labels}" appended when labeled.  Histograms
/// rebuild from their ":buckets" field; the other fields derive from it.
obs::PumpSnapshot parse_snapshot_line(const std::string& line,
                                      std::size_t line_no) {
  obs::PumpSnapshot snapshot;
  obs::detail::FlatJsonParser parser(line, line_no);
  parser.parse([&](const std::string& key, const std::string& text,
                   double number, bool is_string) {
    const auto count = static_cast<std::uint64_t>(number);
    const std::size_t colon = key.rfind(':');
    std::string name, labels;
    if (key == "tick") {
      snapshot.tick = count;
    } else if (key == "uptime_seconds") {
      snapshot.uptime_seconds = number;
    } else if (key.starts_with("c:")) {
      split_labeled(key.substr(2), name, labels);
      snapshot.counters.push_back({name, labels, count, 0});
    } else if (key.starts_with("d:")) {
      // The delta key follows its value key.
      split_labeled(key.substr(2), name, labels);
      if (!snapshot.counters.empty() &&
          snapshot.counters.back().name == name &&
          snapshot.counters.back().labels == labels)
        snapshot.counters.back().delta = count;
    } else if (key.starts_with("g:")) {
      split_labeled(key.substr(2), name, labels);
      snapshot.gauges.push_back({name, labels, number});
    } else if (key.starts_with("h:") && is_string &&
               key.substr(colon + 1) == "buckets") {
      split_labeled(key.substr(2, colon - 2), name, labels);
      obs::HistogramSeries& series = snapshot.histograms.emplace_back();
      series.name = name;
      series.labels = labels;
      parse_buckets(text, series.data);
    } else if (key.starts_with("p:")) {
      const std::string stack = key.substr(2, colon - 2);
      const std::string field = key.substr(colon + 1);
      auto& profile = snapshot.profile;
      if (profile.empty() || profile.back().stack != stack) {
        obs::ProfileEntry entry;
        entry.stack = stack;
        profile.push_back(std::move(entry));
      }
      if (field == "n") profile.back().samples = count;
      else if (field == "self") profile.back().self_ns = count;
      else if (field == "total") profile.back().total_ns = count;
    }
  });
  return snapshot;
}

/// Tail mode: newest snapshot line + any alert lines after it.
int run_tail(const Options& options) {
  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  std::uint64_t last_rendered = 0;
  while (true) {
    std::ifstream in(options.snapshot_path);
    if (!in.good()) {
      std::fprintf(stderr, "lumen_top: cannot read %s\n",
                   options.snapshot_path.c_str());
      return 1;
    }
    std::string newest;
    std::size_t newest_line_no = 0;
    std::vector<std::string> alerts_after;
    std::size_t line_no = 0;
    for (std::string line; std::getline(in, line);) {
      ++line_no;
      if (line.empty()) continue;
      if (line.find("\"tick\":") != std::string::npos &&
          line.find("\"alert\":") == std::string::npos) {
        newest = line;
        newest_line_no = line_no;
        alerts_after.clear();
      } else if (line.find("\"alert\":") != std::string::npos) {
        alerts_after.push_back(line);
      }
    }
    if (newest.empty()) {
      std::fprintf(stderr, "lumen_top: no snapshots in %s yet\n",
                   options.snapshot_path.c_str());
      if (options.once) return 1;
    } else {
      const obs::PumpSnapshot snapshot =
          parse_snapshot_line(newest, newest_line_no);
      if (options.once || snapshot.tick != last_rendered) {
        render(snapshot, alerts_after, tty && !options.once);
        last_rendered = snapshot.tick;
      }
    }
    if (options.once) return 0;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options.interval_seconds));
  }
}

/// Collect mode: live UDP tail of a WireExporter's frame stream.
int run_collect(const Options& options) {
  UdpSocket socket(static_cast<std::uint16_t>(options.collect_port));
  if (!socket.ok()) {
    std::fprintf(stderr, "lumen_top: cannot bind UDP 127.0.0.1:%d\n",
                 options.collect_port);
    return 1;
  }
  std::fprintf(stderr, "lumen_top: collecting on 127.0.0.1:%u\n",
               static_cast<unsigned>(socket.port()));
  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  obs::wire::WireDecoder decoder;
  std::vector<std::byte> buffer(65536);
  while (true) {
    const long n = socket.recv(buffer, options.interval_seconds);
    if (n < 0) {
      std::fprintf(stderr, "lumen_top: socket error\n");
      return 1;
    }
    if (n > 0) {
      (void)decoder.decode_frame(std::span<const std::byte>(
          buffer.data(), static_cast<std::size_t>(n)));
    } else {
      // Quiet period: surface the in-progress snapshot rather than wait
      // for the next boundary record (which a lost frame may never bring).
      decoder.flush();
    }
    const std::vector<obs::PumpSnapshot> snapshots = decoder.take_snapshots();
    if (!snapshots.empty()) {
      render(snapshots.back(), {}, tty && !options.once);
      if (options.once) return 0;
    }
  }
}

/// Demo mode: online ARPANET workload + local pump with an SLO watchdog.
int run_demo(const Options& options) {
  constexpr std::uint32_t kWavelengths = 4;
  Rng rng(0x70901ULL);
  const Topology topo = arpanet_topology();
  const Availability avail =
      full_availability(topo, kWavelengths, CostSpec::distance(10.0), rng);
  SessionManager manager(
      assemble_network(topo, kWavelengths, avail,
                       std::make_shared<UniformConversion>(0.5)),
      RoutingPolicy::kSemilightpathEngine);
  const std::uint32_t n = manager.residual().num_nodes();

  obs::SloWatchdog watchdog;
  watchdog.add_rule(obs::SloRule::ratio("blocking", "lumen.rwa.blocked",
                                        "lumen.rwa.offered", 0.2));
  obs::PumpOptions pump_options;
  pump_options.watchdog = &watchdog;
  pump_options.recorder = &obs::FlightRecorder::global();
  pump_options.profiler = &obs::Profiler::global();
  obs::MetricsPump pump(obs::Registry::global(), pump_options);

  std::unique_ptr<obs::MetricsServer> server;
  if (options.serve_port >= 0) {
    server = obs::serve_metrics(static_cast<std::uint16_t>(options.serve_port));
    if (server)
      std::fprintf(stderr, "serving http://127.0.0.1:%u/metrics\n",
                   static_cast<unsigned>(server->port()));
    else
      std::fprintf(stderr, "metrics endpoint unavailable "
                           "(compiled out or bind failed)\n");
  }

  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  std::vector<SessionId> active;
  while (true) {
    // One round of churn: a burst of arrivals, then random departures.
    for (int i = 0; i < 32; ++i) {
      const NodeId s{static_cast<std::uint32_t>(rng.next_below(n))};
      NodeId t{static_cast<std::uint32_t>(rng.next_below(n))};
      while (t == s) t = NodeId{static_cast<std::uint32_t>(rng.next_below(n))};
      if (const auto id = manager.open(s, t)) active.push_back(*id);
    }
    while (active.size() > 64) {
      const std::size_t victim = rng.next_below(active.size());
      (void)manager.close(active[victim]);
      active[victim] = active.back();
      active.pop_back();
    }
    render(pump.tick(), {}, tty && !options.once);
    if (options.once) return 0;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options.interval_seconds));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool bad = false;
  for (int i = 1; i < argc && !bad; ++i) {
    const char* arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(arg, "--once") == 0) {
      options.once = true;
    } else if (std::strcmp(arg, "--demo") == 0) {
      options.demo = true;
    } else if (std::strcmp(arg, "--interval") == 0 && has_value) {
      const auto seconds = parse_seconds(argv[++i]);
      bad = !seconds;
      options.interval_seconds = seconds.value_or(1.0);
    } else if (std::strcmp(arg, "--serve") == 0 && has_value) {
      const auto port = parse_unsigned<std::uint16_t>(argv[++i]);
      bad = !port;
      options.serve_port = port.value_or(0);
    } else if (std::strcmp(arg, "--collect") == 0 && has_value) {
      const auto port = parse_unsigned<std::uint16_t>(argv[++i]);
      bad = !port;
      options.collect_port = port.value_or(0);
    } else if (arg[0] == '-') {
      bad = true;
    } else {
      options.snapshot_path = arg;
    }
  }
  if (bad) {
    usage();
    return 2;
  }
  if (options.demo) return run_demo(options);
  if (options.collect_port >= 0) return run_collect(options);
  if (options.snapshot_path.empty()) {
    usage();
    return 2;
  }
  return run_tail(options);
}
