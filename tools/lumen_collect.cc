// lumen_collect — wire-telemetry collector and re-exporter.
//
//   $ ./lumen_collect --port P [--jsonl FILE] [--prom FILE]
//                     [--frames N] [--idle-exit S] [--quiet]
//   $ ./lumen_collect --selfcheck
//
// Binds 127.0.0.1:P (0 = ephemeral; the bound port is printed to
// stderr), decodes every arriving wire frame (src/obs/wire) back into
// the PumpSnapshot the exporter sent, and re-exports it:
//
//   --jsonl FILE   append one pump_snapshot_to_json line per completed
//                  snapshot, one alert_to_json line per alert, and one
//                  route_event_to_json line per route event ("-" =
//                  stdout).  The same JSONL dialect the MetricsPump
//                  writes locally, so `lumen_top FILE` tails it.
//   --prom FILE    rewrite FILE after every completed snapshot with
//                  obs::prometheus_text of that snapshot — the renderer
//                  behind `/metrics`, native histograms included — plus
//                  the collector's own health as extra counter series
//                  (node_exporter textfile-collector style).
//
// The decoder never trusts the network: malformed or truncated frames
// are counted and dropped (frames_received == accepted + rejected,
// always), data sets that arrive before their template are buffered and
// replayed, and lost frames show up as sequence gaps — re-exported as
// `lumen.obs.wire.gaps`.
//
//   --frames N     exit after N datagrams (tests/bounded captures)
//   --idle-exit S  exit after S seconds with no traffic (S > 0)
//
// Ports and counts are whole unsigned tokens, seconds finite and > 0;
// anything else prints the usage and exits 2.
//
// --selfcheck runs the whole path in-process — exporter → real UDP
// socket → decoder — and verifies the round-trip reproduces the
// snapshot exactly, in its JSONL and its Prometheus rendering; it is
// this binary's smoke test and works in every build mode (the wire
// codec is compiled identically with and without LUMEN_OBS_DISABLED).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/slo.h"
#include "obs/wire/wire_decoder.h"
#include "obs/wire/wire_encoder.h"
#include "obs/wire/wire_transport.h"
#include "util/parse.h"
#include "util/udp.h"

using namespace lumen;

namespace {

struct Options {
  int port = -1;
  std::string jsonl_path;  // "" = off, "-" = stdout
  std::string prom_path;   // "" = off
  std::uint64_t max_frames = 0;  // 0 = unbounded
  double idle_exit_seconds = 0.0;  // 0 = wait forever
  bool quiet = false;
  bool selfcheck = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: lumen_collect --port P [--jsonl FILE] [--prom FILE]\n"
               "                     [--frames N] [--idle-exit S] [--quiet]\n"
               "       lumen_collect --selfcheck\n");
}

/// `snapshot` in Prometheus text, with the collector's health appended
/// as extra counter series.
std::string prometheus_with_health(obs::PumpSnapshot snapshot,
                                   const obs::wire::WireDecoderStats& stats) {
  const auto health = [&](const char* name, std::uint64_t value) {
    snapshot.counters.push_back({name, "", value, 0});
  };
  health("lumen.obs.wire.frames_received", stats.frames_received);
  health("lumen.obs.wire.frames_accepted", stats.frames_accepted);
  health("lumen.obs.wire.frames_rejected", stats.frames_rejected);
  health("lumen.obs.wire.records", stats.records_decoded);
  health("lumen.obs.wire.gaps", stats.sequence_gaps);
  health("lumen.obs.wire.frames_missed", stats.frames_missed);
  health("lumen.obs.wire.buffered_sets", stats.buffered_sets);
  health("lumen.obs.wire.replayed_sets", stats.replayed_sets);
  return obs::prometheus_text(snapshot);
}

/// Re-export sinks shared by the live loop and the final flush.
struct Sinks {
  std::ofstream jsonl_file;
  std::ostream* jsonl = nullptr;  // null = no JSONL sink
  std::string prom_path;
};

void drain(obs::wire::WireDecoder& decoder, Sinks& sinks) {
  const std::vector<obs::PumpSnapshot> snapshots = decoder.take_snapshots();
  const std::vector<obs::RouteEvent> events = decoder.take_route_events();
  if (sinks.jsonl != nullptr) {
    for (const obs::PumpSnapshot& snapshot : snapshots) {
      *sinks.jsonl << obs::pump_snapshot_to_json(snapshot) << '\n';
      for (const obs::AlertEvent& alert : snapshot.alerts)
        *sinks.jsonl << obs::alert_to_json(alert) << '\n';
    }
    for (const obs::RouteEvent& event : events)
      *sinks.jsonl << obs::route_event_to_json(event) << '\n';
    sinks.jsonl->flush();
  }
  if (!sinks.prom_path.empty() && !snapshots.empty()) {
    std::ofstream prom(sinks.prom_path, std::ios::trunc);
    if (prom)
      prom << prometheus_with_health(snapshots.back(), decoder.stats());
  }
}

void report(const obs::wire::WireDecoderStats& stats) {
  std::fprintf(stderr,
               "lumen_collect: frames received=%llu accepted=%llu "
               "rejected=%llu, records=%llu, gaps=%llu (missed=%llu), "
               "buffered=%llu replayed=%llu\n",
               static_cast<unsigned long long>(stats.frames_received),
               static_cast<unsigned long long>(stats.frames_accepted),
               static_cast<unsigned long long>(stats.frames_rejected),
               static_cast<unsigned long long>(stats.records_decoded),
               static_cast<unsigned long long>(stats.sequence_gaps),
               static_cast<unsigned long long>(stats.frames_missed),
               static_cast<unsigned long long>(stats.buffered_sets),
               static_cast<unsigned long long>(stats.replayed_sets));
}

int run_collect(const Options& options) {
  UdpSocket socket(static_cast<std::uint16_t>(options.port));
  if (!socket.ok()) {
    std::fprintf(stderr, "lumen_collect: cannot bind 127.0.0.1:%d\n",
                 options.port);
    return 1;
  }
  if (!options.quiet)
    std::fprintf(stderr, "lumen_collect: listening on 127.0.0.1:%u\n",
                 static_cast<unsigned>(socket.port()));

  Sinks sinks;
  sinks.prom_path = options.prom_path;
  if (options.jsonl_path == "-") {
    sinks.jsonl = &std::cout;
  } else if (!options.jsonl_path.empty()) {
    sinks.jsonl_file.open(options.jsonl_path, std::ios::app);
    if (!sinks.jsonl_file) {
      std::fprintf(stderr, "lumen_collect: cannot open %s\n",
                   options.jsonl_path.c_str());
      return 1;
    }
    sinks.jsonl = &sinks.jsonl_file;
  }

  obs::wire::WireDecoder decoder;
  std::vector<std::byte> buffer(65536);
  std::uint64_t frames = 0;
  double idle_seconds = 0.0;
  constexpr double kPollSeconds = 0.25;
  while (options.max_frames == 0 || frames < options.max_frames) {
    const long n = socket.recv(buffer, kPollSeconds);
    if (n < 0) {
      std::fprintf(stderr, "lumen_collect: socket error\n");
      break;
    }
    if (n == 0) {
      idle_seconds += kPollSeconds;
      if (options.idle_exit_seconds > 0.0 &&
          idle_seconds >= options.idle_exit_seconds)
        break;
      continue;
    }
    idle_seconds = 0.0;
    ++frames;
    (void)decoder.decode_frame(
        std::span<const std::byte>(buffer.data(), static_cast<std::size_t>(n)));
    drain(decoder, sinks);
  }
  decoder.flush();  // emit the in-progress snapshot at end of stream
  drain(decoder, sinks);
  if (!options.quiet) report(decoder.stats());
  return 0;
}

/// Exporter → UDP loopback → decoder, in-process; exact round-trip or
/// nonzero exit.  Doubles as the binary's smoke test.
int run_selfcheck() {
  UdpSocket receiver(0);  // ephemeral port
  if (!receiver.ok()) {
    std::fprintf(stderr, "lumen_collect: selfcheck cannot bind\n");
    return 1;
  }
  obs::wire::UdpWireTransport transport(receiver.port());

  obs::wire::WireExporterOptions exporter_options;
  exporter_options.template_interval = 2;  // exercise the resend path
  obs::wire::WireExporter exporter(transport, exporter_options);

  obs::PumpSnapshot sent;
  sent.tick = 7;
  sent.uptime_seconds = 1.5;
  // Plain and labeled series of every kind; the label value exercises
  // the canonical escaping (backslash, comma, equals).
  sent.counters = {{"lumen.rwa.blocked", "", 3, 1},
                   {"lumen.rwa.offered", "", 41, 8},
                   {"lumen.svc.admitted", "tenant=3", 17, 4}};
  sent.gauges = {{"lumen.rwa.util.busy_ratio", "", 0.375},
                 {"lumen.svc.tenant_share", "policy=a\\,b\\=c,tenant=3",
                  0.625}};
  obs::HistogramData latency;
  latency.buckets[3] = 5;
  latency.buckets[7] = 7;
  latency.exemplars[7] = 0xfeedbeef;
  latency.sum = 520;
  latency.min = 4;
  latency.max = 120;
  sent.histograms = {{"lumen.rwa.open_latency_ns", "", latency},
                     {"lumen.svc.admit_latency_ns", "tenant=3", latency}};
  obs::ProfileEntry profile_entry;
  profile_entry.stack = "svc.admit;svc.route";
  profile_entry.samples = 24;
  profile_entry.self_ns = 9000;
  profile_entry.total_ns = 12000;
  sent.profile = {profile_entry};
  obs::AlertEvent alert;
  alert.rule = "blocking";
  alert.metric = "lumen.rwa.blocked";
  alert.value = 0.25;
  alert.threshold = 0.2;
  alert.tick = 7;
  sent.alerts = {alert};
  exporter.export_snapshot(sent);

  obs::RouteEvent event;
  event.sequence = 5;
  event.source = 2;
  event.target = 9;
  event.policy = "semilightpath";
  event.outcome = "carried";
  event.cost = 31.25;
  event.hops = 4;
  event.trace_id = 0xabcdef;
  exporter.export_route_events(std::span<const obs::RouteEvent>(&event, 1));

  obs::wire::WireDecoder decoder;
  std::vector<std::byte> buffer(65536);
  for (;;) {
    const long n = receiver.recv(buffer, 0.5);
    if (n <= 0) break;
    (void)decoder.decode_frame(
        std::span<const std::byte>(buffer.data(), static_cast<std::size_t>(n)));
  }
  decoder.flush();

  const std::vector<obs::PumpSnapshot> snapshots = decoder.take_snapshots();
  const std::vector<obs::RouteEvent> events = decoder.take_route_events();
  bool ok = decoder.stats().frames_rejected == 0 &&
            decoder.stats().frames_received > 0;
  ok = ok && snapshots.size() == 1 &&
       obs::pump_snapshot_to_json(snapshots[0]) ==
           obs::pump_snapshot_to_json(sent) &&
       obs::prometheus_text(snapshots[0]) == obs::prometheus_text(sent) &&
       snapshots[0].alerts.size() == 1 &&
       snapshots[0].alerts[0].rule == alert.rule &&
       snapshots[0].alerts[0].value == alert.value;
  ok = ok && events.size() == 1 && events[0] == event;
  report(decoder.stats());
  std::fprintf(stderr, "lumen_collect: selfcheck %s\n",
               ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool bad = false;
  for (int i = 1; i < argc && !bad; ++i) {
    const char* arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(arg, "--selfcheck") == 0) {
      options.selfcheck = true;
    } else if (std::strcmp(arg, "--port") == 0 && has_value) {
      const auto port = parse_unsigned<std::uint16_t>(argv[++i]);
      bad = !port;
      options.port = port.value_or(0);
    } else if (std::strcmp(arg, "--jsonl") == 0 && has_value) {
      options.jsonl_path = argv[++i];
    } else if (std::strcmp(arg, "--prom") == 0 && has_value) {
      options.prom_path = argv[++i];
    } else if (std::strcmp(arg, "--frames") == 0 && has_value) {
      const auto frames = parse_unsigned<std::uint64_t>(argv[++i]);
      bad = !frames;
      options.max_frames = frames.value_or(0);
    } else if (std::strcmp(arg, "--idle-exit") == 0 && has_value) {
      const auto seconds = parse_seconds(argv[++i]);
      bad = !seconds;
      options.idle_exit_seconds = seconds.value_or(0.0);
    } else if (std::strcmp(arg, "--quiet") == 0) {
      options.quiet = true;
    } else {
      bad = true;
    }
  }
  if (options.selfcheck && !bad) return run_selfcheck();
  if (bad || options.port < 0) {
    usage();
    return 2;
  }
  return run_collect(options);
}
