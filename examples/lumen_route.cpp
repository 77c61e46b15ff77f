// Command-line semilightpath router over the lumen-wdm text format.
//
//   $ ./lumen_route <network-file> <src> <dst>           # one query
//   $ ./lumen_route <network-file> --all-pairs           # cost matrix
//   $ ./lumen_route --demo                               # emit a sample file
//
// With --metrics <file> a single-query run also appends one JSONL
// RouteEvent record (schema: docs/OBSERVABILITY.md) describing the query;
// --metrics with --all-pairs is a usage error.
//
// The scriptable face of the library: networks come from wdm/io's text
// format (see src/wdm/io.h for the grammar), answers go to stdout as a
// human-readable route plus the switch settings an operator would program.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>

#include "core/all_pairs.h"
#include "core/liang_shen.h"
#include "obs/export.h"
#include "util/parse.h"
#include "wdm/io.h"

using namespace lumen;

namespace {

int emit_demo() {
  WdmNetwork net(4, 3, std::make_shared<UniformConversion>(0.25));
  const LinkId a = net.add_link(NodeId{0}, NodeId{1});
  net.set_wavelength(a, Wavelength{0}, 1.0);
  net.set_wavelength(a, Wavelength{1}, 1.5);
  const LinkId b = net.add_link(NodeId{1}, NodeId{2});
  net.set_wavelength(b, Wavelength{1}, 1.0);
  const LinkId c = net.add_link(NodeId{2}, NodeId{3});
  net.set_wavelength(c, Wavelength{2}, 2.0);
  const LinkId d = net.add_link(NodeId{0}, NodeId{3});
  net.set_wavelength(d, Wavelength{0}, 9.0);
  std::printf("%s", network_to_string(net).c_str());
  return 0;
}

int run_all_pairs(const WdmNetwork& net) {
  AllPairsRouter router(net);
  const auto matrix = router.cost_matrix();
  std::printf("optimal semilightpath cost matrix (%u x %u):\n",
              net.num_nodes(), net.num_nodes());
  for (std::uint32_t s = 0; s < net.num_nodes(); ++s) {
    for (std::uint32_t t = 0; t < net.num_nodes(); ++t) {
      if (matrix[s][t] == kInfiniteCost) {
        std::printf("%8s", "-");
      } else {
        std::printf("%8.3f", matrix[s][t]);
      }
    }
    std::printf("\n");
  }
  return 0;
}

/// Appends one RouteEvent JSONL record for the query to `metrics_path`.
void dump_metrics(const char* metrics_path, std::uint32_t s, std::uint32_t t,
                  const RouteResult& r) {
  obs::RouteEvent event;
  event.source = s;
  event.target = t;
  event.policy = "semilightpath";
  event.heap = "fibonacci";
  event.outcome = r.found ? "found" : "not_found";
  event.cost = r.found ? r.cost : 0.0;
  event.hops = static_cast<std::uint32_t>(r.path.length());
  event.conversions = static_cast<std::uint32_t>(r.path.num_conversions());
  event.aux_nodes = r.stats.aux_nodes;
  event.aux_links = r.stats.aux_links;
  event.relaxations = r.stats.search_relaxations;
  event.heap_pops = r.stats.search_pops;
  event.build_seconds = r.stats.build_seconds;
  event.search_seconds = r.stats.search_seconds;
  std::ofstream out(metrics_path, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "warning: cannot open metrics file '%s'\n",
                 metrics_path);
    return;
  }
  const obs::RouteEvent events[] = {event};
  obs::write_route_events_jsonl(out, events);
}

int run_query(const WdmNetwork& net, std::uint32_t s, std::uint32_t t,
              const char* metrics_path) {
  if (s >= net.num_nodes() || t >= net.num_nodes()) {
    std::fprintf(stderr, "error: node ids must be < %u\n", net.num_nodes());
    return 2;
  }
  const RouteResult r = route_semilightpath(net, NodeId{s}, NodeId{t});
  if (metrics_path != nullptr) dump_metrics(metrics_path, s, t, r);
  if (!r.found) {
    std::printf("no semilightpath from %u to %u\n", s, t);
    return 1;
  }
  std::printf("cost %.6f\nroute %s\n", r.cost, r.path.to_string(net).c_str());
  for (const SwitchSetting& sw : r.switches) {
    std::printf("switch node=%u %u->%u\n", sw.node.value(), sw.from.value(),
                sw.to.value());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--demo") == 0) return emit_demo();

  // Peel off `--metrics <file>` wherever it appears.
  const char* metrics_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      if (i + 1 == argc) {
        std::fprintf(stderr, "error: --metrics needs a file argument\n");
        return 2;
      }
      metrics_path = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      break;
    }
  }

  if (argc != 3 && argc != 4) {
    std::fprintf(stderr,
                 "usage: %s <network-file> <src> <dst> [--metrics <file>]\n"
                 "       %s <network-file> --all-pairs\n"
                 "       %s --demo    # print a sample network file\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }

  if (argc == 3 && metrics_path != nullptr) {
    std::fprintf(stderr, "error: --metrics needs a <src> <dst> query\n");
    return 2;
  }

  std::optional<std::uint32_t> src, dst;
  if (argc == 4) {
    src = parse_unsigned<std::uint32_t>(argv[2]);
    dst = parse_unsigned<std::uint32_t>(argv[3]);
    if (!src || !dst) {
      std::fprintf(stderr,
                   "error: <src> and <dst> must be unsigned node ids, got "
                   "'%s' '%s'\n",
                   argv[2], argv[3]);
      return 2;
    }
  }

  std::ifstream file(argv[1]);
  if (!file) {
    std::fprintf(stderr, "error: cannot open '%s'\n", argv[1]);
    return 2;
  }
  try {
    const WdmNetwork net = read_network(file);
    if (argc == 3) {
      if (std::strcmp(argv[2], "--all-pairs") != 0) {
        std::fprintf(stderr, "error: expected --all-pairs or <src> <dst>\n");
        return 2;
      }
      return run_all_pairs(net);
    }
    return run_query(net, *src, *dst, metrics_path);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
