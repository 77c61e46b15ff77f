#include "obs/export.h"

#include <cctype>
#include <istream>
#include <ostream>

#include "obs/flat_json.h"
#include "obs/tagset.h"

namespace lumen::obs {

namespace {

using detail::FlatJsonParser;
using detail::fmt_double_exact;
using detail::json_escape;

std::string csv_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    out += c;
    if (c == '"') out += '"';
  }
  out += '"';
  return out;
}

}  // namespace

std::string route_event_to_json(const RouteEvent& e) {
  std::string out = "{";
  const auto num = [&out](const char* key, const std::string& value) {
    out += '"';
    out += key;
    out += "\":";
    out += value;
    out += ',';
  };
  const auto str = [&out](const char* key, const std::string& value) {
    out += '"';
    out += key;
    out += "\":\"";
    out += json_escape(value);
    out += "\",";
  };
  num("sequence", std::to_string(e.sequence));
  num("source", std::to_string(e.source));
  num("target", std::to_string(e.target));
  str("policy", e.policy);
  str("heap", e.heap);
  str("outcome", e.outcome);
  num("cost", fmt_double_exact(e.cost));
  num("hops", std::to_string(e.hops));
  num("conversions", std::to_string(e.conversions));
  num("aux_nodes", std::to_string(e.aux_nodes));
  num("aux_links", std::to_string(e.aux_links));
  num("relaxations", std::to_string(e.relaxations));
  num("heap_pops", std::to_string(e.heap_pops));
  num("build_seconds", fmt_double_exact(e.build_seconds));
  num("search_seconds", fmt_double_exact(e.search_seconds));
  // trace_id rides at the end of the schema (appended in v2, so pre-v2
  // consumers keyed on field order stay valid).
  num("trace_id", std::to_string(e.trace_id));
  out.back() = '}';
  return out;
}

void write_route_events_jsonl(std::ostream& out,
                              std::span<const RouteEvent> events) {
  for (const RouteEvent& e : events) out << route_event_to_json(e) << '\n';
}

std::vector<RouteEvent> read_route_events_jsonl(std::istream& in) {
  std::vector<RouteEvent> events;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    RouteEvent e;
    FlatJsonParser parser(line, line_no);
    parser.parse([&e](const std::string& key, const std::string& s, double n,
                      bool is_string) {
      if (is_string) {
        if (key == "policy") e.policy = s;
        else if (key == "heap") e.heap = s;
        else if (key == "outcome") e.outcome = s;
        return;
      }
      if (key == "sequence") e.sequence = static_cast<std::uint64_t>(n);
      else if (key == "source") e.source = static_cast<std::uint32_t>(n);
      else if (key == "target") e.target = static_cast<std::uint32_t>(n);
      else if (key == "cost") e.cost = n;
      else if (key == "hops") e.hops = static_cast<std::uint32_t>(n);
      else if (key == "conversions")
        e.conversions = static_cast<std::uint32_t>(n);
      else if (key == "aux_nodes") e.aux_nodes = static_cast<std::uint64_t>(n);
      else if (key == "aux_links") e.aux_links = static_cast<std::uint64_t>(n);
      else if (key == "relaxations")
        e.relaxations = static_cast<std::uint64_t>(n);
      else if (key == "heap_pops") e.heap_pops = static_cast<std::uint64_t>(n);
      else if (key == "build_seconds") e.build_seconds = n;
      else if (key == "search_seconds") e.search_seconds = n;
      else if (key == "trace_id") e.trace_id = static_cast<std::uint64_t>(n);
    });
    events.push_back(std::move(e));
  }
  return events;
}

void write_route_events_csv(std::ostream& out,
                            std::span<const RouteEvent> events) {
  out << "sequence,source,target,policy,heap,outcome,cost,hops,conversions,"
         "aux_nodes,aux_links,relaxations,heap_pops,build_seconds,"
         "search_seconds,trace_id\n";
  for (const RouteEvent& e : events) {
    out << e.sequence << ',' << e.source << ',' << e.target << ','
        << csv_quote(e.policy) << ',' << csv_quote(e.heap) << ','
        << csv_quote(e.outcome) << ',' << fmt_double_exact(e.cost) << ','
        << e.hops << ',' << e.conversions << ',' << e.aux_nodes << ','
        << e.aux_links << ',' << e.relaxations << ',' << e.heap_pops << ','
        << fmt_double_exact(e.build_seconds) << ','
        << fmt_double_exact(e.search_seconds) << ',' << e.trace_id << '\n';
  }
}

// Registry names use dots; Prometheus wants [a-zA-Z0-9_:].
std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != ':')
      c = '_';
  }
  return out;
}

std::string prometheus_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
  return out;
}

namespace {

/// The inner label list without braces ("tenant=\"3\",shard=\"1\"") —
/// the histogram renderer merges this with its own `le` label.
std::string prometheus_labels_inner(const std::string& canonical) {
  std::string out;
  for (const auto& [key, value] : labels_parse(canonical)) {
    if (!out.empty()) out += ',';
    out += prometheus_name(key) + "=\"" + prometheus_label_value(value) + '"';
  }
  return out;
}

}  // namespace

std::string prometheus_labels(const std::string& canonical) {
  if (canonical.empty()) return {};
  std::string out = "{";
  out += prometheus_labels_inner(canonical);
  out += '}';
  return out;
}

namespace {

// `labels` is the series' canonical label text ("" when unlabeled); its
// Prometheus form merges with the `le` label of each bucket line.
void append_native_histogram(std::string& out, const std::string& metric,
                             const std::string& labels,
                             const HistogramData& histogram) {
  const std::string inner = prometheus_labels_inner(labels);
  const std::string le_prefix =
      "_bucket{" + (inner.empty() ? "" : inner + ',') + "le=\"";
  const std::string suffix = prometheus_labels(labels);
  std::uint64_t cumulative = 0;
  int highest = -1;
  for (int b = 0; b < HistogramData::kBuckets; ++b) {
    if (histogram.buckets[b] != 0) highest = b;
  }
  for (int b = 0; b <= highest; ++b) {
    cumulative += histogram.buckets[b];
    out += metric + le_prefix +
           std::to_string(HistogramData::bucket_upper_bound(b)) + "\"} " +
           std::to_string(cumulative) + "\n";
  }
  out += metric + le_prefix + "+Inf\"} " + std::to_string(cumulative) + "\n";
  out += metric + "_sum" + suffix + " " + std::to_string(histogram.sum) +
         "\n";
  out += metric + "_count" + suffix + " " + std::to_string(cumulative) + "\n";
}

}  // namespace

std::string prometheus_text(const PumpSnapshot& snapshot) {
  std::string out;
  // Series arrive sorted by (name, labels): a name's TYPE line goes
  // before its first (unlabeled, when present) series.
  std::string typed;
  const auto metric = [&](const std::string& name, const char* kind) {
    std::string m = prometheus_name(name);
    if (name != typed) {
      out += "# TYPE " + m + " " + kind + "\n";
      typed = name;
    }
    return m;
  };
  for (const CounterSeries& s : snapshot.counters)
    out += metric(s.name, "counter") + prometheus_labels(s.labels) + " " +
           std::to_string(s.value) + "\n";
  typed.clear();
  for (const GaugeSeries& s : snapshot.gauges)
    out += metric(s.name, "gauge") + prometheus_labels(s.labels) + " " +
           detail::fmt_double_exact(s.value) + "\n";
  typed.clear();
  for (const HistogramSeries& s : snapshot.histograms)
    append_native_histogram(out, metric(s.name, "histogram"), s.labels,
                            s.data);

  // Profile stacks: one labeled sample per stack under each of three
  // metrics.
  const auto profile = [&](const char* name, const char* kind,
                           std::uint64_t ProfileEntry::*field) {
    typed.clear();
    for (const ProfileEntry& entry : snapshot.profile)
      out += metric(name, kind) +
             prometheus_labels(labels_canonical({{"stack", entry.stack}})) +
             " " + std::to_string(entry.*field) + "\n";
  };
  profile("lumen.obs.profile.samples", "counter", &ProfileEntry::samples);
  profile("lumen.obs.profile.self_ns", "gauge", &ProfileEntry::self_ns);
  profile("lumen.obs.profile.total_ns", "gauge", &ProfileEntry::total_ns);
  return out;
}

}  // namespace lumen::obs
