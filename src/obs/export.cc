#include "obs/export.h"

#include <cctype>
#include <istream>
#include <ostream>

#include <map>

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

// `labels` is the inner label list ("tenant=\"3\"", or "" for the plain
// instrument); it merges with the `le`/`quantile` labels below.  TYPE
// lines are the caller's job — labeled children share their metric's.
void append_native_histogram(std::string& out, const std::string& metric,
                             const std::string& labels,
                             const LatencyHistogram& histogram) {
  std::string le_prefix = "_bucket{";
  if (!labels.empty()) {
    le_prefix += labels;
    le_prefix += ',';
  }
  le_prefix += "le=\"";
  std::string suffix;
  if (!labels.empty()) {
    suffix += '{';
    suffix += labels;
    suffix += '}';
  }
  std::uint64_t cumulative = 0;
  int highest = -1;
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
    if (histogram.bucket_count(b) != 0) highest = b;
  }
  for (int b = 0; b <= highest; ++b) {
    cumulative += histogram.bucket_count(b);
    out += metric + le_prefix +
           std::to_string(LatencyHistogram::bucket_upper_bound(b)) + "\"} " +
           std::to_string(cumulative) + "\n";
  }
  out += metric + le_prefix + "+Inf\"} " + std::to_string(cumulative) + "\n";
  out += metric + "_sum" + suffix + " " + std::to_string(histogram.sum()) +
         "\n";
  out += metric + "_count" + suffix + " " + std::to_string(cumulative) + "\n";
}

}  // namespace

std::string prometheus_text(const Registry& registry) {
  std::string out;

  // Plain sample first, then that name's labeled children under the same
  // TYPE block; families with no plain namesake get their own block.  A
  // family's overflow child is its unlabeled series (entries() lists it
  // under the empty label set), so beside a plain namesake the two add
  // up to the name's one unlabeled sample.
  std::map<std::string, const LabeledFamily<Counter>*> labeled_counters;
  for (const auto& [name, family] : registry.labeled_counter_entries())
    labeled_counters.emplace(name, family);
  const auto counter_children = [&out](const std::string& metric,
                                       const LabeledFamily<Counter>& family,
                                       bool with_unlabeled) {
    for (const auto& [labels, child] : family.entries())
      if (with_unlabeled || !labels.empty())
        out += metric + prometheus_labels(labels) + " " +
               std::to_string(child->value()) + "\n";
  };
  for (const auto& [name, counter] : registry.counter_entries()) {
    const std::string metric = prometheus_name(name);
    const auto it = labeled_counters.find(name);
    std::uint64_t value = counter->value();
    if (it != labeled_counters.end()) value += it->second->overflow().value();
    out += "# TYPE " + metric + " counter\n";
    out += metric + " " + std::to_string(value) + "\n";
    if (it != labeled_counters.end()) {
      counter_children(metric, *it->second, false);
      labeled_counters.erase(it);
    }
  }
  for (const auto& [name, family] : labeled_counters) {
    const std::string metric = prometheus_name(name);
    out += "# TYPE " + metric + " counter\n";
    counter_children(metric, *family, true);
  }

  std::map<std::string, const LabeledFamily<Gauge>*> labeled_gauges;
  for (const auto& [name, family] : registry.labeled_gauge_entries())
    labeled_gauges.emplace(name, family);
  const auto gauge_children = [&out](const std::string& metric,
                                     const LabeledFamily<Gauge>& family,
                                     bool with_unlabeled) {
    for (const auto& [labels, child] : family.entries())
      if (with_unlabeled || !labels.empty())
        out += metric + prometheus_labels(labels) + " " +
               detail::fmt_double_exact(child->value()) + "\n";
  };
  for (const auto& [name, gauge] : registry.gauge_entries()) {
    const std::string metric = prometheus_name(name);
    const auto it = labeled_gauges.find(name);
    double value = gauge->value();
    if (it != labeled_gauges.end()) value += it->second->overflow().value();
    out += "# TYPE " + metric + " gauge\n";
    out += metric + " " + detail::fmt_double_exact(value) + "\n";
    if (it != labeled_gauges.end()) {
      gauge_children(metric, *it->second, false);
      labeled_gauges.erase(it);
    }
  }
  for (const auto& [name, family] : labeled_gauges) {
    const std::string metric = prometheus_name(name);
    out += "# TYPE " + metric + " gauge\n";
    gauge_children(metric, *family, true);
  }

  std::map<std::string, const LabeledFamily<LatencyHistogram>*>
      labeled_histograms;
  for (const auto& [name, family] : registry.labeled_histogram_entries())
    labeled_histograms.emplace(name, family);
  const auto histogram_block = [&](const std::string& metric,
                                   const LatencyHistogram* plain,
                                   const LabeledFamily<LatencyHistogram>*
                                       family) {
    out += "# TYPE " + metric + " histogram\n";
    if (plain != nullptr) {
      LatencyHistogram unlabeled;
      unlabeled.merge(*plain);
      if (family != nullptr) unlabeled.merge(family->overflow());
      append_native_histogram(out, metric, "", unlabeled);
    }
    if (family != nullptr)
      for (const auto& [labels, child] : family->entries())
        if (plain == nullptr || !labels.empty())
          append_native_histogram(out, metric,
                                  prometheus_labels_inner(labels), *child);
  };
  for (const auto& [name, histogram] : registry.histogram_entries()) {
    const std::string metric = prometheus_name(name);
    const auto it = labeled_histograms.find(name);
    const LabeledFamily<LatencyHistogram>* family =
        it != labeled_histograms.end() ? it->second : nullptr;
    histogram_block(metric, histogram, family);
    if (it != labeled_histograms.end()) labeled_histograms.erase(it);
  }
  for (const auto& [name, family] : labeled_histograms)
    histogram_block(prometheus_name(name), nullptr, family);

  return out;
}

}  // namespace lumen::obs
