#include "obs/flight_recorder.h"

#include <fstream>

#include "obs/export.h"
#include "obs/registry.h"
#include "obs/trace_assembler.h"

namespace lumen::obs {
inline namespace LUMEN_OBS_MODE_NAMESPACE {

// With telemetry compiled out the event log keeps its unbounded default
// (capacity 0) and stays empty: record_event() appends nothing.
FlightRecorder::FlightRecorder(std::size_t event_capacity, SpanBuffer* spans)
    : spans_(spans),
      events_(!kObsEnabled          ? 0
              : event_capacity == 0 ? kDefaultEventCapacity
                                    : event_capacity) {}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder instance;
  return instance;
}

std::string FlightRecorder::dump_string() const {
  std::string out;
  for (const CausalSpanRecord& span : spans_->snapshot()) {
    out += "{\"type\":\"span\",";
    out += causal_span_to_json(span).substr(1);  // drop the leading '{'
    out += '\n';
  }
  for (const RouteEvent& event : events()) {
    out += "{\"type\":\"route_event\",";
    out += route_event_to_json(event).substr(1);
    out += '\n';
  }
  return out;
}

bool FlightRecorder::dump(const std::string& path) const {
  if constexpr (!kObsEnabled) return false;
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << dump_string();
  out.flush();
  return static_cast<bool>(out);
}

std::string FlightRecorder::trigger_dump(
    const std::string& dir, const std::string& tag,
    const std::vector<std::string>& extra_lines) const {
  if constexpr (!kObsEnabled) return {};
  std::string safe;
  safe.reserve(tag.size());
  for (const char c : tag) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    safe += ok ? c : '_';
  }
  if (safe.empty()) safe = "dump";
  std::string path = dir.empty() ? safe : dir + "/" + safe;
  path += ".jsonl";
  std::string contents;
  for (const std::string& line : extra_lines) {
    contents += line;
    contents += '\n';
  }
  contents += dump_string();
  {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return {};
    out << contents;
    out.flush();
    if (!out) return {};
  }
  static Counter& dumps_counter =
      Registry::global().counter("lumen.obs.flight_dumps");
  dumps_counter.add();
  return path;
}

}  // inline namespace LUMEN_OBS_MODE_NAMESPACE
}  // namespace lumen::obs
