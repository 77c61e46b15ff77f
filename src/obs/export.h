// Machine-readable telemetry exporters.
//
// Three formats:
//   - JSONL: one flat JSON object per RouteEvent per line.  Lossless —
//     read_route_events_jsonl() round-trips the writer's output exactly
//     (doubles are printed with 17 significant digits).
//   - CSV: the same fields with a header row, for spreadsheet intake.
//   - Prometheus text exposition, rendered from a PumpSnapshot (the one
//     renderer: `/metrics`, and `lumen_collect --prom` over a decoded
//     snapshot): every counter series becomes a `counter` sample, every
//     histogram series a native `histogram` with power-of-two `le`
//     buckets, `_sum`, and `_count`.  Metric names are the registry
//     names with [.-] mapped to '_'.  The series of one name share one
//     TYPE block, the unlabeled one first, then one `name{tenant="3",...}`
//     sample per labeled child, with exposition-escaped label values.
//     Profile entries render as `lumen_obs_profile_{samples,self_ns,
//     total_ns}{stack="..."}`.
//
// Field order of the JSONL/CSV schema is documented in
// docs/OBSERVABILITY.md; tests/obs/export_test.cc pins it.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "obs/registry.h"
#include "obs/route_event.h"
#include "obs/slo.h"

namespace lumen::obs {

/// Serializes one event as a single-line flat JSON object (no newline).
[[nodiscard]] std::string route_event_to_json(const RouteEvent& event);

/// Writes one JSON object per line.
void write_route_events_jsonl(std::ostream& out,
                              std::span<const RouteEvent> events);

/// Parses JSONL as produced by write_route_events_jsonl (flat objects,
/// string or numeric values).  Unknown keys are ignored; blank lines are
/// skipped.  Throws lumen::Error on malformed input.
[[nodiscard]] std::vector<RouteEvent> read_route_events_jsonl(
    std::istream& in);

/// Writes a header row plus one CSV row per event (RFC-4180 quoting for
/// the string fields).
void write_route_events_csv(std::ostream& out,
                            std::span<const RouteEvent> events);

/// A registry instrument name as a Prometheus metric name: every
/// character outside [a-zA-Z0-9_:] becomes '_'.
[[nodiscard]] std::string prometheus_name(const std::string& name);

/// A label value with Prometheus text-exposition escaping: backslash,
/// double quote, and newline become `\\`, `\"`, and `\n`.
[[nodiscard]] std::string prometheus_label_value(const std::string& value);

/// A canonical TagSet labels string ("tenant=3,shard=1") rendered as a
/// Prometheus label set: `{tenant="3",shard="1"}`.  Keys are mangled
/// through prometheus_name, values escaped through
/// prometheus_label_value.  Empty input renders as "".
[[nodiscard]] std::string prometheus_labels(const std::string& canonical);

/// Renders every series of `snapshot` in Prometheus text exposition
/// format (version 0.0.4); "" for an empty snapshot.
[[nodiscard]] std::string prometheus_text(const PumpSnapshot& snapshot);

/// The same for every instrument of `registry`; "" for an obs-off
/// registry, which lists none.
[[nodiscard]] inline std::string prometheus_text(
    const Registry& registry = Registry::global()) {
  return prometheus_text(snapshot(registry));
}

}  // namespace lumen::obs
