// Declarative SLO rules over registry instruments + the periodic
// MetricsPump that evaluates them.
//
// A SloRule names a threshold over an existing instrument — a counter
// value or windowed delta, a ratio of two counter deltas (blocking
// ratio), or a histogram percentile (p99 open latency).  The SloWatchdog
// evaluates its rules against a Registry and reports edge-triggered
// AlertEvents: one when a rule starts breaching, one when it resolves.
//
// MetricsPump drives it: every tick (a background thread, or synchronous
// tick() calls for deterministic tests) it samples every instrument into
// a PumpSnapshot (values + deltas since the previous tick), runs the
// watchdog, triggers a FlightRecorder dump per fresh breach, appends the
// snapshot to a JSONL sink (what `lumen_top` tails), and invokes an
// optional callback.
//
//   obs::SloWatchdog dog;
//   dog.add_rule(obs::SloRule::percentile(
//       "open-p99", "lumen.rwa.open_latency_ns", 0.99, 5e6));
//   obs::PumpOptions options;
//   options.watchdog = &dog;
//   options.recorder = &obs::FlightRecorder::global();
//   obs::MetricsPump pump(obs::Registry::global(), options);
//   pump.start();   // or pump.tick() under test control
//
// With LUMEN_OBS_DISABLED the registry holds no instruments, so the
// watchdog never breaches and every snapshot is empty; start() starts no
// thread.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/flat_json.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"
#include "obs/profiler.h"
#include "obs/registry.h"

namespace lumen::obs {

/// One declarative threshold rule.  Passive data (always compiled).
struct SloRule {
  enum class Kind {
    kCounterValue,        ///< counter value (windowed: delta per tick)
    kCounterRatio,        ///< metric / denominator (windowed deltas)
    kHistogramPercentile  ///< histogram percentile (lifetime)
  };
  enum class Cmp { kGreater, kLess };

  std::string name;          ///< rule id, used in alerts and dump tags
  Kind kind = Kind::kCounterValue;
  /// Instrument name in the registry.  A counter or histogram name with
  /// no plain instrument reads its labeled family: the children's summed
  /// values, or the percentile of their summed buckets.
  std::string metric;
  std::string denominator;   ///< kCounterRatio only
  double quantile = 0.99;    ///< kHistogramPercentile only (0..1)
  Cmp cmp = Cmp::kGreater;
  double threshold = 0.0;    ///< breach when value <cmp> threshold
  /// Counters: true compares the delta since the previous evaluation,
  /// false the lifetime value.  Ignored for percentile rules.
  bool windowed = true;

  /// `histogram.percentile(q) > threshold` (ticks).
  [[nodiscard]] static SloRule percentile(std::string name,
                                          std::string histogram, double q,
                                          double threshold) {
    SloRule r;
    r.name = std::move(name);
    r.kind = Kind::kHistogramPercentile;
    r.metric = std::move(histogram);
    r.quantile = q;
    r.threshold = threshold;
    return r;
  }
  /// `Δnumerator / Δdenominator > threshold` per evaluation window
  /// (0 when the denominator delta is 0).
  [[nodiscard]] static SloRule ratio(std::string name, std::string numerator,
                                     std::string denominator,
                                     double threshold) {
    SloRule r;
    r.name = std::move(name);
    r.kind = Kind::kCounterRatio;
    r.metric = std::move(numerator);
    r.denominator = std::move(denominator);
    r.threshold = threshold;
    return r;
  }
  /// `counter > threshold` (windowed delta by default).
  [[nodiscard]] static SloRule counter_value(std::string name,
                                             std::string counter,
                                             double threshold,
                                             bool windowed = true) {
    SloRule r;
    r.name = std::move(name);
    r.kind = Kind::kCounterValue;
    r.metric = std::move(counter);
    r.threshold = threshold;
    r.windowed = windowed;
    return r;
  }
};

/// One edge-triggered rule transition.  Passive data.
struct AlertEvent {
  std::string rule;
  std::string metric;
  double value = 0.0;
  double threshold = 0.0;
  /// false = rule started breaching; true = back within threshold.
  bool resolved = false;
  /// Pump tick the transition was observed on (0 outside a pump).
  std::uint64_t tick = 0;
  /// Flight-recorder dump written for this breach ("" when none).
  std::string dump_path;
};

/// One alert as a single-line flat JSON object (no newline).
[[nodiscard]] inline std::string alert_to_json(const AlertEvent& a) {
  std::string out = "{\"alert\":\"";
  out += detail::json_escape(a.rule);
  out += "\",\"metric\":\"";
  out += detail::json_escape(a.metric);
  out += "\",\"value\":" + detail::fmt_double_exact(a.value);
  out += ",\"threshold\":" + detail::fmt_double_exact(a.threshold);
  out += ",\"resolved\":";
  out += a.resolved ? "true" : "false";
  out += ",\"tick\":" + std::to_string(a.tick);
  out += ",\"dump_path\":\"";
  out += detail::json_escape(a.dump_path);
  out += "\"}";
  return out;
}

/// One labeled counter child at sample time.  `labels` uses the
/// canonical TagSet rendering ("tenant=3,shard=1" — see obs/tagset.h).
/// Passive data.
struct LabeledCounterSample {
  std::string name;
  std::string labels;
  std::uint64_t value = 0;
  std::uint64_t delta = 0;

  friend bool operator==(const LabeledCounterSample&,
                         const LabeledCounterSample&) = default;
};

/// One labeled gauge child at sample time.  Passive data.
struct LabeledGaugeSample {
  std::string name;
  std::string labels;
  double value = 0.0;

  friend bool operator==(const LabeledGaugeSample&,
                         const LabeledGaugeSample&) = default;
};

/// One labeled histogram child at sample time, plus the exemplar
/// trace_id of its worst populated latency bucket (0 = none).  Passive.
struct LabeledHistogramSample {
  std::string name;
  std::string labels;
  HistogramSummary summary;
  std::uint64_t exemplar = 0;

  friend bool operator==(const LabeledHistogramSample&,
                         const LabeledHistogramSample&) = default;
};

/// One periodic sample of every registry instrument.  Passive data,
/// shared by both build modes: the wire codec (obs/wire) moves these
/// across process boundaries, so the struct must not depend on whether
/// the producing or consuming binary compiled the instruments in.
struct PumpSnapshot {
  std::uint64_t tick = 0;
  double uptime_seconds = 0.0;
  /// (name, lifetime value), sorted by name.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// (name, delta since previous tick), parallel to `counters`.
  std::vector<std::pair<std::string, std::uint64_t>> counter_deltas;
  /// (name, current level), sorted by name.
  std::vector<std::pair<std::string, double>> gauges;
  /// (name, summary), sorted by name.
  std::vector<std::pair<std::string, HistogramSummary>> histograms;
  /// Labeled children (per-tenant/per-shard/per-stage series), sorted
  /// by (name, labels).
  std::vector<LabeledCounterSample> labeled_counters;
  std::vector<LabeledGaugeSample> labeled_gauges;
  std::vector<LabeledHistogramSample> labeled_histograms;
  /// Stage profile at this tick (empty without a pump profiler).
  std::vector<ProfileEntry> profile;
  /// Watchdog transitions observed on this tick.
  std::vector<AlertEvent> alerts;
};

/// One snapshot as a single-line flat JSON object (no newline): keys are
/// "tick", "uptime_seconds", "c:<counter>" (value), "d:<counter>"
/// (delta), "g:<gauge>" (level), and
/// "h:<histogram>:{count,mean,p50,p90,p99,max}".  Labeled children use
/// the same prefixes with the labels appended in braces —
/// "c:<name>{tenant=3}", "h:<name>{tenant=3}:p99", plus ":exemplar" for
/// labeled histograms — and profile entries render as
/// "p:<stack>:{n,self,total}".  Alerts are NOT inlined — the pump
/// writes them as separate alert_to_json lines.
[[nodiscard]] std::string pump_snapshot_to_json(const PumpSnapshot& snapshot);

namespace wire {
/// Binary wire egress for snapshots (obs/wire/wire_encoder.h); referenced
/// by PumpOptions.
class WireExporter;
}  // namespace wire

inline namespace LUMEN_OBS_MODE_NAMESPACE {

/// Evaluates SLO rules against a registry; breach state is kept per rule
/// so alerts fire only on transitions.  Thread-safe.
class SloWatchdog {
 public:
  SloWatchdog() = default;
  SloWatchdog(const SloWatchdog&) = delete;
  SloWatchdog& operator=(const SloWatchdog&) = delete;

  void add_rule(SloRule rule);
  [[nodiscard]] std::size_t num_rules() const;

  /// One evaluation pass; windowed counter rules measure the delta since
  /// the previous evaluate() call.  Returns the transitions (alerts'
  /// `tick` is 0 — the pump stamps it).
  [[nodiscard]] std::vector<AlertEvent> evaluate(
      const Registry& registry = Registry::global());

  /// Current breach state of `rule` (false for unknown rules).
  [[nodiscard]] bool breaching(const std::string& rule) const;

 private:
  struct RuleState {
    SloRule rule;
    bool breaching = false;
    bool primed = false;  // windowed rules skip their first window
    std::uint64_t prev_metric = 0;
    std::uint64_t prev_denominator = 0;
  };

  mutable std::mutex mutex_;
  std::vector<RuleState> rules_;
};

class MetricsPump;

/// MetricsPump configuration.  Referenced objects must outlive the pump.
struct PumpOptions {
  /// Background-thread tick period (start()); irrelevant under manual
  /// tick() control.
  double interval_seconds = 1.0;
  /// JSONL sink appended with one snapshot line (plus alert lines) per
  /// tick; "" = no sink.  This is the stream `lumen_top` tails.
  std::string snapshot_path;
  /// Rules to evaluate each tick (nullptr = none).
  SloWatchdog* watchdog = nullptr;
  /// Dump target for fresh breaches (nullptr = no dumps).
  FlightRecorder* recorder = nullptr;
  /// Directory trigger_dump() writes to ("." by default).
  std::string dump_dir = ".";
  /// Binary wire egress: every tick's snapshot (and its alerts) is
  /// encoded and sent through this exporter (nullptr = no wire path).
  /// See obs/wire/wire_encoder.h; must outlive the pump.
  wire::WireExporter* wire = nullptr;
  /// Stage profiler sampled into every snapshot and attached (as
  /// profile lines) to breach dumps.  nullptr = no profile;
  /// &Profiler::global() wires up the ambient-span profiler.
  Profiler* profiler = nullptr;
  /// Called after each tick with the finished snapshot.
  std::function<void(const PumpSnapshot&)> on_snapshot;
};

/// Periodic snapshot/watchdog driver.  Either call tick() yourself
/// (deterministic; tests do this) or start() a background thread that
/// ticks every interval until stop()/destruction.
class MetricsPump {
 public:
  explicit MetricsPump(Registry& registry = Registry::global(),
                       PumpOptions options = {});
  MetricsPump(const MetricsPump&) = delete;
  MetricsPump& operator=(const MetricsPump&) = delete;
  ~MetricsPump();

  /// One synchronous pump cycle: sample, evaluate, dump-on-breach, sink,
  /// callback.  Thread-safe (serialized against the background thread).
  PumpSnapshot tick();

  /// Starts the background thread (idempotent; a no-op with telemetry
  /// compiled out).
  void start();
  /// Stops and joins it (idempotent; also called by the destructor).
  void stop();
  [[nodiscard]] bool running() const;

  /// Ticks completed so far.
  [[nodiscard]] std::uint64_t ticks() const;

 private:
  void thread_main();

  Registry& registry_;
  PumpOptions options_;
  std::chrono::steady_clock::time_point born_;

  mutable std::mutex tick_mutex_;  // serializes tick()
  std::uint64_t tick_count_ = 0;
  std::vector<std::pair<std::string, std::uint64_t>> prev_counters_;
  /// Previous labeled-counter values keyed "name{labels}".
  std::map<std::string, std::uint64_t> prev_labeled_;

  mutable std::mutex state_mutex_;  // guards the thread lifecycle
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // inline namespace LUMEN_OBS_MODE_NAMESPACE
}  // namespace lumen::obs
