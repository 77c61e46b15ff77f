// Declarative SLO rules over registry instruments + the periodic
// MetricsPump that evaluates them.
//
// One walk reads the registry: obs::snapshot() copies every instrument
// into a PumpSnapshot (one vector of series per kind, sorted by name and
// labels, histograms with their buckets).  Everything downstream reads
// that snapshot: the Prometheus renderer (obs/export.h), the wire codec
// (obs/wire), the JSONL sink, `lumen_top`, and the SloWatchdog.
//
// A SloRule names a threshold over an existing instrument — a counter
// value or windowed delta, a ratio of two counter deltas (blocking
// ratio), or a histogram percentile (p99 open latency).  The SloWatchdog
// evaluates its rules against a snapshot and reports edge-triggered
// AlertEvents: one when a rule starts breaching, one when it resolves.
//
// MetricsPump drives it: every tick (a background thread, or synchronous
// tick() calls for deterministic tests) it takes one snapshot, stamps the
// counter deltas since the previous tick, runs the watchdog on that same
// snapshot, triggers a FlightRecorder dump per fresh breach, appends the
// snapshot to a JSONL sink (what `lumen_top` tails), sends it on the wire,
// and invokes an optional callback.  An alert therefore reports the value
// the snapshot it ships with holds.
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
  /// Instrument name in the registry.  A rule reads the total over every
  /// series of that name (plain and labeled): the summed counter values,
  /// or the percentile of the merged histogram buckets.
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

/// One counter series at sample time: a name plus its canonical TagSet
/// labels ("tenant=3,shard=1" — see obs/tagset.h; "" for the name's
/// unlabeled series), the lifetime value and the delta since the previous
/// pump tick.  Passive data.
struct CounterSeries {
  std::string name;
  std::string labels;
  std::uint64_t value = 0;
  std::uint64_t delta = 0;

  friend bool operator==(const CounterSeries&, const CounterSeries&) = default;
};

/// One gauge series at sample time.  Passive data.
struct GaugeSeries {
  std::string name;
  std::string labels;
  double value = 0.0;

  friend bool operator==(const GaugeSeries&, const GaugeSeries&) = default;
};

/// One histogram series at sample time, buckets and all.  Passive data.
struct HistogramSeries {
  std::string name;
  std::string labels;
  HistogramData data;

  friend bool operator==(const HistogramSeries&,
                         const HistogramSeries&) = default;
};

/// One sample of every registry instrument.  Passive data, shared by both
/// build modes: the wire codec (obs/wire) moves these across process
/// boundaries, so the struct must not depend on whether the producing or
/// consuming binary compiled the instruments in.
///
/// Each kind is one vector sorted by (name, labels).  A name's unlabeled
/// series (labels "") is its plain instrument plus its labeled family's
/// overflow child; the family's labeled children follow it.
struct PumpSnapshot {
  std::uint64_t tick = 0;
  double uptime_seconds = 0.0;
  std::vector<CounterSeries> counters;
  std::vector<GaugeSeries> gauges;
  std::vector<HistogramSeries> histograms;
  /// Stage profile at this tick (empty without a pump profiler).
  std::vector<ProfileEntry> profile;
  /// Watchdog transitions observed on this tick.
  std::vector<AlertEvent> alerts;
};

/// One snapshot as a single-line flat JSON object (no newline).  Keys are
/// "tick", "uptime_seconds", and per series "c:<key>" (value), "d:<key>"
/// (delta), "g:<key>" (level) and "h:<key>:{count,mean,p50,p90,p99,max,
/// exemplar,buckets}", where <key> is the name, with the labels appended
/// in braces for a labeled series ("c:<name>{tenant=3}").  ":buckets" is
/// a string: sum, min and max, then one "index:count:exemplar" triple per
/// bucket holding a count or an exemplar, space-separated — enough to
/// rebuild the HistogramData.  Profile entries render as
/// "p:<stack>:{n,self,total}".  Alerts are NOT inlined — the pump writes
/// them as separate alert_to_json lines.
[[nodiscard]] std::string pump_snapshot_to_json(const PumpSnapshot& snapshot);

namespace wire {
/// Binary wire egress for snapshots (obs/wire/wire_encoder.h); referenced
/// by PumpOptions.
class WireExporter;
}  // namespace wire

inline namespace LUMEN_OBS_MODE_NAMESPACE {

/// Every instrument of `registry` as one PumpSnapshot (tick 0, deltas 0,
/// no profile or alerts: the pump fills those in).  The only walk of the
/// registry's instruments: the Prometheus renderer, the wire codec, the
/// JSONL sink and the watchdog all read what it returns.  Empty for an
/// obs-off registry, which lists none.
[[nodiscard]] PumpSnapshot snapshot(const Registry& registry);

/// Evaluates SLO rules against a snapshot; breach state is kept per rule
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
  [[nodiscard]] std::vector<AlertEvent> evaluate(const PumpSnapshot& snapshot);
  [[nodiscard]] std::vector<AlertEvent> evaluate(
      const Registry& registry = Registry::global()) {
    return evaluate(snapshot(registry));
  }

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
  /// Previous counter values keyed (name, labels).
  std::map<std::pair<std::string, std::string>, std::uint64_t> prev_counters_;

  mutable std::mutex state_mutex_;  // guards the thread lifecycle
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // inline namespace LUMEN_OBS_MODE_NAMESPACE
}  // namespace lumen::obs
