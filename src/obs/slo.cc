#include "obs/slo.h"

#include <algorithm>
#include <fstream>
#include <tuple>

#include "obs/wire/wire_encoder.h"

namespace lumen::obs {

namespace {

/// A series' JSON key: the name, plus "{labels}" when labeled.
std::string series_key(const std::string& name, const std::string& labels) {
  return detail::json_escape(labels.empty() ? name
                                            : name + '{' + labels + '}');
}

}  // namespace

std::string pump_snapshot_to_json(const PumpSnapshot& snapshot) {
  std::string out = "{\"tick\":" + std::to_string(snapshot.tick);
  out += ",\"uptime_seconds\":" +
         detail::fmt_double_exact(snapshot.uptime_seconds);
  for (const CounterSeries& s : snapshot.counters) {
    const std::string key = series_key(s.name, s.labels);
    out += ",\"c:" + key + "\":" + std::to_string(s.value);
    out += ",\"d:" + key + "\":" + std::to_string(s.delta);
  }
  for (const GaugeSeries& s : snapshot.gauges)
    out += ",\"g:" + series_key(s.name, s.labels) +
           "\":" + detail::fmt_double_exact(s.value);
  for (const HistogramSeries& s : snapshot.histograms) {
    const std::string key = ",\"h:" + series_key(s.name, s.labels) + ':';
    const HistogramSummary summary = s.data.summary();
    out += key + "count\":" + std::to_string(summary.count);
    out += key + "mean\":" + detail::fmt_double_exact(summary.mean);
    out += key + "p50\":" + detail::fmt_double_exact(summary.p50);
    out += key + "p90\":" + detail::fmt_double_exact(summary.p90);
    out += key + "p99\":" + detail::fmt_double_exact(summary.p99);
    out += key + "max\":" + detail::fmt_double_exact(summary.max);
    out += key + "exemplar\":" + std::to_string(s.data.worst_exemplar());
    out += key + "buckets\":\"" + std::to_string(s.data.sum) + ' ' +
           std::to_string(s.data.min) + ' ' + std::to_string(s.data.max);
    for (int b = 0; b < HistogramData::kBuckets; ++b)
      if (s.data.buckets[b] != 0 || s.data.exemplars[b] != 0)
        out += ' ' + std::to_string(b) + ':' +
               std::to_string(s.data.buckets[b]) + ':' +
               std::to_string(s.data.exemplars[b]);
    out += '"';
  }
  for (const auto& entry : snapshot.profile) {
    const std::string key = detail::json_escape(entry.stack);
    out += ",\"p:" + key + ":n\":" + std::to_string(entry.samples);
    out += ",\"p:" + key + ":self\":" + std::to_string(entry.self_ns);
    out += ",\"p:" + key + ":total\":" + std::to_string(entry.total_ns);
  }
  out += ",\"alerts\":" + std::to_string(snapshot.alerts.size());
  out += '}';
  return out;
}

inline namespace LUMEN_OBS_MODE_NAMESPACE {

namespace {

/// Appends one series per plain instrument and per family child to `out`,
/// sorted by (name, labels).  A family's overflow child (listed under the
/// empty label set) folds into its plain namesake's series.
template <class T, class Series, class Add>
void collect(const std::vector<std::pair<std::string, const T*>>& plain,
             const std::vector<std::pair<std::string, const LabeledFamily<T>*>>&
                 families,
             std::vector<Series>& out, Add add) {
  for (const auto& [name, instrument] : plain) {
    Series& series = out.emplace_back();
    series.name = name;
    add(series, *instrument);
  }
  const auto plain_count = static_cast<std::ptrdiff_t>(out.size());
  for (const auto& [name, family] : families) {
    for (const auto& [labels, child] : family->entries()) {
      if (labels.empty()) {
        const auto plain_end = out.begin() + plain_count;
        const auto it = std::lower_bound(
            out.begin(), plain_end, name,
            [](const Series& s, const std::string& n) { return s.name < n; });
        if (it != plain_end && it->name == name) {
          add(*it, *child);
          continue;
        }
      }
      Series& series = out.emplace_back();
      series.name = name;
      series.labels = labels;
      add(series, *child);
    }
  }
  std::sort(out.begin(), out.end(), [](const Series& a, const Series& b) {
    return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
  });
}

/// Extra JSONL lines attached to a fresh breach dump: one "breach" line
/// naming the worst series of the breached metric (highest p99 — the
/// offending tenant/shard) with the exemplar trace ids retained in its
/// tail latency buckets, then one "profile" line per sampled stage
/// stack, so the dump answers both "who" and "where the time went".
std::vector<std::string> breach_context_lines(const PumpSnapshot& snapshot,
                                              const AlertEvent& alert) {
  const HistogramSeries* offender = nullptr;
  double worst_p99 = -1.0;
  for (const HistogramSeries& s : snapshot.histograms) {
    if (s.name != alert.metric || s.data.count() == 0) continue;
    const double p99 = s.data.percentile(0.99);
    if (p99 > worst_p99) {
      worst_p99 = p99;
      offender = &s;
    }
  }

  // Exemplars from the buckets at/above the offender's p99 (the traces
  // that lived through the breach), falling back to its worst retained
  // exemplar so a breach line is never trace-less when one exists.
  std::string exemplars;
  if (offender != nullptr) {
    const HistogramData& data = offender->data;
    for (int b = HistogramData::bucket_of(static_cast<std::uint64_t>(worst_p99));
         b < HistogramData::kBuckets; ++b) {
      if (data.exemplars[b] == 0) continue;
      if (!exemplars.empty()) exemplars.push_back(',');
      exemplars += std::to_string(data.exemplars[b]);
    }
    if (exemplars.empty() && data.worst_exemplar() != 0)
      exemplars = std::to_string(data.worst_exemplar());
  }

  std::vector<std::string> lines;
  std::string line = "{\"type\":\"breach\",\"rule\":\"";
  line += detail::json_escape(alert.rule);
  line += "\",\"metric\":\"";
  line += detail::json_escape(alert.metric);
  line += "\",\"labels\":\"";
  line += detail::json_escape(offender != nullptr ? offender->labels : "");
  line += "\",\"value\":" + detail::fmt_double_exact(alert.value);
  line += ",\"threshold\":" + detail::fmt_double_exact(alert.threshold);
  line += ",\"exemplars\":\"" + exemplars + "\"}";
  lines.push_back(std::move(line));
  for (const ProfileEntry& entry : snapshot.profile)
    lines.push_back(profile_entry_to_json(entry));
  return lines;
}

/// A rule's counter: the summed values of every series named `name`.
std::uint64_t counter_total(const PumpSnapshot& snapshot,
                            const std::string& name) {
  std::uint64_t total = 0;
  for (const CounterSeries& s : snapshot.counters)
    if (s.name == name) total += s.value;
  return total;
}

}  // namespace

PumpSnapshot snapshot(const Registry& registry) {
  PumpSnapshot out;
  collect(registry.counter_entries(), registry.labeled_counter_entries(),
          out.counters, [](CounterSeries& s, const Counter& c) {
            s.value += c.value();
          });
  collect(registry.gauge_entries(), registry.labeled_gauge_entries(),
          out.gauges,
          [](GaugeSeries& s, const Gauge& g) { s.value += g.value(); });
  collect(registry.histogram_entries(), registry.labeled_histogram_entries(),
          out.histograms, [](HistogramSeries& s, const LatencyHistogram& h) {
            s.data.merge(h.data());
          });
  return out;
}

void SloWatchdog::add_rule(SloRule rule) {
  const std::scoped_lock lock(mutex_);
  RuleState state;
  state.rule = std::move(rule);
  rules_.push_back(std::move(state));
}

std::size_t SloWatchdog::num_rules() const {
  const std::scoped_lock lock(mutex_);
  return rules_.size();
}

std::vector<AlertEvent> SloWatchdog::evaluate(const PumpSnapshot& snapshot) {
  const std::scoped_lock lock(mutex_);
  std::vector<AlertEvent> alerts;
  for (RuleState& state : rules_) {
    const SloRule& rule = state.rule;
    double value = 0.0;
    bool have_value = true;

    switch (rule.kind) {
      case SloRule::Kind::kCounterValue: {
        const std::uint64_t now = counter_total(snapshot, rule.metric);
        if (rule.windowed) {
          const std::uint64_t delta =
              now >= state.prev_metric ? now - state.prev_metric : 0;
          state.prev_metric = now;
          if (!state.primed) {
            // The first window has no baseline; observe only.
            state.primed = true;
            have_value = false;
          }
          value = static_cast<double>(delta);
        } else {
          value = static_cast<double>(now);
        }
        break;
      }
      case SloRule::Kind::kCounterRatio: {
        const std::uint64_t num_now = counter_total(snapshot, rule.metric);
        const std::uint64_t den_now = counter_total(snapshot, rule.denominator);
        std::uint64_t dn = num_now, dd = den_now;
        if (rule.windowed) {
          dn = num_now >= state.prev_metric ? num_now - state.prev_metric : 0;
          dd = den_now >= state.prev_denominator
                   ? den_now - state.prev_denominator
                   : 0;
          state.prev_metric = num_now;
          state.prev_denominator = den_now;
          if (!state.primed) {
            state.primed = true;
            have_value = false;
          }
        }
        // An empty window holds no evidence either way.
        if (dd == 0) have_value = false;
        value = dd == 0 ? 0.0
                        : static_cast<double>(dn) / static_cast<double>(dd);
        break;
      }
      case SloRule::Kind::kHistogramPercentile: {
        HistogramData total;
        for (const HistogramSeries& s : snapshot.histograms)
          if (s.name == rule.metric) total.merge(s.data);
        have_value = total.count() != 0;
        value = total.percentile(rule.quantile);
        break;
      }
    }

    const bool breach =
        have_value && (rule.cmp == SloRule::Cmp::kGreater
                           ? value > rule.threshold
                           : value < rule.threshold);
    if (breach == state.breaching) continue;
    // Edge: resolve only on a tick with evidence; a window with no data
    // leaves the rule in its previous state.
    if (!breach && !have_value) continue;
    state.breaching = breach;
    AlertEvent alert;
    alert.rule = rule.name;
    alert.metric = rule.metric;
    alert.value = value;
    alert.threshold = rule.threshold;
    alert.resolved = !breach;
    alerts.push_back(std::move(alert));
  }
  return alerts;
}

bool SloWatchdog::breaching(const std::string& rule) const {
  const std::scoped_lock lock(mutex_);
  for (const RuleState& state : rules_)
    if (state.rule.name == rule) return state.breaching;
  return false;
}

MetricsPump::MetricsPump(Registry& registry, PumpOptions options)
    : registry_(registry),
      options_(std::move(options)),
      born_(std::chrono::steady_clock::now()) {}

MetricsPump::~MetricsPump() { stop(); }

PumpSnapshot MetricsPump::tick() {
  const std::scoped_lock lock(tick_mutex_);
  PumpSnapshot snapshot = obs::snapshot(registry_);
  snapshot.tick = ++tick_count_;
  snapshot.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - born_)
          .count();
  for (CounterSeries& s : snapshot.counters) {
    std::uint64_t& prev = prev_counters_[{s.name, s.labels}];
    s.delta = s.value >= prev ? s.value - prev : 0;
    prev = s.value;
  }

  if (options_.profiler != nullptr)
    snapshot.profile = options_.profiler->snapshot().entries;

  if (options_.watchdog != nullptr) {
    snapshot.alerts = options_.watchdog->evaluate(snapshot);
    for (AlertEvent& alert : snapshot.alerts) {
      alert.tick = snapshot.tick;
      if (!alert.resolved && options_.recorder != nullptr) {
        alert.dump_path = options_.recorder->trigger_dump(
            options_.dump_dir,
            "slo-" + alert.rule + "-tick" + std::to_string(snapshot.tick),
            breach_context_lines(snapshot, alert));
      }
    }
    if (!snapshot.alerts.empty()) {
      static Counter& alerts_counter =
          Registry::global().counter("lumen.obs.alerts");
      alerts_counter.add(snapshot.alerts.size());
    }
  }

  if (!options_.snapshot_path.empty()) {
    std::ofstream out(options_.snapshot_path, std::ios::app);
    if (out) {
      out << pump_snapshot_to_json(snapshot) << '\n';
      for (const AlertEvent& alert : snapshot.alerts)
        out << alert_to_json(alert) << '\n';
    }
  }

  if (options_.wire != nullptr) options_.wire->export_snapshot(snapshot);

  if (options_.on_snapshot) options_.on_snapshot(snapshot);
  return snapshot;
}

void MetricsPump::start() {
  if constexpr (!kObsEnabled) return;
  const std::scoped_lock lock(state_mutex_);
  if (thread_.joinable()) return;
  stop_requested_ = false;
  thread_ = std::thread([this] { thread_main(); });
}

void MetricsPump::stop() {
  std::thread to_join;
  {
    const std::scoped_lock lock(state_mutex_);
    stop_requested_ = true;
    cv_.notify_all();
    to_join = std::move(thread_);
  }
  if (to_join.joinable()) to_join.join();
}

bool MetricsPump::running() const {
  const std::scoped_lock lock(state_mutex_);
  return thread_.joinable();
}

std::uint64_t MetricsPump::ticks() const {
  const std::scoped_lock lock(tick_mutex_);
  return tick_count_;
}

void MetricsPump::thread_main() {
  const auto interval = std::chrono::duration<double>(
      options_.interval_seconds > 0.0 ? options_.interval_seconds : 1.0);
  std::unique_lock lock(state_mutex_);
  while (!stop_requested_) {
    if (cv_.wait_for(lock, interval, [this] { return stop_requested_; }))
      break;
    lock.unlock();
    (void)tick();
    lock.lock();
  }
}

}  // inline namespace LUMEN_OBS_MODE_NAMESPACE
}  // namespace lumen::obs
