#include "obs/slo.h"

#include <algorithm>
#include <fstream>

#include "obs/wire/wire_encoder.h"

namespace lumen::obs {

std::string pump_snapshot_to_json(const PumpSnapshot& snapshot) {
  std::string out = "{\"tick\":" + std::to_string(snapshot.tick);
  out += ",\"uptime_seconds\":" +
         detail::fmt_double_exact(snapshot.uptime_seconds);
  for (const auto& [name, value] : snapshot.counters) {
    out += ",\"c:";
    out += detail::json_escape(name);
    out += "\":" + std::to_string(value);
  }
  for (const auto& [name, delta] : snapshot.counter_deltas) {
    out += ",\"d:";
    out += detail::json_escape(name);
    out += "\":" + std::to_string(delta);
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out += ",\"g:";
    out += detail::json_escape(name);
    out += "\":" + detail::fmt_double_exact(value);
  }
  for (const auto& [name, summary] : snapshot.histograms) {
    const std::string key = detail::json_escape(name);
    out += ",\"h:" + key + ":count\":" + std::to_string(summary.count);
    out += ",\"h:" + key + ":mean\":" + detail::fmt_double_exact(summary.mean);
    out += ",\"h:" + key + ":p50\":" + detail::fmt_double_exact(summary.p50);
    out += ",\"h:" + key + ":p90\":" + detail::fmt_double_exact(summary.p90);
    out += ",\"h:" + key + ":p99\":" + detail::fmt_double_exact(summary.p99);
    out += ",\"h:" + key + ":max\":" + detail::fmt_double_exact(summary.max);
  }
  for (const auto& sample : snapshot.labeled_counters) {
    const std::string key =
        detail::json_escape(sample.name + '{' + sample.labels + '}');
    out += ",\"c:" + key + "\":" + std::to_string(sample.value);
    out += ",\"d:" + key + "\":" + std::to_string(sample.delta);
  }
  for (const auto& sample : snapshot.labeled_gauges) {
    out += ",\"g:";
    out += detail::json_escape(sample.name + '{' + sample.labels + '}');
    out += "\":" + detail::fmt_double_exact(sample.value);
  }
  for (const auto& sample : snapshot.labeled_histograms) {
    const std::string key =
        detail::json_escape(sample.name + '{' + sample.labels + '}');
    const HistogramSummary& summary = sample.summary;
    out += ",\"h:" + key + ":count\":" + std::to_string(summary.count);
    out += ",\"h:" + key + ":mean\":" + detail::fmt_double_exact(summary.mean);
    out += ",\"h:" + key + ":p50\":" + detail::fmt_double_exact(summary.p50);
    out += ",\"h:" + key + ":p90\":" + detail::fmt_double_exact(summary.p90);
    out += ",\"h:" + key + ":p99\":" + detail::fmt_double_exact(summary.p99);
    out += ",\"h:" + key + ":max\":" + detail::fmt_double_exact(summary.max);
    out += ",\"h:" + key + ":exemplar\":" + std::to_string(sample.exemplar);
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

template <class T>
const T* find_entry(
    const std::vector<std::pair<std::string, const T*>>& entries,
    const std::string& name) {
  for (const auto& [n, e] : entries)
    if (n == name) return e;
  return nullptr;
}

/// A rule's counter: the plain counter `name`, else the sum of the
/// labeled family's entries (overflow is one of them), else 0.
std::uint64_t counter_total(const Registry& registry,
                            const std::string& name) {
  if (const Counter* c = find_entry(registry.counter_entries(), name))
    return c->value();
  const LabeledFamily<Counter>* family =
      find_entry(registry.labeled_counter_entries(), name);
  if (family == nullptr) return 0;
  std::uint64_t total = 0;
  for (const auto& [labels, child] : family->entries())
    total += child->value();
  return total;
}

/// A rule's histogram: the plain histogram `name`, else the labeled
/// family's entries merged into `scratch` (overflow is one of them),
/// else nullptr.
const LatencyHistogram* histogram_total(const Registry& registry,
                                        const std::string& name,
                                        LatencyHistogram& scratch) {
  if (const LatencyHistogram* h =
          find_entry(registry.histogram_entries(), name))
    return h;
  const LabeledFamily<LatencyHistogram>* family =
      find_entry(registry.labeled_histogram_entries(), name);
  if (family == nullptr) return nullptr;
  for (const auto& [labels, child] : family->entries()) scratch.merge(*child);
  return &scratch;
}

/// Extra JSONL lines attached to a fresh breach dump: one "breach" line
/// naming the worst labeled child of the breached metric (highest p99 —
/// the offending tenant/shard) with the exemplar trace ids retained in
/// its tail latency buckets, then one "profile" line per sampled stage
/// stack, so the dump answers both "who" and "where the time went".
std::vector<std::string> breach_context_lines(Registry& registry,
                                              const PumpSnapshot& snapshot,
                                              const AlertEvent& alert) {
  std::string labels;
  const LatencyHistogram* offender = nullptr;
  double worst_p99 = -1.0;
  for (const auto& [name, family] : registry.labeled_histogram_entries()) {
    if (name != alert.metric) continue;
    for (const auto& [child_labels, child] : family->entries()) {
      const double p99 = child->percentile(0.99);
      if (child->count() > 0 && p99 > worst_p99) {
        worst_p99 = p99;
        labels = child_labels;
        offender = child;
      }
    }
  }
  if (offender == nullptr)
    offender = find_entry(registry.histogram_entries(), alert.metric);

  // Exemplars from the buckets at/above the offender's p99 (the traces
  // that lived through the breach), falling back to its worst retained
  // exemplar so a breach line is never trace-less when one exists.
  std::string exemplars;
  if (offender != nullptr) {
    const int from = LatencyHistogram::bucket_of(
        static_cast<std::uint64_t>(offender->percentile(0.99)));
    for (int b = from; b < LatencyHistogram::kBuckets; ++b) {
      const std::uint64_t id = offender->exemplar(b);
      if (id == 0) continue;
      if (!exemplars.empty()) exemplars.push_back(',');
      exemplars += std::to_string(id);
    }
    if (exemplars.empty() && offender->worst_exemplar() != 0)
      exemplars = std::to_string(offender->worst_exemplar());
  }

  std::vector<std::string> lines;
  std::string line = "{\"type\":\"breach\",\"rule\":\"";
  line += detail::json_escape(alert.rule);
  line += "\",\"metric\":\"";
  line += detail::json_escape(alert.metric);
  line += "\",\"labels\":\"";
  line += detail::json_escape(labels);
  line += "\",\"value\":" + detail::fmt_double_exact(alert.value);
  line += ",\"threshold\":" + detail::fmt_double_exact(alert.threshold);
  line += ",\"exemplars\":\"" + exemplars + "\"}";
  lines.push_back(std::move(line));
  for (const ProfileEntry& entry : snapshot.profile)
    lines.push_back(profile_entry_to_json(entry));
  return lines;
}

}  // namespace

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

std::vector<AlertEvent> SloWatchdog::evaluate(const Registry& registry) {
  const std::scoped_lock lock(mutex_);
  std::vector<AlertEvent> alerts;
  for (RuleState& state : rules_) {
    const SloRule& rule = state.rule;
    double value = 0.0;
    bool have_value = true;

    switch (rule.kind) {
      case SloRule::Kind::kCounterValue: {
        const std::uint64_t now = counter_total(registry, rule.metric);
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
        const std::uint64_t num_now = counter_total(registry, rule.metric);
        const std::uint64_t den_now = counter_total(registry, rule.denominator);
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
        LatencyHistogram merged;
        const LatencyHistogram* h =
            histogram_total(registry, rule.metric, merged);
        if (h == nullptr || h->count() == 0) have_value = false;
        value = h != nullptr ? h->percentile(rule.quantile) : 0.0;
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
  PumpSnapshot snapshot;
  snapshot.tick = ++tick_count_;
  snapshot.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - born_)
          .count();

  for (const auto& [name, counter] : registry_.counter_entries())
    snapshot.counters.emplace_back(name, counter->value());
  snapshot.counter_deltas.reserve(snapshot.counters.size());
  for (const auto& [name, value] : snapshot.counters) {
    std::uint64_t prev = 0;
    const auto it = std::lower_bound(
        prev_counters_.begin(), prev_counters_.end(), name,
        [](const auto& entry, const std::string& key) {
          return entry.first < key;
        });
    if (it != prev_counters_.end() && it->first == name) prev = it->second;
    snapshot.counter_deltas.emplace_back(name,
                                         value >= prev ? value - prev : 0);
  }
  prev_counters_ = snapshot.counters;  // sorted (registry order)

  for (const auto& [name, gauge] : registry_.gauge_entries())
    snapshot.gauges.emplace_back(name, gauge->value());

  for (const auto& [name, histogram] : registry_.histogram_entries())
    snapshot.histograms.emplace_back(name, histogram->summary());

  for (const auto& [name, family] : registry_.labeled_counter_entries()) {
    for (const auto& [labels, child] : family->entries()) {
      LabeledCounterSample sample;
      sample.name = name;
      sample.labels = labels;
      sample.value = child->value();
      const std::string key = name + '{' + labels + '}';
      const auto it = prev_labeled_.find(key);
      const std::uint64_t prev = it != prev_labeled_.end() ? it->second : 0;
      sample.delta = sample.value >= prev ? sample.value - prev : 0;
      prev_labeled_[key] = sample.value;
      snapshot.labeled_counters.push_back(std::move(sample));
    }
  }
  for (const auto& [name, family] : registry_.labeled_gauge_entries()) {
    for (const auto& [labels, child] : family->entries()) {
      LabeledGaugeSample sample;
      sample.name = name;
      sample.labels = labels;
      sample.value = child->value();
      snapshot.labeled_gauges.push_back(std::move(sample));
    }
  }
  for (const auto& [name, family] : registry_.labeled_histogram_entries()) {
    for (const auto& [labels, child] : family->entries()) {
      LabeledHistogramSample sample;
      sample.name = name;
      sample.labels = labels;
      sample.summary = child->summary();
      sample.exemplar = child->worst_exemplar();
      snapshot.labeled_histograms.push_back(std::move(sample));
    }
  }

  if (options_.profiler != nullptr)
    snapshot.profile = options_.profiler->snapshot().entries;

  if (options_.watchdog != nullptr) {
    snapshot.alerts = options_.watchdog->evaluate(registry_);
    for (AlertEvent& alert : snapshot.alerts) {
      alert.tick = snapshot.tick;
      if (!alert.resolved && options_.recorder != nullptr) {
        alert.dump_path = options_.recorder->trigger_dump(
            options_.dump_dir,
            "slo-" + alert.rule + "-tick" + std::to_string(snapshot.tick),
            breach_context_lines(registry_, snapshot, alert));
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
