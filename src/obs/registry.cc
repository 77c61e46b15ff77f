#include "obs/registry.h"

#include <algorithm>
#include <cmath>

namespace lumen::obs {

std::uint64_t HistogramData::count() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t n : buckets) total += n;
  return total;
}

double HistogramData::percentile(double q) const noexcept {
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t total = count();
  if (total == 0) return 0.0;

  // The rank-q observation (nearest-rank, 1-based), then interpolate by
  // its position within the covering bucket's [lower, upper] tick range.
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(total))));
  std::uint64_t cumulative = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (cumulative + buckets[b] < rank) {
      cumulative += buckets[b];
      continue;
    }
    if (b == 0) return 0.0;
    const double lower = static_cast<double>(std::uint64_t{1} << (b - 1));
    const double upper = 2.0 * lower;
    const double within = static_cast<double>(rank - cumulative - 1) /
                          static_cast<double>(buckets[b]);
    return lower + (upper - lower) * within;
  }
  return static_cast<double>(max);
}

HistogramSummary HistogramData::summary() const noexcept {
  HistogramSummary s;
  s.count = count();
  s.mean = s.count == 0 ? 0.0
                        : static_cast<double>(sum) /
                              static_cast<double>(s.count);
  s.min = static_cast<double>(min);
  s.max = static_cast<double>(max);
  s.p50 = percentile(0.50);
  s.p90 = percentile(0.90);
  s.p99 = percentile(0.99);
  return s;
}

void HistogramData::merge(const HistogramData& other) noexcept {
  const bool was_empty = count() == 0;
  for (int b = 0; b < kBuckets; ++b) {
    buckets[b] += other.buckets[b];
    if (exemplars[b] == 0) exemplars[b] = other.exemplars[b];
  }
  sum += other.sum;
  if (other.count() == 0) return;  // an empty `other` holds no extremes
  min = was_empty ? other.min : std::min(min, other.min);
  max = std::max(max, other.max);
}

std::uint64_t HistogramData::worst_exemplar() const noexcept {
  for (int b = kBuckets - 1; b >= 0; --b)
    if (exemplars[b] != 0) return exemplars[b];
  return 0;
}

inline namespace LUMEN_OBS_MODE_NAMESPACE {

HistogramData LatencyHistogram::data() const noexcept {
  HistogramData d;
  for (int b = 0; b < kBuckets; ++b) {
    d.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    d.exemplars[b] = exemplars_[b].load(std::memory_order_relaxed);
  }
  d.sum = sum();
  const std::uint64_t m = min_.load(std::memory_order_relaxed);
  d.min = m == ~std::uint64_t{0} ? 0 : m;
  d.max = max();
  return d;
}

void LatencyHistogram::reset() noexcept {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

namespace {

/// The instrument registered in `instruments` under `name`, created on
/// first use.  With telemetry compiled out nothing is registered: every
/// name of a kind shares one dummy, so the exporters see an empty
/// registry.
template <class Map>
auto& find_or_add(std::mutex& mutex, Map& instruments, std::string_view name) {
  using T = typename Map::mapped_type::element_type;
  const auto make = [name] {
    if constexpr (std::is_default_constructible_v<T>)
      return std::make_unique<T>();
    else
      return std::make_unique<T>(std::string(name));
  };
  if constexpr (!kObsEnabled) {
    static const std::unique_ptr<T> dummy = make();
    return *dummy;
  }
  const std::scoped_lock lock(mutex);
  const auto it = instruments.find(name);
  if (it != instruments.end()) return *it->second;
  return *instruments.emplace(std::string(name), make()).first->second;
}

/// Sorted (name, instrument) views of `instruments`.
template <class Map>
auto entries_of(std::mutex& mutex, const Map& instruments) {
  const std::scoped_lock lock(mutex);
  std::vector<
      std::pair<std::string, const typename Map::mapped_type::element_type*>>
      entries;
  entries.reserve(instruments.size());
  for (const auto& [name, instrument] : instruments)
    entries.emplace_back(name, instrument.get());
  return entries;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  return find_or_add(mutex_, counters_, name);
}

Gauge& Registry::gauge(std::string_view name) {
  return find_or_add(mutex_, gauges_, name);
}

LatencyHistogram& Registry::histogram(std::string_view name) {
  return find_or_add(mutex_, histograms_, name);
}

LabeledFamily<Counter>& Registry::labeled_counter(std::string_view name) {
  return find_or_add(mutex_, labeled_counters_, name);
}

LabeledFamily<Gauge>& Registry::labeled_gauge(std::string_view name) {
  return find_or_add(mutex_, labeled_gauges_, name);
}

LabeledFamily<LatencyHistogram>& Registry::labeled_histogram(
    std::string_view name) {
  return find_or_add(mutex_, labeled_histograms_, name);
}

std::vector<std::pair<std::string, const Counter*>> Registry::counter_entries()
    const {
  return entries_of(mutex_, counters_);
}

std::vector<std::pair<std::string, const Gauge*>> Registry::gauge_entries()
    const {
  return entries_of(mutex_, gauges_);
}

std::vector<std::pair<std::string, const LatencyHistogram*>>
Registry::histogram_entries() const {
  return entries_of(mutex_, histograms_);
}

std::vector<std::pair<std::string, const LabeledFamily<Counter>*>>
Registry::labeled_counter_entries() const {
  return entries_of(mutex_, labeled_counters_);
}

std::vector<std::pair<std::string, const LabeledFamily<Gauge>*>>
Registry::labeled_gauge_entries() const {
  return entries_of(mutex_, labeled_gauges_);
}

std::vector<std::pair<std::string, const LabeledFamily<LatencyHistogram>*>>
Registry::labeled_histogram_entries() const {
  return entries_of(mutex_, labeled_histograms_);
}

void Registry::reset() {
  const std::scoped_lock lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
  for (auto& [name, family] : labeled_counters_) family->reset();
  for (auto& [name, family] : labeled_gauges_) family->reset();
  for (auto& [name, family] : labeled_histograms_) family->reset();
}

}  // inline namespace LUMEN_OBS_MODE_NAMESPACE

namespace detail {

void note_labels_dropped() {
  static Counter& dropped =
      Registry::global().counter("lumen.obs.labels_dropped");
  dropped.add();
}

}  // namespace detail
}  // namespace lumen::obs
