#include "obs/registry.h"

#include <algorithm>
#include <cmath>

namespace lumen::obs {
inline namespace LUMEN_OBS_MODE_NAMESPACE {

std::uint64_t LatencyHistogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& bucket : buckets_)
    total += bucket.load(std::memory_order_relaxed);
  return total;
}

double LatencyHistogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0
                : static_cast<double>(sum()) / static_cast<double>(n);
}

std::uint64_t LatencyHistogram::min() const noexcept {
  const std::uint64_t m = min_.load(std::memory_order_relaxed);
  return m == ~std::uint64_t{0} ? 0 : m;
}

std::uint64_t LatencyHistogram::max() const noexcept {
  return max_.load(std::memory_order_relaxed);
}

double LatencyHistogram::percentile(double q) const noexcept {
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t counts[kBuckets];
  std::uint64_t total = 0;
  for (int b = 0; b < kBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) return 0.0;

  // The rank-q observation (nearest-rank, 1-based), then interpolate by
  // its position within the covering bucket's [lower, upper] tick range.
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(total))));
  std::uint64_t cumulative = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (counts[b] == 0) continue;
    if (cumulative + counts[b] < rank) {
      cumulative += counts[b];
      continue;
    }
    if (b == 0) return 0.0;
    const double lower = static_cast<double>(std::uint64_t{1} << (b - 1));
    const double upper = 2.0 * lower;
    const double within = static_cast<double>(rank - cumulative - 1) /
                          static_cast<double>(counts[b]);
    return lower + (upper - lower) * within;
  }
  return static_cast<double>(max());
}

HistogramSummary LatencyHistogram::summary() const noexcept {
  HistogramSummary s;
  s.count = count();
  s.mean = mean();
  s.min = static_cast<double>(min());
  s.max = static_cast<double>(max());
  s.p50 = percentile(0.50);
  s.p90 = percentile(0.90);
  s.p99 = percentile(0.99);
  return s;
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  for (int b = 0; b < kBuckets; ++b)
    buckets_[b].fetch_add(other.bucket_count(b), std::memory_order_relaxed);
  sum_.fetch_add(other.sum(), std::memory_order_relaxed);
  // An empty `other` holds the identity extremes, which change nothing.
  update_extreme(min_, other.min_.load(std::memory_order_relaxed),
                 /*want_less=*/true);
  update_extreme(max_, other.max(), /*want_less=*/false);
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
