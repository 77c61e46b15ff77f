// Named telemetry instruments: counters and log-scale latency histograms.
//
// Counter and LatencyHistogram increments are lock-free (relaxed atomics)
// so hot routing paths can be instrumented without serialization.  The
// Registry maps stable names to instruments; call sites cache the
// reference once:
//
//   static obs::Counter& c = obs::Registry::global().counter("lumen.x");
//   c.add();
//
// which costs one relaxed fetch_add per event.  With LUMEN_OBS_DISABLED
// the write methods compile to nothing and the registry hands out one
// unlisted dummy per instrument kind (see obs.h).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "obs/tagset.h"

namespace lumen::obs {

/// RunningStats-compatible condensation of a histogram (the return type
/// of HistogramData::summary()).  Passive data.
struct HistogramSummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;

  friend bool operator==(const HistogramSummary&,
                         const HistogramSummary&) = default;
};

/// A passive copy of one LatencyHistogram: per-bucket counts and
/// exemplars, sum and extremes.  Every histogram read goes through it —
/// the instrument's own accessors, snapshots, the wire codec, the
/// Prometheus renderer and the SLO watchdog — so there is one percentile
/// implementation.  The same in both build modes (the wire codec moves
/// these between processes built either way).
///
/// Bucket 0 holds exact zeros; bucket b >= 1 holds [2^(b-1), 2^b).
struct HistogramData {
  /// 0, then 64 powers-of-two ranges: enough for any uint64 tick.
  static constexpr int kBuckets = 65;

  std::array<std::uint64_t, kBuckets> buckets{};
  /// The last trace_id recorded into each bucket (0 = none).
  std::array<std::uint64_t, kBuckets> exemplars{};
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< 0 when empty
  std::uint64_t max = 0;

  [[nodiscard]] std::uint64_t count() const noexcept;
  /// The q-th percentile (0 <= q <= 1) in ticks, linearly interpolated
  /// within the covering bucket.  0 when empty.
  [[nodiscard]] double percentile(double q) const noexcept;
  /// count/mean/min/max like RunningStats, plus p50/p90/p99 (ticks).
  [[nodiscard]] HistogramSummary summary() const noexcept;
  /// Adds `other`'s observations (buckets, sum, extremes); a bucket
  /// without an exemplar takes `other`'s.
  void merge(const HistogramData& other) noexcept;
  /// The exemplar of the highest bucket holding one: the last trace that
  /// went through the worst latency band this histogram has seen.
  [[nodiscard]] std::uint64_t worst_exemplar() const noexcept;

  /// Inclusive upper bound of bucket b: 0 for b == 0, else 2^b - 1.
  [[nodiscard]] static std::uint64_t bucket_upper_bound(int b) noexcept {
    if (b == 0) return 0;
    if (b >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << b) - 1;
  }
  [[nodiscard]] static int bucket_of(std::uint64_t ticks) noexcept {
    return ticks == 0 ? 0 : std::bit_width(ticks);
  }

  friend bool operator==(const HistogramData&, const HistogramData&) = default;
};

inline namespace LUMEN_OBS_MODE_NAMESPACE {

/// Monotonic event counter; increments are lock-free and thread-safe.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    if constexpr (kObsEnabled)
      value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins level instrument (utilization ratios, queue depths at
/// sample time).  Unlike a Counter it can move both ways; the pump
/// snapshots its current value, no delta semantics.  Lock-free: the
/// double travels as its bit pattern through one relaxed atomic.
class Gauge {
 public:
  void set(double v) noexcept {
    if constexpr (kObsEnabled)
      bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<std::uint64_t> bits_{0};  // 0 is the bit pattern of 0.0
};

/// Fixed-bucket base-2 log-scale histogram over unsigned ticks.
///
/// Buckets as in HistogramData.  For latencies the convention is ticks =
/// nanoseconds (use record_seconds / percentile_seconds); unit-less
/// quantities (queue depths, message counts) record raw ticks.  All
/// mutation is lock-free; reads copy the instrument into a HistogramData
/// (data()) and compute there, so percentiles interpolate linearly inside
/// the covering bucket and the relative error is bounded by the bucket
/// width (a factor of 2).
class LatencyHistogram {
 public:
  static constexpr int kBuckets = HistogramData::kBuckets;

  void record(std::uint64_t ticks) noexcept {
    if constexpr (!kObsEnabled) return;
    buckets_[bucket_of(ticks)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(ticks, std::memory_order_relaxed);
    update_extreme(min_, ticks, /*want_less=*/true);
    update_extreme(max_, ticks, /*want_less=*/false);
  }
  /// Same, also retaining `trace_id` as the covering bucket's exemplar
  /// (last writer wins; 0 means "no trace" and leaves the slot alone).
  void record(std::uint64_t ticks, std::uint64_t trace_id) noexcept {
    if constexpr (!kObsEnabled) return;
    record(ticks);
    if (trace_id != 0)
      exemplars_[bucket_of(ticks)].store(trace_id, std::memory_order_relaxed);
  }
  /// Records a duration in seconds as nanosecond ticks (negative -> 0).
  void record_seconds(double seconds) noexcept {
    record(seconds_to_ticks(seconds));
  }
  void record_seconds(double seconds, std::uint64_t trace_id) noexcept {
    record(seconds_to_ticks(seconds), trace_id);
  }

  /// A copy of every bucket, exemplar, the sum and the extremes.
  [[nodiscard]] HistogramData data() const noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return data().count(); }
  /// Sum of all recorded ticks.
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept { return summary().mean; }
  [[nodiscard]] std::uint64_t min() const noexcept { return data().min; }
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double percentile(double q) const noexcept {
    return data().percentile(q);
  }
  [[nodiscard]] double percentile_seconds(double q) const noexcept {
    return percentile(q) / 1e9;
  }
  [[nodiscard]] HistogramSummary summary() const noexcept {
    return data().summary();
  }

  void reset() noexcept;

  /// Observations in bucket b.
  [[nodiscard]] std::uint64_t bucket_count(int b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  /// The last trace_id recorded into bucket b (0 when none).
  [[nodiscard]] std::uint64_t exemplar(int b) const noexcept {
    return exemplars_[b].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t worst_exemplar() const noexcept {
    return data().worst_exemplar();
  }
  [[nodiscard]] static std::uint64_t bucket_upper_bound(int b) noexcept {
    return HistogramData::bucket_upper_bound(b);
  }
  [[nodiscard]] static int bucket_of(std::uint64_t ticks) noexcept {
    return HistogramData::bucket_of(ticks);
  }

 private:
  [[nodiscard]] static std::uint64_t seconds_to_ticks(double seconds) noexcept {
    return seconds <= 0.0 ? 0
                          : static_cast<std::uint64_t>(seconds * 1e9 + 0.5);
  }
  static void update_extreme(std::atomic<std::uint64_t>& slot,
                             std::uint64_t ticks, bool want_less) noexcept {
    std::uint64_t seen = slot.load(std::memory_order_relaxed);
    while (want_less ? ticks < seen : ticks > seen) {
      if (slot.compare_exchange_weak(seen, ticks, std::memory_order_relaxed))
        break;
    }
  }

  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> exemplars_[kBuckets] = {};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

}  // inline namespace LUMEN_OBS_MODE_NAMESPACE

namespace detail {

/// Bumps lumen.obs.labels_dropped (out of line so this header need not
/// name the global registry from template code).
void note_labels_dropped();

/// splitmix64 finalizer: spreads packed TagSet bits across the table.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace detail

inline namespace LUMEN_OBS_MODE_NAMESPACE {

/// One instrument per TagSet under a shared name ("lumen.svc.admitted"
/// keyed by {tenant=N}).  The hot path is a lock-free open-addressed
/// probe over packed TagSet keys -- one hash, one acquire load, then the
/// child's own relaxed atomics; only the first sighting of a label set
/// takes the family mutex.  Growth is capped: past `max_children`
/// distinct label sets, new ones collapse into the shared overflow()
/// child and lumen.obs.labels_dropped counts the loss, so a tag leak
/// (e.g. unbounded tenant ids) degrades to an aggregate instead of
/// eating memory.
template <class T>
class LabeledFamily {
 public:
  static constexpr std::size_t kDefaultMaxChildren = 256;

  explicit LabeledFamily(std::string name,
                         std::size_t max_children = kDefaultMaxChildren)
      : name_(std::move(name)),
        max_children_(std::max<std::size_t>(1, max_children)),
        mask_(std::bit_ceil(max_children_ * 2) - 1),
        slots_(mask_ + 1) {}
  LabeledFamily(const LabeledFamily&) = delete;
  LabeledFamily& operator=(const LabeledFamily&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// The child instrument for `tags`, created on first sight.  An empty
  /// set, any new set past the cardinality cap, or any set at all with
  /// telemetry compiled out lands in overflow().
  T& at(TagSet tags) {
    if constexpr (!kObsEnabled) return overflow_;
    const std::uint64_t key = tags.key();
    if (key == 0) return overflow_;
    std::size_t i = detail::mix64(key) & mask_;
    for (;;) {
      const std::uint64_t seen = slots_[i].key.load(std::memory_order_acquire);
      if (seen == key) return *slots_[i].child.load(std::memory_order_acquire);
      if (seen == 0) {
        T* child = insert(tags);
        if (child != nullptr) return *child;
        dropped_.fetch_add(1, std::memory_order_relaxed);
        detail::note_labels_dropped();
        return overflow_;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Shared sink for empty tag sets and post-cap overflow.
  [[nodiscard]] T& overflow() noexcept { return overflow_; }
  [[nodiscard]] const T& overflow() const noexcept { return overflow_; }

  /// Distinct label sets materialized so far.
  [[nodiscard]] std::size_t size() const {
    const std::scoped_lock lock(mutex_);
    return children_.size();
  }
  /// Increments routed to overflow() because the cap was hit.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t max_children() const noexcept {
    return max_children_;
  }

  /// (canonical labels, child) pairs sorted by labels, for snapshot().
  /// overflow() is listed first, under the empty label set, whenever it
  /// is nonzero: it is the family's unlabeled series.
  [[nodiscard]] std::vector<std::pair<std::string, const T*>> entries() const {
    std::vector<std::pair<std::string, const T*>> out;
    {
      const std::scoped_lock lock(mutex_);
      out.reserve(children_.size() + 1);
      for (const auto& child : children_)
        out.emplace_back(child->tags.canonical(), &child->instrument);
    }
    std::sort(out.begin(), out.end());
    bool overflowed = false;
    if constexpr (std::is_same_v<T, LatencyHistogram>)
      overflowed = overflow_.count() != 0;
    else
      overflowed = overflow_.value() != 0;
    if (overflowed) out.emplace(out.begin(), std::string{}, &overflow_);
    return out;
  }

  /// Zeroes every child (label registrations survive).  For tests.
  void reset() {
    const std::scoped_lock lock(mutex_);
    for (auto& child : children_) child->instrument.reset();
    overflow_.reset();
    dropped_.store(0, std::memory_order_relaxed);
  }

 private:
  struct Child {
    TagSet tags;
    T instrument;
  };
  struct Slot {
    std::atomic<std::uint64_t> key{0};
    std::atomic<T*> child{nullptr};
  };

  /// Slow path: re-probe and publish under the mutex.  Returns nullptr
  /// when the family is at its cardinality cap.
  T* insert(TagSet tags) {
    const std::uint64_t key = tags.key();
    const std::scoped_lock lock(mutex_);
    std::size_t i = detail::mix64(key) & mask_;
    for (;;) {
      const std::uint64_t seen =
          slots_[i].key.load(std::memory_order_relaxed);
      if (seen == key) return slots_[i].child.load(std::memory_order_relaxed);
      if (seen == 0) break;
      i = (i + 1) & mask_;
    }
    if (children_.size() >= max_children_) return nullptr;
    children_.push_back(std::make_unique<Child>());
    Child* child = children_.back().get();
    child->tags = tags;
    // Child before key: a reader that acquires the key must see the
    // pointer (and the zero-initialized instrument behind it).
    slots_[i].child.store(&child->instrument, std::memory_order_release);
    slots_[i].key.store(key, std::memory_order_release);
    return &child->instrument;
  }

  std::string name_;
  std::size_t max_children_;
  std::size_t mask_;
  std::vector<Slot> slots_;
  T overflow_;
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Child>> children_;
};

/// Name -> instrument map.  Lookup takes a mutex (cache the reference at
/// call sites); the returned references stay valid for the registry's
/// lifetime.  A process-wide instance is available via global().
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& global();

  /// The counter/gauge/histogram registered under `name`, creating it on
  /// first use.  Thread-safe.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LatencyHistogram& histogram(std::string_view name);

  /// The labeled family registered under `name`, creating it on first
  /// use.  A family may share its name with a plain instrument: snapshot()
  /// folds the family's overflow child into the plain instrument's
  /// unlabeled series and lists the labeled children beside it.  An SLO
  /// rule reads the total over every series of its name.
  LabeledFamily<Counter>& labeled_counter(std::string_view name);
  LabeledFamily<Gauge>& labeled_gauge(std::string_view name);
  LabeledFamily<LatencyHistogram>& labeled_histogram(std::string_view name);

  /// Sorted (name, instrument) views.  obs::snapshot() (obs/slo.h) is
  /// their one reader: exporters and the watchdog read its PumpSnapshot.
  [[nodiscard]] std::vector<std::pair<std::string, const Counter*>>
  counter_entries() const;
  [[nodiscard]] std::vector<std::pair<std::string, const Gauge*>>
  gauge_entries() const;
  [[nodiscard]] std::vector<std::pair<std::string, const LatencyHistogram*>>
  histogram_entries() const;
  [[nodiscard]] std::vector<
      std::pair<std::string, const LabeledFamily<Counter>*>>
  labeled_counter_entries() const;
  [[nodiscard]] std::vector<std::pair<std::string, const LabeledFamily<Gauge>*>>
  labeled_gauge_entries() const;
  [[nodiscard]] std::vector<
      std::pair<std::string, const LabeledFamily<LatencyHistogram>*>>
  labeled_histogram_entries() const;

  /// Zeroes every instrument (registrations survive).  For tests.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      histograms_;
  std::map<std::string, std::unique_ptr<LabeledFamily<Counter>>, std::less<>>
      labeled_counters_;
  std::map<std::string, std::unique_ptr<LabeledFamily<Gauge>>, std::less<>>
      labeled_gauges_;
  std::map<std::string, std::unique_ptr<LabeledFamily<LatencyHistogram>>,
           std::less<>>
      labeled_histograms_;
};

}  // inline namespace LUMEN_OBS_MODE_NAMESPACE
}  // namespace lumen::obs
