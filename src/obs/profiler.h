// Always-on cooperative sampling profiler over the CausalSpan stack.
//
// Every *ambient* CausalSpan (the scoped, thread-stacked kind — engine
// queries, svc admission, protocol rounds) doubles as a profiler frame:
// span open pushes its name onto a per-thread stage stack, span close
// pops it and, one close in every `sample_period`, publishes a weighted
// sample {stage stack, duration, weight = period} into the lock-free
// SeqlockRing that SpanBuffer also packs its records into
// (seqlock_ring.h).  No signals, no timer thread, no unwinding: the
// instrumentation the code already carries *is* the profile, and the
// steady-state cost on unsampled closes is a TLS decrement.
//
// snapshot() folds the ring into per-stack entries with weighted
// total time and self time (total minus direct children, clamped at
// zero — sampling noise can make children momentarily exceed their
// parent).  ProfileSnapshot::folded() renders classic folded-stack
// lines ("svc.admit;svc.route;engine.semilightpath 123456") ready for
// flamegraph tooling; profile_entry_to_json() renders the JSONL form
// used by breach dumps and the wire exporter (template 264).
//
// With LUMEN_OBS_DISABLED the span hooks compile to nothing and the ring
// holds no slots; the passive snapshot types stay available to
// collectors.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "obs/seqlock_ring.h"

namespace lumen::obs {

/// One aggregated stage stack.  Passive data (rides PumpSnapshot and
/// the wire protocol).
struct ProfileEntry {
  /// ';'-joined span names, root first ("svc.admit;svc.route").
  std::string stack;
  /// Estimated number of span closes this entry stands for (sum of
  /// sample weights).
  std::uint64_t samples = 0;
  /// Weighted nanoseconds attributed to this exact stack, excluding
  /// time in sampled child stacks.
  std::uint64_t self_ns = 0;
  /// Weighted nanoseconds including child stacks.
  std::uint64_t total_ns = 0;

  friend bool operator==(const ProfileEntry&, const ProfileEntry&) = default;
};

/// An aggregated profile: entries sorted by stack, plus ring accounting.
struct ProfileSnapshot {
  /// Raw ring samples this snapshot aggregated.
  std::uint64_t samples = 0;
  /// Samples lost to ring wraparound over the profiler's lifetime.
  std::uint64_t dropped = 0;
  std::vector<ProfileEntry> entries;

  /// Folded-stack text: one "stack self_ns" line per entry.
  [[nodiscard]] std::string folded() const;

  friend bool operator==(const ProfileSnapshot&,
                         const ProfileSnapshot&) = default;
};

/// {"type":"profile","stack":"...","samples":N,"self_ns":N,"total_ns":N}
[[nodiscard]] std::string profile_entry_to_json(const ProfileEntry& entry);

inline namespace LUMEN_OBS_MODE_NAMESPACE {

class Profiler {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;
  static constexpr std::uint32_t kDefaultSamplePeriod = 8;
  /// Frames retained per sample; deeper stacks fold into their 8th
  /// ancestor (the ambient nesting in this codebase is 3-4 deep).
  static constexpr std::size_t kMaxDepth = 8;

  /// Capacity is rounded up to a power of two (minimum 2; 0 with
  /// telemetry compiled out).
  explicit Profiler(std::size_t capacity = kDefaultCapacity,
                    std::uint32_t sample_period = kDefaultSamplePeriod);
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// The process-wide profiler every ambient CausalSpan reports to.
  static Profiler& global();

  /// CausalSpan hooks (ambient spans only; see trace_context.cc).
  /// `name` must outlive the profiler — string literals in practice.
  void on_span_open(const char* name) noexcept {
    if constexpr (kObsEnabled) push_frame(name);
  }
  void on_span_close(std::uint64_t duration_ns) {
    if constexpr (kObsEnabled) pop_frame(duration_ns);
  }

  /// Publishes one weighted sample directly (tests, bench, and replay
  /// tooling; the hook path derives stack/weight itself).
  void record(std::span<const char* const> stack, std::uint64_t duration_ns,
              std::uint64_t weight);

  /// Aggregates the ring into per-stack self/total profiles.
  [[nodiscard]] ProfileSnapshot snapshot() const;

  /// 1-in-N close sampling (per thread).  1 = sample every close.
  void set_sample_period(std::uint32_t period) noexcept {
    period_.store(period == 0 ? 1 : period, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t sample_period() const noexcept {
    return period_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const noexcept {
    return ring_.capacity();
  }
  /// Samples published over the profiler's lifetime.
  [[nodiscard]] std::uint64_t total_samples() const noexcept {
    return ring_.total();
  }
  /// Samples lost to ring wraparound or to lapped writers.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return ring_.dropped();
  }

  /// Resets the ring to empty.  NOT safe concurrently with record();
  /// intended for test isolation only.
  void clear() { ring_.clear(); }

 private:
  /// Packed sample: word0 = depth | weight<<8, word1 = duration_ns,
  /// words 2.. = frame name pointers (root first).
  static constexpr std::size_t kWords = 2 + kMaxDepth;

  void push_frame(const char* name) noexcept;
  void pop_frame(std::uint64_t duration_ns);

  SeqlockRing<kWords> ring_;
  std::atomic<std::uint32_t> period_{kDefaultSamplePeriod};
};

}  // inline namespace LUMEN_OBS_MODE_NAMESPACE
}  // namespace lumen::obs
