// The one lock-free record ring under SpanBuffer and Profiler.
//
// A fixed-capacity ring of records of up to kWords 64-bit words, guarded
// per slot by a seqlock.  Writers take a ticket from one counter and
// claim slot `ticket & (capacity - 1)` with a CAS on its sequence word
// (0 = never written, odd 2t+1 = ticket t writing, even 2t+2 = ticket t
// published).  The claim succeeds only from an even value older than the
// writer's own ticket, so one writer at a time owns a slot's words.  A
// writer lapped by a whole ring (it finds the slot mid-write, or already
// holding a newer ticket) drops its own record instead of waiting, so
// writers never block.  Readers copy a slot optimistically and keep the
// copy only when its sequence word is even and unchanged across it.
//
// A publish loses at most one record: its own (lapped) or the slot's
// previous occupant (overwritten); filling an empty slot loses none.
// Once writers are quiescent, size() + dropped() == total(), and the
// losses publish() reports sum to dropped(), so the owners' registry
// drop counters stay exact.
//
// With LUMEN_OBS_DISABLED the ring allocates no slots, reports
// capacity() 0 and publish() keeps nothing.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace lumen::obs {

namespace detail {

// ThreadSanitizer does not model std::atomic_thread_fence (GCC rejects it
// outright under -Werror=tsan), so under tsan the seqlock's fence+relaxed
// word accesses become ordered per-word accesses: release stores keep the
// odd marker ahead of the payload, acquire loads keep the payload ahead of
// the seq re-check.  Plain builds keep the cheaper fence form.
#if defined(__SANITIZE_THREAD__)
inline constexpr std::memory_order kSeqlockWordStore =
    std::memory_order_release;
inline constexpr std::memory_order kSeqlockWordLoad =
    std::memory_order_acquire;
inline void seqlock_release_fence() {}
inline void seqlock_acquire_fence() {}
#else
inline constexpr std::memory_order kSeqlockWordStore =
    std::memory_order_relaxed;
inline constexpr std::memory_order kSeqlockWordLoad =
    std::memory_order_relaxed;
inline void seqlock_release_fence() {
  std::atomic_thread_fence(std::memory_order_release);
}
inline void seqlock_acquire_fence() {
  std::atomic_thread_fence(std::memory_order_acquire);
}
#endif

}  // namespace detail

template <std::size_t kWords>
class SeqlockRing {
 public:
  using Record = std::array<std::uint64_t, kWords>;

  /// Capacity is rounded up to a power of two (minimum 2; 0 with
  /// telemetry compiled out).
  explicit SeqlockRing(std::size_t capacity)
      : capacity_(kObsEnabled
                      ? std::bit_ceil(std::max<std::size_t>(capacity, 2))
                      : 0),
        slots_(kObsEnabled ? std::make_unique<Slot[]>(capacity_) : nullptr) {}
  SeqlockRing(const SeqlockRing&) = delete;
  SeqlockRing& operator=(const SeqlockRing&) = delete;

  /// Publishes one record: `words` (at most kWords; a shorter record
  /// leaves the slot's tail words stale, so its packing must carry its
  /// own length).  Lock-free; never waits on another writer.  Returns
  /// true when this call cost a record: its own, because a writer a lap
  /// ahead or behind holds the slot, or the older record it overwrote.
  bool publish(std::span<const std::uint64_t> words) {
    if constexpr (!kObsEnabled) return false;
    const std::uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[ticket & (capacity_ - 1)];
    const std::uint64_t writing = 2 * ticket + 1;
    std::uint64_t seen = slot.seq.load(std::memory_order_relaxed);
    do {
      if ((seen & 1) != 0 || seen > writing) return true;  // lapped
      // Acquire on success: the previous writer's words happen-before
      // ours, so ours are the later stores to every word.
    } while (!slot.seq.compare_exchange_weak(seen, writing,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed));
    // Odd marker before the payload; the payload is relaxed because
    // racing readers discard inconsistent copies by the seq re-check.
    detail::seqlock_release_fence();
    for (std::size_t i = 0; i < words.size(); ++i)
      slot.words[i].store(words[i], detail::kSeqlockWordStore);
    slot.seq.store(writing + 1, std::memory_order_release);
    return seen != 0;
  }

  /// Consistent copies of the retained records, oldest first.  A slot
  /// that stays mid-write across a few re-reads is skipped.
  [[nodiscard]] std::vector<Record> snapshot() const {
    std::vector<std::pair<std::uint64_t, Record>> got;
    got.reserve(size());
    for (std::size_t i = 0; i < capacity_; ++i) {
      const Slot& slot = slots_[i];
      for (int attempt = 0; attempt < 4; ++attempt) {
        const std::uint64_t seq1 = slot.seq.load(std::memory_order_acquire);
        if (seq1 == 0) break;           // never written
        if ((seq1 & 1) != 0) continue;  // write in progress: retry
        Record record;
        for (std::size_t w = 0; w < kWords; ++w)
          record[w] = slot.words[w].load(detail::kSeqlockWordLoad);
        detail::seqlock_acquire_fence();
        if (slot.seq.load(std::memory_order_relaxed) != seq1) continue;
        got.emplace_back(seq1, record);  // seq order is ticket order
        break;
      }
    }
    std::sort(got.begin(), got.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<Record> out;
    out.reserve(got.size());
    for (const auto& [seq, record] : got) out.push_back(record);
    return out;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Records retained (<= capacity()).
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(total(), capacity_));
  }
  /// Records published over the ring's lifetime (kept or lost).
  [[nodiscard]] std::uint64_t total() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }
  /// Records lost: overwritten, or dropped by a lapped writer.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return total() - size();
  }

  /// Resets the ring to empty.  NOT safe concurrently with publish();
  /// intended for test isolation only.
  void clear() {
    next_.store(0, std::memory_order_relaxed);
    for (std::size_t i = 0; i < capacity_; ++i)
      slots_[i].seq.store(0, std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::array<std::atomic<std::uint64_t>, kWords> words{};
  };

  std::size_t capacity_;  // power of two, or 0 with telemetry compiled out
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> next_{0};  // ticket counter
};

}  // namespace lumen::obs
