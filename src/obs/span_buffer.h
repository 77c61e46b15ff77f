// Causal span records + a lock-free bounded ring buffer for them.
//
// A CausalSpanRecord is one closed span: besides the name and wall timing
// it carries the Dapper-style identity triple (trace_id, span_id,
// parent_span_id) that trace_assembler.h uses to reconstruct the causal
// tree of a distributed run, plus a node id, a virtual-time interval
// (protocol rounds / async virtual time), and two free attribute words.
//
// SpanBuffer is the flight-recorder ring those records land in.  It is
// lock-free on the emit path (a seqlock per slot: writers never block,
// readers retry or skip slots that are mid-write), so span emission is
// safe from the parallel batch-routing threads and cheap enough for
// protocol inner loops.  Overwritten records are counted in dropped() and
// in the `lumen.obs.spans_dropped` counter.  With LUMEN_OBS_DISABLED
// everything here is a no-op (see obs.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/obs.h"

namespace lumen::obs {

/// Node id value meaning "no node recorded on this span".
inline constexpr std::uint32_t kSpanNoNode = 0xffffffffu;

/// One closed causal span.  `name` must point to storage outliving the
/// buffer (string literals in practice).  vt_begin/vt_end < 0 mean "no
/// virtual-time interval recorded".
struct CausalSpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  /// 0 = root span of its trace.
  std::uint64_t parent_span_id = 0;
  const char* name = nullptr;
  /// Physical node the span belongs to, or kSpanNoNode.
  std::uint32_t node = kSpanNoNode;
  /// Steady-clock open timestamp in ns (arbitrary epoch).
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  /// Protocol virtual time covered by the span (sync rounds or async
  /// virtual time); negative when not recorded.
  double vt_begin = -1.0;
  double vt_end = -1.0;
  /// Span-kind specific payload (documented per emitting site).
  std::uint64_t attr0 = 0;
  std::uint64_t attr1 = 0;

  friend bool operator==(const CausalSpanRecord&,
                         const CausalSpanRecord&) = default;
};

}  // namespace lumen::obs

#if LUMEN_OBS_ENABLED

#include <array>
#include <atomic>
#include <memory>

namespace lumen::obs {
inline namespace enabled {

/// Fixed-capacity lock-free ring of CausalSpanRecords.
///
/// Each slot is guarded by a seqlock: emit() takes a ticket from a global
/// counter, marks the slot odd, publishes the record words, then marks it
/// even again.  snapshot() copies slots optimistically and keeps only
/// internally-consistent reads, returning records ordered by emission.
/// All record words are stored as relaxed atomics between two fences, so
/// concurrent emit/snapshot is data-race-free (the tsan preset runs the
/// obs suite against this).
class SpanBuffer {
 public:
  static constexpr std::size_t kDefaultCapacity = 8192;

  /// Capacity is rounded up to a power of two (minimum 2).
  explicit SpanBuffer(std::size_t capacity = kDefaultCapacity);
  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  /// The process-wide buffer every CausalSpan lands in by default.
  static SpanBuffer& global();

  /// Publishes one record.  Lock-free; wait-free except for the ticket
  /// fetch_add.  Overwrites the oldest slot once full.
  void emit(const CausalSpanRecord& record);

  /// The retained records, oldest first.  Skips slots that are being
  /// overwritten concurrently.
  [[nodiscard]] std::vector<CausalSpanRecord> snapshot() const;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Records currently retained (<= capacity()).
  [[nodiscard]] std::size_t size() const noexcept;
  /// Records emitted over the buffer's lifetime.
  [[nodiscard]] std::uint64_t total_emitted() const noexcept;
  /// Records lost to ring wraparound.
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  /// Resets the buffer to empty.  NOT safe concurrently with emit();
  /// intended for test isolation only.
  void clear();

 private:
  /// Packed word count of one record (see pack()/unpack() in the .cc).
  static constexpr std::size_t kWords = 11;

  struct Slot {
    /// Seqlock word: 0 = never written; odd = write in progress;
    /// 2*ticket + 2 = record of `ticket` fully published.
    std::atomic<std::uint64_t> seq{0};
    std::array<std::atomic<std::uint64_t>, kWords> words{};
  };

  std::size_t capacity_;  // power of two
  std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> next_{0};  // ticket counter = lifetime total
};

}  // inline namespace enabled
}  // namespace lumen::obs

#else  // LUMEN_OBS_ENABLED

namespace lumen::obs {
inline namespace disabled {

/// No-op stand-in: see the enabled definition for semantics.
class SpanBuffer {
 public:
  static constexpr std::size_t kDefaultCapacity = 8192;
  explicit SpanBuffer(std::size_t = kDefaultCapacity) {}
  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;
  static SpanBuffer& global() {
    static SpanBuffer instance;
    return instance;
  }
  void emit(const CausalSpanRecord&) {}
  [[nodiscard]] std::vector<CausalSpanRecord> snapshot() const { return {}; }
  [[nodiscard]] std::size_t capacity() const noexcept { return 0; }
  [[nodiscard]] std::size_t size() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t total_emitted() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return 0; }
  void clear() {}
};

}  // inline namespace disabled
}  // namespace lumen::obs

#endif  // LUMEN_OBS_ENABLED
