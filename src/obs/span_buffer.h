// Causal span records + a lock-free bounded ring buffer for them.
//
// A CausalSpanRecord is one closed span: besides the name and wall timing
// it carries the Dapper-style identity triple (trace_id, span_id,
// parent_span_id) that trace_assembler.h uses to reconstruct the causal
// tree of a distributed run, plus a node id, a virtual-time interval
// (protocol rounds / async virtual time), and two free attribute words.
//
// SpanBuffer is the flight-recorder ring those records land in: an
// 11-word packing over the shared lock-free SeqlockRing (seqlock_ring.h:
// writers never block, readers retry or skip slots that are mid-write),
// so span emission is safe from the parallel batch-routing threads and
// cheap enough for protocol inner loops.  Lost records (overwritten, or
// dropped by a writer lapped by a whole ring) are counted in dropped()
// and in the `lumen.obs.spans_dropped` counter.  With LUMEN_OBS_DISABLED
// emit() compiles to nothing and the ring holds no slots (see obs.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/obs.h"
#include "obs/seqlock_ring.h"

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

inline namespace LUMEN_OBS_MODE_NAMESPACE {

/// Fixed-capacity lock-free ring of CausalSpanRecords (one SeqlockRing
/// slot per record; concurrent emit/snapshot is data-race-free, and the
/// tsan preset runs the obs suite against it).
class SpanBuffer {
 public:
  static constexpr std::size_t kDefaultCapacity = 8192;

  /// Capacity is rounded up to a power of two (minimum 2; 0 with
  /// telemetry compiled out).
  explicit SpanBuffer(std::size_t capacity = kDefaultCapacity);
  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  /// The process-wide buffer every CausalSpan lands in by default.
  static SpanBuffer& global();

  /// Publishes one record.  Lock-free; never waits on another writer.
  /// Overwrites the oldest slot once full.
  void emit(const CausalSpanRecord& record) {
    if constexpr (kObsEnabled) publish(record);
  }

  /// The retained records, oldest first.  Skips slots that are being
  /// overwritten concurrently.
  [[nodiscard]] std::vector<CausalSpanRecord> snapshot() const;

  [[nodiscard]] std::size_t capacity() const noexcept {
    return ring_.capacity();
  }
  /// Records currently retained (<= capacity()).
  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  /// Records emitted over the buffer's lifetime.
  [[nodiscard]] std::uint64_t total_emitted() const noexcept {
    return ring_.total();
  }
  /// Records lost to ring wraparound or to lapped writers.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return ring_.dropped();
  }

  /// Resets the buffer to empty.  NOT safe concurrently with emit();
  /// intended for test isolation only.
  void clear() { ring_.clear(); }

 private:
  /// Packed word count of one record (see emit()/snapshot() in the .cc).
  static constexpr std::size_t kWords = 11;

  void publish(const CausalSpanRecord& record);

  SeqlockRing<kWords> ring_;
};

}  // inline namespace LUMEN_OBS_MODE_NAMESPACE
}  // namespace lumen::obs
