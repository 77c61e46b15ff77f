// Trace-context propagation: the identity that ties a distributed run's
// spans into one causal tree.
//
// A TraceContext is the Dapper-style pair {trace_id, parent_span_id}.  It
// is plain passive data (always compiled, freely copyable) so protocol
// messages can carry one by value even in LUMEN_OBS_DISABLED builds —
// there it just stays zero.
//
// CausalSpan is the RAII emitter.  Two construction modes:
//
//   obs::CausalSpan span("rwa.open");          // ambient: parents under
//                                              // the thread's current
//                                              // context (or starts a new
//                                              // trace) and installs
//                                              // itself as the context
//                                              // until close()
//
//   obs::CausalSpan span("dist.node_round", offer.ctx);
//                                              // explicit parent: links
//                                              // under the message that
//                                              // caused it; does not
//                                              // touch the thread-local
//                                              // context
//
// On close() (or destruction) one CausalSpanRecord lands in the target
// SpanBuffer.  Ambient spans must close in LIFO order per thread (the
// usual scoped usage).  With LUMEN_OBS_DISABLED both modes compile to
// no-ops (the header never calls out of line) and context() returns the
// zero context.
#pragma once

#include <chrono>
#include <cstdint>

#include "obs/obs.h"
#include "obs/span_buffer.h"

namespace lumen::obs {

/// Causal coordinates carried on messages: which trace an event belongs
/// to and which span caused it.  trace_id 0 = "no trace" (the zero
/// context propagated by obs-off builds).
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;

  [[nodiscard]] bool valid() const noexcept { return trace_id != 0; }

  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

inline namespace LUMEN_OBS_MODE_NAMESPACE {

/// The calling thread's current ambient trace context ({0,0} when no
/// ambient CausalSpan is open on this thread).
[[nodiscard]] TraceContext current_trace_context() noexcept;

/// RAII causal span: opens on construction, emits one CausalSpanRecord
/// into `buffer` (nullptr = SpanBuffer::global()) on close() or
/// destruction.
class CausalSpan {
 public:
  /// Ambient mode: parents under current_trace_context() — starting a
  /// fresh trace when there is none — and installs this span's context as
  /// the thread's ambient context until close().
  explicit CausalSpan(const char* name, SpanBuffer* buffer = nullptr)
      : name_(name), buffer_(buffer) {
    if constexpr (kObsEnabled) open_ambient();
  }

  /// Explicit-parent mode: links under `parent` (a fresh trace when
  /// `parent` is invalid).  Leaves the thread-local context alone, so it
  /// is safe for event-loop code emitting many sibling spans.
  CausalSpan(const char* name, TraceContext parent,
             SpanBuffer* buffer = nullptr)
      : name_(name), buffer_(buffer) {
    if constexpr (kObsEnabled) open(parent);
  }

  CausalSpan(const CausalSpan&) = delete;
  CausalSpan& operator=(const CausalSpan&) = delete;
  ~CausalSpan() { close(); }

  /// Emits the record now (and, for ambient spans, restores the previous
  /// ambient context); later close()/destruction is a no-op.
  void close() {
    if constexpr (kObsEnabled)
      if (open_) finish();
  }

  /// This span's identity as a context for children/messages.
  [[nodiscard]] TraceContext context() const noexcept {
    return {trace_id_, span_id_};
  }
  [[nodiscard]] std::uint64_t trace_id() const noexcept { return trace_id_; }
  [[nodiscard]] std::uint64_t span_id() const noexcept { return span_id_; }

  /// Optional record fields (see CausalSpanRecord).
  void set_node(std::uint32_t node) noexcept { node_ = node; }
  void set_virtual_interval(double begin, double end) noexcept {
    vt_begin_ = begin;
    vt_end_ = end;
  }
  void set_attributes(std::uint64_t a0, std::uint64_t a1) noexcept {
    attr0_ = a0;
    attr1_ = a1;
  }

 private:
  using clock = std::chrono::steady_clock;

  void open(TraceContext parent);
  void open_ambient();
  void finish();

  const char* name_;
  SpanBuffer* buffer_;
  clock::time_point start_{};
  std::uint64_t trace_id_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_span_id_ = 0;
  std::uint32_t node_ = kSpanNoNode;
  double vt_begin_ = -1.0;
  double vt_end_ = -1.0;
  std::uint64_t attr0_ = 0;
  std::uint64_t attr1_ = 0;
  TraceContext previous_{};  // ambient spans: context to restore
  bool ambient_ = false;
  bool open_ = true;
};

/// Installs `ctx` as the thread's ambient trace context for the current
/// scope (restores the previous one on destruction).  Lets worker threads
/// adopt a request's context before running ambient-instrumented code.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx) noexcept {
    if constexpr (kObsEnabled) previous_ = exchange(ctx);
  }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;
  ~ScopedTraceContext() {
    if constexpr (kObsEnabled) exchange(previous_);
  }

 private:
  /// Installs `ctx` as the thread's ambient context; returns the old one.
  static TraceContext exchange(TraceContext ctx) noexcept;

  TraceContext previous_{};
};

}  // inline namespace LUMEN_OBS_MODE_NAMESPACE
}  // namespace lumen::obs
