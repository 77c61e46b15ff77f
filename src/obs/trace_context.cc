#include "obs/trace_context.h"

#include <atomic>

#include "obs/profiler.h"

namespace lumen::obs {
inline namespace LUMEN_OBS_MODE_NAMESPACE {

namespace {

// Process-wide id allocators.  Ids start at 1: 0 is the "no trace" /
// "root span" sentinel in TraceContext and CausalSpanRecord.
std::atomic<std::uint64_t> g_next_trace_id{1};
std::atomic<std::uint64_t> g_next_span_id{1};

thread_local TraceContext t_ambient{};

std::uint64_t new_trace_id() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}
std::uint64_t new_span_id() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

TraceContext current_trace_context() noexcept { return t_ambient; }

void CausalSpan::open(TraceContext parent) {
  if (buffer_ == nullptr) buffer_ = &SpanBuffer::global();
  start_ = clock::now();
  if (parent.valid()) {
    trace_id_ = parent.trace_id;
    parent_span_id_ = parent.parent_span_id;
  } else {
    trace_id_ = new_trace_id();
    parent_span_id_ = 0;
  }
  span_id_ = new_span_id();
}

void CausalSpan::open_ambient() {
  open(t_ambient);
  ambient_ = true;
  previous_ = t_ambient;
  t_ambient = context();
  // Ambient spans double as profiler frames (see obs/profiler.h); the
  // matching close hook fires in finish().
  Profiler::global().on_span_open(name_);
}

void CausalSpan::finish() {
  open_ = false;
  if (ambient_) t_ambient = previous_;
  CausalSpanRecord record;
  record.trace_id = trace_id_;
  record.span_id = span_id_;
  record.parent_span_id = parent_span_id_;
  record.name = name_;
  record.node = node_;
  const auto since_epoch = start_.time_since_epoch();
  record.start_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(since_epoch)
          .count());
  record.duration_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           start_)
          .count());
  record.vt_begin = vt_begin_;
  record.vt_end = vt_end_;
  record.attr0 = attr0_;
  record.attr1 = attr1_;
  buffer_->emit(record);
  if (ambient_) Profiler::global().on_span_close(record.duration_ns);
}

TraceContext ScopedTraceContext::exchange(TraceContext ctx) noexcept {
  const TraceContext previous = t_ambient;
  t_ambient = ctx;
  return previous;
}

}  // inline namespace LUMEN_OBS_MODE_NAMESPACE
}  // namespace lumen::obs
