#include "obs/span_buffer.h"

#include <bit>

#include "obs/registry.h"

namespace lumen::obs {
inline namespace LUMEN_OBS_MODE_NAMESPACE {

SpanBuffer::SpanBuffer(std::size_t capacity) : ring_(capacity) {}

SpanBuffer& SpanBuffer::global() {
  static SpanBuffer instance;
  return instance;
}

void SpanBuffer::publish(const CausalSpanRecord& r) {
  const std::uint64_t words[kWords] = {
      r.trace_id,
      r.span_id,
      r.parent_span_id,
      static_cast<std::uint64_t>(std::bit_cast<std::uintptr_t>(r.name)),
      static_cast<std::uint64_t>(r.node),
      r.start_ns,
      r.duration_ns,
      std::bit_cast<std::uint64_t>(r.vt_begin),
      std::bit_cast<std::uint64_t>(r.vt_end),
      r.attr0,
      r.attr1,
  };
  if (ring_.publish(words)) {
    static Counter& spans_dropped =
        Registry::global().counter("lumen.obs.spans_dropped");
    spans_dropped.add();
  }
}

std::vector<CausalSpanRecord> SpanBuffer::snapshot() const {
  const auto records = ring_.snapshot();
  std::vector<CausalSpanRecord> out;
  out.reserve(records.size());
  for (const auto& words : records) {
    CausalSpanRecord& r = out.emplace_back();
    r.trace_id = words[0];
    r.span_id = words[1];
    r.parent_span_id = words[2];
    r.name =
        std::bit_cast<const char*>(static_cast<std::uintptr_t>(words[3]));
    r.node = static_cast<std::uint32_t>(words[4]);
    r.start_ns = words[5];
    r.duration_ns = words[6];
    r.vt_begin = std::bit_cast<double>(words[7]);
    r.vt_end = std::bit_cast<double>(words[8]);
    r.attr0 = words[9];
    r.attr1 = words[10];
  }
  return out;
}

}  // inline namespace LUMEN_OBS_MODE_NAMESPACE
}  // namespace lumen::obs
