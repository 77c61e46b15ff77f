// In-memory span recording for the traced benchmark run.
//
// The benchmark wraps every public call it makes into a layer (svc, rwa,
// core) in one span: name, start, end, parent and request id.  Each client
// thread appends to its own SpanBuffer without locking; the buffers are
// summarized and written out only after the measured window closes.  No
// span is recorded inside the library itself, so a layer's self time is
// the time the benchmark spent blocked in its public calls.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns();

enum class SpanName : std::uint8_t {
  kSvcOpen,
  kSvcClose,
  kRwaOpen,
  kRwaClose,
  kRwaFailSpan,
  kRwaRepairSpan,
  kCoreRoute,  ///< route_semilightpath, the paper's per-request router
  kCount,
};
inline constexpr std::size_t kNumSpanNames =
    static_cast<std::size_t>(SpanName::kCount);

[[nodiscard]] const char* span_name(SpanName name);
/// The repo module a span's calls enter ("svc", "rwa" or "core").
[[nodiscard]] const char* span_layer(SpanName name);

struct Span {
  static constexpr std::uint32_t kNoParent = UINT32_MAX;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t request = 0;  ///< session, cut or demand id
  std::uint32_t parent = kNoParent;  ///< index into the same buffer
  SpanName name = SpanName::kCount;
};

/// One client thread's spans, in completion order.
class SpanBuffer {
 public:
  SpanBuffer() { spans_.reserve(1 << 16); }
  void record(SpanName name, std::uint64_t request, std::int64_t start_ns,
              std::int64_t end_ns, std::uint32_t parent = Span::kNoParent) {
    spans_.push_back(Span{start_ns, end_ns, request, parent, name});
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  std::vector<Span> spans_;
};

struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0.0;  ///< wall time inside spans of this name
  double self_ns = 0.0;   ///< minus the time their child spans cover
};

struct TraceSummary {
  std::array<SpanTotals, kNumSpanNames> by_name{};
  /// Wall time covered by root spans (those without a parent).
  double root_ns = 0.0;
  [[nodiscard]] const SpanTotals& operator[](SpanName name) const {
    return by_name[static_cast<std::size_t>(name)];
  }
};

[[nodiscard]] TraceSummary summarize(const std::vector<SpanBuffer>& buffers);

/// Writes every span as one tab-separated line
/// (thread, name, start_ns, end_ns, parent, request), times relative to
/// `origin_ns`.  Returns false when the file cannot be written.
bool write_spans(const std::string& path,
                 const std::vector<SpanBuffer>& buffers,
                 std::int64_t origin_ns);

}  // namespace perfbench
