#include "trace.h"

#include <chrono>
#include <cstdio>
#include <memory>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

struct NameInfo {
  const char* name;
  const char* layer;
};
constexpr std::array<NameInfo, kNumSpanNames> kNames = {{
    {"svc.open", "svc"},
    {"svc.close", "svc"},
    {"rwa.open", "rwa"},
    {"rwa.close", "rwa"},
    {"rwa.fail_span", "rwa"},
    {"rwa.repair_span", "rwa"},
    {"core.route_semilightpath", "core"},
}};

}  // namespace

const char* span_name(SpanName name) {
  return kNames[static_cast<std::size_t>(name)].name;
}

const char* span_layer(SpanName name) {
  return kNames[static_cast<std::size_t>(name)].layer;
}

TraceSummary summarize(const std::vector<SpanBuffer>& buffers) {
  TraceSummary out;
  for (const SpanBuffer& buffer : buffers) {
    const std::vector<Span>& spans = buffer.spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent != Span::kNoParent)
        child_ns[span.parent] +=
            static_cast<double>(span.end_ns - span.start_ns);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const double duration = static_cast<double>(span.end_ns - span.start_ns);
      SpanTotals& totals = out.by_name[static_cast<std::size_t>(span.name)];
      ++totals.count;
      totals.total_ns += duration;
      totals.self_ns += duration - child_ns[i];
      if (span.parent == Span::kNoParent) out.root_ns += duration;
    }
  }
  return out;
}

bool write_spans(const std::string& path,
                 const std::vector<SpanBuffer>& buffers,
                 std::int64_t origin_ns) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!file) return false;
  std::fputs("thread\tname\tstart_ns\tend_ns\tparent\trequest\n", file.get());
  for (std::size_t thread = 0; thread < buffers.size(); ++thread) {
    for (const Span& span : buffers[thread].spans()) {
      const long long parent =
          span.parent == Span::kNoParent ? -1 : span.parent;
      std::fprintf(file.get(), "%zu\t%s\t%lld\t%lld\t%lld\t%llu\n", thread,
                   span_name(span.name),
                   static_cast<long long>(span.start_ns - origin_ns),
                   static_cast<long long>(span.end_ns - origin_ns), parent,
                   static_cast<unsigned long long>(span.request));
    }
  }
  return std::ferror(file.get()) == 0;
}

}  // namespace perfbench
