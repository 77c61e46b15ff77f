#include "obs/profiler.h"

#include <algorithm>
#include <bit>
#include <map>
#include <utility>

#include "obs/flat_json.h"
#include "obs/registry.h"

namespace lumen::obs {

std::string ProfileSnapshot::folded() const {
  std::string out;
  for (const auto& entry : entries) {
    out += entry.stack;
    out.push_back(' ');
    out += std::to_string(entry.self_ns);
    out.push_back('\n');
  }
  return out;
}

std::string profile_entry_to_json(const ProfileEntry& entry) {
  std::string out = "{\"type\":\"profile\",\"stack\":\"";
  out += detail::json_escape(entry.stack);
  out += "\",\"samples\":";
  out += std::to_string(entry.samples);
  out += ",\"self_ns\":";
  out += std::to_string(entry.self_ns);
  out += ",\"total_ns\":";
  out += std::to_string(entry.total_ns);
  out += "}";
  return out;
}

inline namespace LUMEN_OBS_MODE_NAMESPACE {

namespace {

/// Per-thread ambient stage stack, shared by all Profiler instances
/// (there is one truth about what this thread is doing).  Depth counts
/// every open span; names beyond kStackSlots are folded into their
/// deepest retained ancestor.
constexpr std::size_t kStackSlots = 32;

struct ThreadStack {
  const char* names[kStackSlots];
  std::size_t depth = 0;
  /// Closes until the next sample; starts at 1 so the first close on a
  /// thread is always sampled.
  std::uint32_t countdown = 1;
};

thread_local ThreadStack t_stack;

}  // namespace

Profiler::Profiler(std::size_t capacity, std::uint32_t sample_period)
    : ring_(capacity) {
  set_sample_period(sample_period);
}

Profiler& Profiler::global() {
  static Profiler instance;
  return instance;
}

void Profiler::push_frame(const char* name) noexcept {
  if (t_stack.depth < kStackSlots) t_stack.names[t_stack.depth] = name;
  ++t_stack.depth;
}

void Profiler::pop_frame(std::uint64_t duration_ns) {
  ThreadStack& ts = t_stack;
  if (ts.depth == 0) return;  // unbalanced close; drop silently
  if (--ts.countdown == 0) {
    const std::uint32_t period = sample_period();
    ts.countdown = period;
    const std::size_t frames = std::min(ts.depth, kStackSlots);
    record(std::span<const char* const>(ts.names, frames), duration_ns,
           period);
  }
  --ts.depth;
}

void Profiler::record(std::span<const char* const> stack,
                      std::uint64_t duration_ns, std::uint64_t weight) {
  if (stack.empty()) return;
  const std::size_t frames = std::min(stack.size(), kMaxDepth);

  std::uint64_t words[kWords] = {};
  words[0] = static_cast<std::uint64_t>(frames) | (weight << 8);
  words[1] = duration_ns;
  for (std::size_t i = 0; i < frames; ++i)
    words[2 + i] =
        static_cast<std::uint64_t>(std::bit_cast<std::uintptr_t>(stack[i]));
  if (ring_.publish(std::span<const std::uint64_t>(words, 2 + frames))) {
    static Counter& samples_dropped =
        Registry::global().counter("lumen.obs.profile_samples_dropped");
    samples_dropped.add();
  }
}

ProfileSnapshot Profiler::snapshot() const {
  struct Accum {
    std::uint64_t samples = 0;
    std::uint64_t total_ns = 0;
  };
  std::map<std::string, Accum> stacks;

  ProfileSnapshot out;
  out.dropped = dropped();
  for (const auto& words : ring_.snapshot()) {
    const std::size_t frames =
        std::min<std::size_t>(words[0] & 0xFF, kMaxDepth);
    const std::uint64_t weight = words[0] >> 8;
    const std::uint64_t duration_ns = words[1];
    std::string stack;
    for (std::size_t i = 0; i < frames; ++i) {
      if (i != 0) stack.push_back(';');
      stack += std::bit_cast<const char*>(
          static_cast<std::uintptr_t>(words[2 + i]));
    }
    Accum& accum = stacks[std::move(stack)];
    accum.samples += weight;
    accum.total_ns += weight * duration_ns;
    ++out.samples;
  }

  out.entries.reserve(stacks.size());
  for (auto& [stack, accum] : stacks) {
    ProfileEntry entry;
    entry.stack = stack;
    entry.samples = accum.samples;
    entry.total_ns = accum.total_ns;
    entry.self_ns = accum.total_ns;
    out.entries.push_back(std::move(entry));
  }

  // Self time: subtract each entry's *direct* children (stack + one
  // frame), clamping at zero — sampling noise can make a child's
  // weighted total exceed its parent's.
  for (auto& entry : out.entries) {
    const std::string prefix = entry.stack + ';';
    std::uint64_t children_ns = 0;
    for (const auto& other : out.entries) {
      if (other.stack.size() <= prefix.size()) continue;
      if (other.stack.compare(0, prefix.size(), prefix) != 0) continue;
      if (other.stack.find(';', prefix.size()) != std::string::npos) continue;
      children_ns += other.total_ns;
    }
    entry.self_ns =
        children_ns >= entry.total_ns ? 0 : entry.total_ns - children_ns;
  }
  return out;
}

}  // inline namespace LUMEN_OBS_MODE_NAMESPACE
}  // namespace lumen::obs
