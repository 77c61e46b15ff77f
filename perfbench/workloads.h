// The benchmark's workloads: each runs one seeded tape against the
// library's public API for a fixed wall-clock window, then checks the
// program's outputs outside that window.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< e.g. the sample count behind a percentile
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// n = 64 instead of 1024 and small samples: the self-test size.
  bool tiny = false;
  /// Perturbs one expected cost in the end-of-run checks, which must then
  /// fail (the self-test's proof that the checks can trip).
  bool corrupt = false;
};

/// What one pass over a workload's tape measured and checked.
struct PassResult {
  std::string describe;  ///< one line: network and tape parameters
  /// Every metric this workload measures, end-to-end and per-layer.
  std::vector<Metric> metrics;
  /// Correctness checks that failed (empty when the outputs are right).
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;  ///< public calls made, probes included
  std::uint64_t failed = 0;     ///< refused/errored calls + failed checks
  /// Per-client span buffers (traced passes only) and their time origin.
  std::vector<SpanBuffer> spans;
  std::int64_t window_start_ns = 0;
  /// Client-thread nanoseconds inside the measured window, and how many
  /// of them the root spans cover.
  double window_thread_ns = 0.0;
  TraceSummary trace;

  [[nodiscard]] double value(const std::string& name) const;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one pass of `options.workload`.  With `traced`, every public call
/// is also recorded as a span.
[[nodiscard]] PassResult run_workload(const RunOptions& options, bool traced);

}  // namespace perfbench
