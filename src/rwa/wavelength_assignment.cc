#include "rwa/wavelength_assignment.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/error.h"

namespace lumen {

std::vector<std::vector<std::uint32_t>> build_conflict_graph(
    const std::vector<RoutedPath>& paths) {
  // Bucket paths by link, then connect all pairs within a bucket.
  std::unordered_map<LinkId, std::vector<std::uint32_t>> by_link;
  for (std::uint32_t i = 0; i < paths.size(); ++i)
    for (const LinkId e : paths[i].links) by_link[e].push_back(i);

  std::vector<std::unordered_set<std::uint32_t>> adjacency(paths.size());
  for (const auto& [link, users] : by_link) {
    for (std::size_t a = 0; a < users.size(); ++a)
      for (std::size_t b = a + 1; b < users.size(); ++b) {
        adjacency[users[a]].insert(users[b]);
        adjacency[users[b]].insert(users[a]);
      }
  }

  std::vector<std::vector<std::uint32_t>> result(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    result[i].assign(adjacency[i].begin(), adjacency[i].end());
    std::sort(result[i].begin(), result[i].end());
  }
  return result;
}

namespace {

constexpr std::uint32_t kUncolored = ~std::uint32_t{0};

/// Smallest color not used by any colored neighbor of `v`.
std::uint32_t smallest_free_color(
    const std::vector<std::vector<std::uint32_t>>& conflicts,
    const std::vector<std::uint32_t>& color, std::uint32_t v,
    std::vector<char>& scratch) {
  scratch.assign(conflicts[v].size() + 1, 0);
  for (const std::uint32_t neighbor : conflicts[v]) {
    const std::uint32_t c = color[neighbor];
    if (c != kUncolored && c < scratch.size()) scratch[c] = 1;
  }
  std::uint32_t c = 0;
  while (scratch[c]) ++c;
  return c;
}

AssignmentResult finish(std::vector<std::uint32_t> color) {
  AssignmentResult result;
  result.wavelength.reserve(color.size());
  for (const std::uint32_t c : color) {
    LUMEN_ASSERT(c != kUncolored);
    result.wavelength.push_back(Wavelength{c});
    result.wavelengths_used = std::max(result.wavelengths_used, c + 1);
  }
  return result;
}

AssignmentResult first_fit(
    const std::vector<std::vector<std::uint32_t>>& conflicts) {
  std::vector<std::uint32_t> color(conflicts.size(), kUncolored);
  std::vector<char> scratch;
  for (std::uint32_t v = 0; v < conflicts.size(); ++v)
    color[v] = smallest_free_color(conflicts, color, v, scratch);
  return finish(std::move(color));
}

AssignmentResult dsatur(
    const std::vector<std::vector<std::uint32_t>>& conflicts) {
  const auto n = static_cast<std::uint32_t>(conflicts.size());
  std::vector<std::uint32_t> color(n, kUncolored);
  std::vector<std::unordered_set<std::uint32_t>> neighbor_colors(n);
  std::vector<char> scratch;

  for (std::uint32_t step = 0; step < n; ++step) {
    // Pick the uncolored path with maximum saturation (distinct neighbor
    // colors), break ties by degree then by index (deterministic).
    std::uint32_t best = kUncolored;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (color[v] != kUncolored) continue;
      if (best == kUncolored) {
        best = v;
        continue;
      }
      const auto sat_v = neighbor_colors[v].size();
      const auto sat_b = neighbor_colors[best].size();
      if (sat_v > sat_b ||
          (sat_v == sat_b && conflicts[v].size() > conflicts[best].size())) {
        best = v;
      }
    }
    const std::uint32_t c =
        smallest_free_color(conflicts, color, best, scratch);
    color[best] = c;
    for (const std::uint32_t neighbor : conflicts[best])
      neighbor_colors[neighbor].insert(c);
  }
  return finish(std::move(color));
}

}  // namespace

AssignmentResult assign_wavelengths(const std::vector<RoutedPath>& paths,
                                    AssignmentHeuristic heuristic) {
  const auto conflicts = build_conflict_graph(paths);
  switch (heuristic) {
    case AssignmentHeuristic::kFirstFit:
      return first_fit(conflicts);
    case AssignmentHeuristic::kDsatur:
      return dsatur(conflicts);
  }
  LUMEN_UNREACHABLE();
}

bool assignment_is_valid(const std::vector<RoutedPath>& paths,
                         const std::vector<Wavelength>& colors) {
  LUMEN_REQUIRE(colors.size() == paths.size());
  std::unordered_map<LinkId, std::vector<std::uint32_t>> by_link;
  for (std::uint32_t i = 0; i < paths.size(); ++i)
    for (const LinkId e : paths[i].links) by_link[e].push_back(i);
  for (const auto& [link, users] : by_link) {
    std::unordered_set<std::uint32_t> seen;
    for (const std::uint32_t path : users) {
      if (!seen.insert(colors[path].value()).second) return false;
    }
  }
  return true;
}

std::uint32_t congestion_lower_bound(const std::vector<RoutedPath>& paths) {
  std::unordered_map<LinkId, std::uint32_t> load;
  std::uint32_t best = 0;
  for (const RoutedPath& path : paths) {
    // A path crossing the same link twice still occupies one wavelength
    // per crossing... physically it cannot reuse its own wavelength on
    // the same fiber, so count multiplicity.
    for (const LinkId e : path.links) best = std::max(best, ++load[e]);
  }
  return best;
}

}  // namespace lumen
