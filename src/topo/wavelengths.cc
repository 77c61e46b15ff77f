#include "topo/wavelengths.h"

#include <algorithm>
#include <cmath>

#include "graph/traversal.h"
#include "util/error.h"

namespace lumen {

namespace {

double cost_for(const CostSpec& spec, const Topology& topo, std::size_t link,
                Rng& rng) {
  switch (spec.kind) {
    case CostSpec::Kind::kUnit:
      return 1.0;
    case CostSpec::Kind::kUniform:
      return rng.next_double_in(spec.lo, spec.hi);
    case CostSpec::Kind::kDistance:
      return spec.scale * topo.link_distance(link);
  }
  LUMEN_UNREACHABLE();
}

void append_sorted(std::vector<LinkWavelength>& list, Wavelength lambda,
                   double cost) {
  list.push_back(LinkWavelength{lambda, cost});
}

void sort_by_lambda(std::vector<LinkWavelength>& list) {
  std::sort(list.begin(), list.end(),
            [](const LinkWavelength& a, const LinkWavelength& b) {
              return a.lambda < b.lambda;
            });
}

}  // namespace

Availability full_availability(const Topology& topo, std::uint32_t k,
                               const CostSpec& costs, Rng& rng) {
  LUMEN_REQUIRE(k >= 1);
  Availability avail(topo.num_links());
  for (std::size_t e = 0; e < avail.size(); ++e) {
    avail[e].reserve(k);
    // kDistance draws one cost per link, the others per (link, λ).
    const double shared = cost_for(costs, topo, e, rng);
    for (std::uint32_t l = 0; l < k; ++l) {
      const double c = costs.kind == CostSpec::Kind::kUniform
                           ? cost_for(costs, topo, e, rng)
                           : shared;
      append_sorted(avail[e], Wavelength{l}, c);
    }
  }
  return avail;
}

Availability uniform_availability(const Topology& topo, std::uint32_t k,
                                  std::uint32_t k0_min, std::uint32_t k0_max,
                                  const CostSpec& costs, Rng& rng) {
  LUMEN_REQUIRE(1 <= k0_min && k0_min <= k0_max && k0_max <= k);
  Availability avail(topo.num_links());
  for (std::size_t e = 0; e < avail.size(); ++e) {
    const auto size = static_cast<std::uint32_t>(
        rng.next_in(k0_min, k0_max));
    const auto chosen = rng.sample_without_replacement(k, size);
    const double shared = cost_for(costs, topo, e, rng);
    for (const std::uint32_t l : chosen) {
      const double c = costs.kind == CostSpec::Kind::kUniform
                           ? cost_for(costs, topo, e, rng)
                           : shared;
      append_sorted(avail[e], Wavelength{l}, c);
    }
    sort_by_lambda(avail[e]);
  }
  return avail;
}

Availability banded_availability(const Topology& topo, std::uint32_t k,
                                 std::uint32_t band, const CostSpec& costs,
                                 Rng& rng) {
  LUMEN_REQUIRE(1 <= band && band <= k);
  Availability avail(topo.num_links());
  for (std::size_t e = 0; e < avail.size(); ++e) {
    const auto offset =
        static_cast<std::uint32_t>(rng.next_below(k - band + 1));
    const double shared = cost_for(costs, topo, e, rng);
    for (std::uint32_t l = offset; l < offset + band; ++l) {
      const double c = costs.kind == CostSpec::Kind::kUniform
                           ? cost_for(costs, topo, e, rng)
                           : shared;
      append_sorted(avail[e], Wavelength{l}, c);
    }
  }
  return avail;
}

Availability occupancy_availability(const Topology& topo, std::uint32_t k,
                                    std::uint32_t num_demands,
                                    const CostSpec& costs, Rng& rng) {
  Availability avail = full_availability(topo, k, costs, rng);
  if (topo.num_nodes < 2) return avail;
  const Digraph g = topo.to_digraph();

  // occupied[e] holds the λ indices consumed on link e.
  std::vector<std::vector<std::uint32_t>> occupied(topo.num_links());
  for (std::uint32_t d = 0; d < num_demands; ++d) {
    const auto s = static_cast<std::uint32_t>(rng.next_below(topo.num_nodes));
    auto t = static_cast<std::uint32_t>(rng.next_below(topo.num_nodes));
    if (s == t) t = (t + 1) % topo.num_nodes;
    const auto path = bfs_link_path(g, NodeId{s}, NodeId{t},
                                    [](LinkId) { return true; });
    if (path.empty()) continue;
    // First-fit: the smallest wavelength free on every link of the path.
    for (std::uint32_t l = 0; l < k; ++l) {
      const bool free = std::all_of(
          path.begin(), path.end(), [&](LinkId e) {
            const auto& busy = occupied[e.value()];
            return std::find(busy.begin(), busy.end(), l) == busy.end();
          });
      if (free) {
        for (const LinkId e : path) occupied[e.value()].push_back(l);
        break;
      }
      // All wavelengths busy on some link: the demand is blocked; skip it.
    }
  }

  for (std::size_t e = 0; e < avail.size(); ++e) {
    auto& list = avail[e];
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&](const LinkWavelength& lw) {
                                return std::find(occupied[e].begin(),
                                                 occupied[e].end(),
                                                 lw.lambda.value()) !=
                                       occupied[e].end();
                              }),
               list.end());
  }
  return avail;
}

WdmNetwork assemble_network(const Topology& topo, std::uint32_t k,
                            const Availability& availability,
                            std::shared_ptr<const ConversionModel> conversion) {
  LUMEN_REQUIRE_MSG(availability.size() == topo.num_links(),
                    "one availability list per topology link");
  WdmNetwork net(topo.num_nodes, k, std::move(conversion));
  for (std::size_t i = 0; i < topo.links.size(); ++i) {
    const auto& [u, v] = topo.links[i];
    net.add_link(u, v, availability[i]);
  }
  return net;
}

std::vector<std::pair<NodeId, NodeId>> gravity_demands(const Topology& topo,
                                                       std::uint32_t count,
                                                       Rng& rng) {
  const std::uint32_t n = topo.num_nodes;
  LUMEN_REQUIRE(n >= 2);

  std::vector<double> population(n);
  for (auto& p : population) p = rng.next_double_in(0.5, 2.0);

  // Pair weights p_s p_t / max(dist, d_min)^2, then a cumulative table
  // for O(log) sampling.
  constexpr double kMinDistance = 0.05;  // avoid blowups for close pairs
  std::vector<double> cumulative;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  cumulative.reserve(static_cast<std::size_t>(n) * (n - 1));
  pairs.reserve(cumulative.capacity());
  double total = 0.0;
  for (std::uint32_t s = 0; s < n; ++s) {
    for (std::uint32_t t = 0; t < n; ++t) {
      if (s == t) continue;
      double dist = 1.0;
      if (!topo.coords.empty()) {
        dist = std::max(kMinDistance,
                        std::hypot(topo.coords[s].first - topo.coords[t].first,
                                   topo.coords[s].second -
                                       topo.coords[t].second));
      }
      total += population[s] * population[t] / (dist * dist);
      cumulative.push_back(total);
      pairs.emplace_back(NodeId{s}, NodeId{t});
    }
  }

  std::vector<std::pair<NodeId, NodeId>> demands;
  demands.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const double pick = rng.next_double() * total;
    const auto it =
        std::lower_bound(cumulative.begin(), cumulative.end(), pick);
    const auto index = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cumulative.begin(),
                                 static_cast<std::ptrdiff_t>(pairs.size()) - 1));
    demands.push_back(pairs[index]);
  }
  return demands;
}

std::vector<std::pair<NodeId, NodeId>> random_demands(std::uint32_t num_nodes,
                                                      std::uint32_t count,
                                                      Rng& rng) {
  LUMEN_REQUIRE(num_nodes >= 2);
  std::vector<std::pair<NodeId, NodeId>> demands;
  demands.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto s = static_cast<std::uint32_t>(rng.next_below(num_nodes));
    auto t = static_cast<std::uint32_t>(rng.next_below(num_nodes));
    while (t == s) t = static_cast<std::uint32_t>(rng.next_below(num_nodes));
    demands.emplace_back(NodeId{s}, NodeId{t});
  }
  return demands;
}

}  // namespace lumen
