// Shared helpers for lumen tests: canonical small networks and randomized
// network generators used across core/dist/integration suites.
#pragma once

#include <memory>
#include <utility>

#include "topo/topologies.h"
#include "topo/wavelengths.h"
#include "wdm/network.h"

namespace lumen::testing {

/// The 7-node, 4-wavelength example network of the paper's Fig. 1.
///
/// Nodes are 0-based (paper node i = NodeId{i-1}); wavelength λ_i maps to
/// Wavelength{i-1}.  The paper's listing of Λ(⟨2,7⟩) = {λ1, λ2, λ3} is
/// inconsistent with its own Λ_out(G_M, 2) = {λ1, λ2, λ4}; the unique link
/// set making every printed Λ_in/Λ_out set consistent is
/// Λ(⟨2,7⟩) = {λ1, λ2}, which is what we build.
///
/// All link costs are `link_cost`; conversion is all-pairs at
/// `conversion_cost` at every node, except λ2→λ3 at node 3 which Fig. 3
/// shows as not allowed.
[[nodiscard]] inline WdmNetwork paper_example_network(
    double link_cost = 1.0, double conversion_cost = 0.25) {
  auto conv = std::make_shared<MatrixConversion>(7, 4);
  for (std::uint32_t v = 0; v < 7; ++v)
    conv->set_all_pairs(NodeId{v}, conversion_cost);
  // Fig. 3: conversion λ2 -> λ3 at paper-node 3 (= NodeId{2}) not allowed.
  conv->set(NodeId{2}, Wavelength{1}, Wavelength{2}, kInfiniteCost);

  WdmNetwork net(7, 4, std::move(conv));
  // (paper tail, paper head, paper wavelength indices)
  struct Spec {
    std::uint32_t u, v;
    std::initializer_list<std::uint32_t> lambdas;
  };
  const Spec specs[] = {
      {1, 2, {1, 3}}, {1, 4, {1, 2, 4}}, {2, 3, {1, 4}}, {2, 7, {1, 2}},
      {3, 1, {2, 3}}, {3, 7, {3, 4}},    {4, 5, {3}},    {5, 3, {2, 4}},
      {5, 6, {1, 3}}, {6, 4, {2, 3}},    {6, 7, {2, 3, 4}},
  };
  for (const auto& spec : specs) {
    const LinkId e = net.add_link(NodeId{spec.u - 1}, NodeId{spec.v - 1});
    for (const std::uint32_t l : spec.lambdas)
      net.set_wavelength(e, Wavelength{l - 1}, link_cost);
  }
  return net;
}

/// The Fig. 5-style instance (E7): node w (=1) cannot convert λ0→λ2
/// directly, but can go λ0→λ1 and λ1→λ2; the loop w -> a -> w on λ1 lets
/// the path convert in two steps, so the unique s(=0)→t(=3) semilightpath
/// visits w twice.
[[nodiscard]] inline WdmNetwork revisit_instance() {
  auto conv = std::make_shared<MatrixConversion>(4, 3);
  conv->set(NodeId{1}, Wavelength{0}, Wavelength{1}, 0.1);
  conv->set(NodeId{1}, Wavelength{1}, Wavelength{2}, 0.1);
  // λ0→λ2 at node 1 stays forbidden: Restriction 1 is violated.
  WdmNetwork net(4, 3, std::move(conv));
  const LinkId sw = net.add_link(NodeId{0}, NodeId{1});  // s -> w
  net.set_wavelength(sw, Wavelength{0}, 1.0);
  const LinkId wa = net.add_link(NodeId{1}, NodeId{2});  // w -> a
  net.set_wavelength(wa, Wavelength{1}, 1.0);
  const LinkId aw = net.add_link(NodeId{2}, NodeId{1});  // a -> w
  net.set_wavelength(aw, Wavelength{1}, 1.0);
  const LinkId wt = net.add_link(NodeId{1}, NodeId{3});  // w -> t
  net.set_wavelength(wt, Wavelength{2}, 1.0);
  return net;
}

/// Which conversion regime a random test network uses.
enum class ConvKind {
  kNone,
  kUniform,
  kRange,
  kSparse,
  kRandomMatrix,  ///< may violate the triangle inequality
};

[[nodiscard]] inline std::shared_ptr<const ConversionModel> make_conversion(
    ConvKind kind, std::uint32_t n, std::uint32_t k, Rng& rng) {
  switch (kind) {
    case ConvKind::kNone:
      return std::make_shared<NoConversion>();
    case ConvKind::kUniform:
      return std::make_shared<UniformConversion>(rng.next_double_in(0.0, 2.0));
    case ConvKind::kRange:
      return std::make_shared<RangeLimitedConversion>(
          1 + static_cast<std::uint32_t>(rng.next_below(k)),
          rng.next_double_in(0.0, 1.0), rng.next_double_in(0.0, 0.5));
    case ConvKind::kSparse: {
      std::vector<NodeId> converters;
      for (std::uint32_t v = 0; v < n; ++v)
        if (rng.next_bool(0.5)) converters.push_back(NodeId{v});
      return std::make_shared<SparseConversion>(
          std::move(converters),
          std::make_shared<UniformConversion>(rng.next_double_in(0.0, 2.0)));
    }
    case ConvKind::kRandomMatrix: {
      auto matrix = std::make_shared<MatrixConversion>(n, k);
      for (std::uint32_t v = 0; v < n; ++v)
        for (std::uint32_t p = 0; p < k; ++p)
          for (std::uint32_t q = 0; q < k; ++q)
            if (p != q && rng.next_bool(0.6))
              matrix->set(NodeId{v}, Wavelength{p}, Wavelength{q},
                          rng.next_double_in(0.0, 3.0));
      return matrix;
    }
  }
  LUMEN_UNREACHABLE();
}

/// A random strongly connected WDM network: random sparse topology,
/// uniform availability, uniform random link costs.
[[nodiscard]] inline WdmNetwork random_network(std::uint32_t n,
                                               std::uint32_t extra_links,
                                               std::uint32_t k,
                                               std::uint32_t k0_max,
                                               ConvKind kind, Rng& rng) {
  const Topology topo = random_sparse_topology(n, extra_links, rng);
  const Availability avail = uniform_availability(
      topo, k, 1, k0_max, CostSpec::uniform(0.5, 3.0), rng);
  return assemble_network(topo, k, avail, make_conversion(kind, n, k, rng));
}

/// A random network with aggressively varied shape parameters, including
/// degenerate ones (k = 1, n = 2, empty links, zero-cost wavelengths).
/// Shared by the integration fuzz sweep and the fault-injection fuzz
/// sweep so both explore the same instance space.
[[nodiscard]] inline WdmNetwork fuzz_network(Rng& rng) {
  const auto n = static_cast<std::uint32_t>(rng.next_in(2, 18));
  const auto k = static_cast<std::uint32_t>(rng.next_in(1, 6));
  const auto kinds = {ConvKind::kNone, ConvKind::kUniform, ConvKind::kRange,
                      ConvKind::kSparse, ConvKind::kRandomMatrix};
  const auto kind = *(kinds.begin() + rng.next_below(kinds.size()));
  WdmNetwork net(n, k, make_conversion(kind, n, k, rng));

  const auto num_links = static_cast<std::uint32_t>(
      rng.next_in(0, static_cast<std::int64_t>(3 * n)));
  for (std::uint32_t i = 0; i < num_links; ++i) {
    const auto u = static_cast<std::uint32_t>(rng.next_below(n));
    const auto v = static_cast<std::uint32_t>(rng.next_below(n));
    if (u == v) continue;
    const LinkId e = net.add_link(NodeId{u}, NodeId{v});
    // Possibly zero wavelengths; possibly zero-cost ones.
    const auto count = static_cast<std::uint32_t>(rng.next_in(0, k));
    for (const std::uint32_t l : rng.sample_without_replacement(k, count)) {
      const double cost =
          rng.next_bool(0.15) ? 0.0 : rng.next_double_in(0.1, 5.0);
      net.set_wavelength(e, Wavelength{l}, cost);
    }
  }
  return net;
}

}  // namespace lumen::testing
