// Quickstart: build the paper's Fig. 1 example network, route an optimal
// semilightpath, and print the wavelength assignment and switch settings.
//
//   $ ./quickstart
//
// Walks through the full public API surface: WdmNetwork construction,
// conversion models, route_semilightpath, route_lightpath, and the
// structural stats of the auxiliary graph.
#include <cstdio>
#include <memory>

#include "core/liang_shen.h"
#include "wdm/network.h"

namespace {

using namespace lumen;

/// The 7-node, 4-wavelength network of the paper's Fig. 1 (0-based ids).
WdmNetwork build_example() {
  // Conversion: every node can switch any wavelength pair at cost 0.25,
  // except λ1→λ2 at node 2, which its hardware cannot do (paper Fig. 3).
  auto conv = std::make_shared<MatrixConversion>(7, 4);
  for (std::uint32_t v = 0; v < 7; ++v) conv->set_all_pairs(NodeId{v}, 0.25);
  conv->set(NodeId{2}, Wavelength{1}, Wavelength{2}, kInfiniteCost);

  WdmNetwork net(7, 4, std::move(conv));
  struct Spec {
    std::uint32_t u, v;
    std::initializer_list<std::uint32_t> lambdas;
  };
  // Links and their available wavelengths (0-based λ indices).
  const Spec specs[] = {
      {0, 1, {0, 2}}, {0, 3, {0, 1, 3}}, {1, 2, {0, 3}}, {1, 6, {0, 1}},
      {2, 0, {1, 2}}, {2, 6, {2, 3}},    {3, 4, {2}},    {4, 2, {1, 3}},
      {4, 5, {0, 2}}, {5, 3, {1, 2}},    {5, 6, {1, 2, 3}},
  };
  for (const auto& spec : specs) {
    const LinkId e = net.add_link(NodeId{spec.u}, NodeId{spec.v});
    for (const std::uint32_t l : spec.lambdas)
      net.set_wavelength(e, Wavelength{l}, 1.0);  // unit link costs
  }
  return net;
}

}  // namespace

int main() {
  const WdmNetwork net = build_example();
  std::printf("network: n=%u nodes, m=%u links, k=%u wavelengths, k0=%u\n\n",
              net.num_nodes(), net.num_links(), net.num_wavelengths(),
              net.k0());

  const NodeId s{3}, t{6};  // paper nodes 4 -> 7

  // Optimal semilightpath (wavelength conversion allowed where supported).
  const RouteResult semi = route_semilightpath(net, s, t);
  if (!semi.found) {
    std::printf("no semilightpath from %u to %u\n", s.value(), t.value());
    return 1;
  }
  std::printf("optimal semilightpath %u -> %u (cost %.2f):\n  %s\n",
              s.value(), t.value(), semi.cost,
              semi.path.to_string(net).c_str());
  std::printf("  hops=%zu conversions=%u\n", semi.path.length(),
              semi.path.num_conversions());
  for (const SwitchSetting& sw : semi.switches) {
    std::printf("  set switch at node %u: λ%u -> λ%u\n", sw.node.value(),
                sw.from.value(), sw.to.value());
  }

  // Compare with the best pure lightpath (no conversion anywhere).
  const RouteResult light = route_lightpath(net, s, t);
  if (light.found) {
    std::printf("\nbest pure lightpath costs %.2f (semilightpath saves "
                "%.2f)\n",
                light.cost, light.cost - semi.cost);
  } else {
    std::printf("\nno wavelength-continuous lightpath exists: conversion is "
                "the only way to connect %u -> %u\n",
                s.value(), t.value());
  }

  // What the router searched (Theorem 1's auxiliary graph).  It stores
  // only E_org and generates a node's gadget links when the search settles
  // it, so "links searched" counts E_org, the terminal ties and the gadget
  // links of the settled X-nodes, not the whole of E'.
  std::printf("\nauxiliary graph G_{s,t}: %llu nodes, %llu links searched, "
              "%llu heap pops\n",
              static_cast<unsigned long long>(semi.stats.aux_nodes),
              static_cast<unsigned long long>(semi.stats.aux_links),
              static_cast<unsigned long long>(semi.stats.search_pops));
  return 0;
}
