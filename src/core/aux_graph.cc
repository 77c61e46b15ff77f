#include "core/aux_graph.h"

#include <algorithm>
#include <tuple>

#include "util/stopwatch.h"

namespace lumen {

NodeId AuxiliaryGraph::add_aux_node(AuxNodeInfo info,
                                    std::uint32_t out_capacity,
                                    std::uint32_t in_capacity) {
  const NodeId id = graph_.add_node(out_capacity, in_capacity);
  node_info_.push_back(info);
  return id;
}

LinkId AuxiliaryGraph::add_aux_link(NodeId from, NodeId to, double weight,
                                    AuxLinkInfo info) {
  const LinkId id = graph_.add_link(from, to, weight);
  link_info_.push_back(info);
  return id;
}

NodeId AuxiliaryGraph::lookup(std::span<const LambdaEntry> index,
                              Wavelength lambda) {
  const auto it = std::lower_bound(
      index.begin(), index.end(), lambda,
      [](const auto& entry, Wavelength l) { return entry.first < l; });
  if (it != index.end() && it->first == lambda) return it->second;
  return NodeId::invalid();
}

namespace {

/// Adjacency-row sizes of one auxiliary node, counted before it exists.
struct RowCapacity {
  std::uint32_t out = 0;
  std::uint32_t in = 0;
};

/// Per-thread counting buffers of AuxiliaryGraph::build, reused across
/// builds so a route's G_{s,t} construction stays allocation-free.
struct BuildScratch {
  std::vector<Wavelength> lambdas;    ///< one node's incident λs, with repeats
  std::vector<RowCapacity> capacity;  ///< by auxiliary node id
  std::vector<double> conversion;     ///< c_v(λ, λ') per X_v × Y_v pair
};

/// Sorts `lambdas` and appends one (λ, id) entry per distinct λ to `index`,
/// numbering ids from `next_id` and recording each λ's multiplicity (the
/// number of G_M links it stands for) as an adjacency row size.
void index_distinct(std::vector<Wavelength>& lambdas, std::uint32_t& next_id,
                    std::vector<std::pair<Wavelength, NodeId>>& index,
                    std::vector<RowCapacity>& capacity, bool outgoing) {
  std::sort(lambdas.begin(), lambdas.end());
  for (std::size_t i = 0; i < lambdas.size();) {
    std::size_t j = i + 1;
    while (j < lambdas.size() && lambdas[j] == lambdas[i]) ++j;
    index.emplace_back(lambdas[i], NodeId{next_id++});
    RowCapacity row;
    (outgoing ? row.out : row.in) = static_cast<std::uint32_t>(j - i);
    capacity.push_back(row);
    i = j;
  }
}

}  // namespace

AuxiliaryGraph AuxiliaryGraph::build(const WdmNetwork& net, NodeId s,
                                     NodeId t) {
  Stopwatch timer;
  AuxiliaryGraph aux;
  aux.all_pairs_ = !s.valid();
  const std::uint32_t n = net.num_nodes();
  const ConversionModel& conv = net.conversion();
  thread_local BuildScratch scratch;
  std::vector<RowCapacity>& capacity = scratch.capacity;
  capacity.clear();
  scratch.conversion.clear();

  // |E_M| bounds Σ_v |X_v| and Σ_v |Y_v|: every λ of X_v arrives on a link.
  std::size_t multigraph_links = 0;
  for (std::uint32_t ei = 0; ei < net.num_links(); ++ei)
    multigraph_links += net.available(LinkId{ei}).size();
  aux.x_entries_.reserve(multigraph_links);
  aux.y_entries_.reserve(multigraph_links);
  aux.x_begin_.reserve(n + 1);
  aux.y_begin_.reserve(n + 1);

  // --- Count: X_v / Y_v, their ids, and every row's size. ---------------
  //
  // We enumerate wavelengths from the incident links only (never the whole
  // universe Λ), so construction cost is independent of k as Section IV
  // requires.  Node ids follow the fill order below: X_v then Y_v, node by
  // node, then the terminals.  x_v(λ) receives one E_org link per in-link
  // carrying λ and y_v(λ) sends one per out-link carrying λ; the gadget
  // E_v adds one x -> y link per allowed conversion.
  std::uint32_t next_id = 0;
  std::size_t gadget_links = 0;
  for (std::uint32_t vi = 0; vi < n; ++vi) {
    const NodeId v{vi};
    scratch.lambdas.clear();
    for (const LinkId e : net.in_links(v))
      for (const auto& lw : net.available(e))
        scratch.lambdas.push_back(lw.lambda);
    index_distinct(scratch.lambdas, next_id, aux.x_entries_, capacity, false);
    scratch.lambdas.clear();
    for (const LinkId e : net.out_links(v))
      for (const auto& lw : net.available(e))
        scratch.lambdas.push_back(lw.lambda);
    index_distinct(scratch.lambdas, next_id, aux.y_entries_, capacity, true);
    aux.x_begin_.push_back(static_cast<std::uint32_t>(aux.x_entries_.size()));
    aux.y_begin_.push_back(static_cast<std::uint32_t>(aux.y_entries_.size()));

    for (const auto& [lambda, x] : aux.x_row(vi)) {
      for (const auto& [lambda_out, y] : aux.y_row(vi)) {
        const double c = conv.cost(v, lambda, lambda_out);
        scratch.conversion.push_back(c);
        if (c == kInfiniteCost) continue;
        ++capacity[x.value()].out;
        ++capacity[y.value()].in;
        ++gadget_links;
      }
    }
  }
  const std::uint32_t gadget_nodes = next_id;

  // Terminal ties s' -> Y_s and X_t -> t'' (v' -> Y_v and X_v -> v'' per
  // node in all-pairs mode) add one row entry to each gadget node tied.
  std::size_t terminal_nodes = 0;
  std::size_t terminal_links = 0;
  auto count_terminals = [&](NodeId src, NodeId dst) {
    for (const auto& [lambda, y] : aux.y_row(src.value()))
      ++capacity[y.value()].in;
    for (const auto& [lambda, x] : aux.x_row(dst.value()))
      ++capacity[x.value()].out;
    terminal_nodes += 2;
    terminal_links += aux.y_row(src.value()).size() +
                      aux.x_row(dst.value()).size();
  };
  if (!aux.all_pairs_) {
    count_terminals(s, t);
  } else {
    for (std::uint32_t vi = 0; vi < n; ++vi)
      count_terminals(NodeId{vi}, NodeId{vi});
  }
  const std::size_t total_nodes = gadget_nodes + terminal_nodes;
  const std::size_t total_links =
      gadget_links + multigraph_links + terminal_links;
  aux.graph_.reserve(total_nodes, total_links);
  aux.node_info_.reserve(total_nodes);
  aux.link_info_.reserve(total_links);

  // --- Gadget nodes, each with exactly its counted rows. -----------------
  for (std::uint32_t vi = 0; vi < n; ++vi) {
    const NodeId v{vi};
    for (const auto& [lambda, x] : aux.x_row(vi))
      aux.add_aux_node({AuxNodeKind::kIn, v, lambda},
                       capacity[x.value()].out, capacity[x.value()].in);
    for (const auto& [lambda, y] : aux.y_row(vi))
      aux.add_aux_node({AuxNodeKind::kOut, v, lambda},
                       capacity[y.value()].out, capacity[y.value()].in);
  }
  aux.stats_.gadget_nodes = gadget_nodes;

  // --- Gadget links E_v: x_v(λ) -> y_v(λ') whenever allowed. -----------
  const double* cost = scratch.conversion.data();
  for (std::uint32_t vi = 0; vi < n; ++vi) {
    const NodeId v{vi};
    for (const auto& [lambda, x] : aux.x_row(vi)) {
      for (const auto& [lambda_out, y] : aux.y_row(vi)) {
        const double c = *cost++;
        if (c == kInfiniteCost) continue;
        aux.add_aux_link(
            x, y, c,
            {AuxLinkKind::kConversion, LinkId::invalid(), v, lambda,
             lambda_out});
      }
    }
  }
  aux.stats_.gadget_links = gadget_links;

  // --- E_org: each G_M parallel link becomes y_u(λ) -> x_v(λ). ---------
  // Λ(e), Y_u and X_v are all sorted by λ and Λ(e) ⊆ Y_u, X_v, so one
  // forward walk over each index finds every endpoint.
  for (std::uint32_t ei = 0; ei < net.num_links(); ++ei) {
    const LinkId e{ei};
    const auto ys = aux.y_row(net.tail(e).value());
    const auto xs = aux.x_row(net.head(e).value());
    auto y = ys.begin();
    auto x = xs.begin();
    for (const auto& lw : net.available(e)) {
      while (y != ys.end() && y->first < lw.lambda) ++y;
      while (x != xs.end() && x->first < lw.lambda) ++x;
      LUMEN_ASSERT(y != ys.end() && y->first == lw.lambda && x != xs.end() &&
                   x->first == lw.lambda);
      aux.add_aux_link(y->second, x->second, lw.cost,
                       {AuxLinkKind::kTransmission, e, NodeId::invalid(),
                        lw.lambda, lw.lambda});
    }
  }
  aux.stats_.multigraph_links = multigraph_links;
  aux.stats_.transmission_links = multigraph_links;

  // --- Terminals, after the core: s' then t'' then their ties. ---------
  auto add_terminals = [&aux](NodeId src, NodeId dst) {
    const auto ys = aux.y_row(src.value());
    const auto xs = aux.x_row(dst.value());
    const NodeId source = aux.add_aux_node(
        {AuxNodeKind::kSourceTerminal, src, Wavelength::invalid()},
        static_cast<std::uint32_t>(ys.size()), 0);
    const NodeId sink = aux.add_aux_node(
        {AuxNodeKind::kSinkTerminal, dst, Wavelength::invalid()}, 0,
        static_cast<std::uint32_t>(xs.size()));
    for (const auto& [lambda, y] : ys)
      aux.add_aux_link(source, y, 0.0,
                       {AuxLinkKind::kSourceTie, LinkId::invalid(), src,
                        Wavelength::invalid(), lambda});
    for (const auto& [lambda, x] : xs)
      aux.add_aux_link(x, sink, 0.0,
                       {AuxLinkKind::kSinkTie, LinkId::invalid(), dst, lambda,
                        Wavelength::invalid()});
    return std::pair{source, sink};
  };
  if (!aux.all_pairs_) {
    std::tie(aux.single_source_terminal_, aux.single_sink_terminal_) =
        add_terminals(s, t);
  } else {
    aux.source_terminals_.resize(n);
    aux.sink_terminals_.resize(n);
    for (std::uint32_t vi = 0; vi < n; ++vi)
      std::tie(aux.source_terminals_[vi], aux.sink_terminals_[vi]) =
          add_terminals(NodeId{vi}, NodeId{vi});
  }
  aux.stats_.terminal_nodes = terminal_nodes;
  aux.stats_.terminal_links = terminal_links;
  LUMEN_ASSERT(aux.graph_.num_nodes() == total_nodes &&
               aux.graph_.num_links() == total_links);
  aux.stats_.build_seconds = timer.seconds();
  return aux;
}

AuxiliaryGraph AuxiliaryGraph::build_single_pair(const WdmNetwork& net,
                                                 NodeId s, NodeId t) {
  LUMEN_REQUIRE(s.value() < net.num_nodes());
  LUMEN_REQUIRE(t.value() < net.num_nodes());
  LUMEN_REQUIRE_MSG(s != t, "single-pair auxiliary graph requires s != t");
  return build(net, s, t);
}

AuxiliaryGraph AuxiliaryGraph::build_all_pairs(const WdmNetwork& net) {
  return build(net, NodeId::invalid(), NodeId::invalid());
}

NodeId AuxiliaryGraph::source_terminal() const {
  LUMEN_REQUIRE_MSG(!all_pairs_, "single-pair accessor on all-pairs graph");
  return single_source_terminal_;
}

NodeId AuxiliaryGraph::sink_terminal() const {
  LUMEN_REQUIRE_MSG(!all_pairs_, "single-pair accessor on all-pairs graph");
  return single_sink_terminal_;
}

NodeId AuxiliaryGraph::source_terminal(NodeId v) const {
  LUMEN_REQUIRE_MSG(all_pairs_, "all-pairs accessor on single-pair graph");
  LUMEN_REQUIRE(v.value() < source_terminals_.size());
  return source_terminals_[v.value()];
}

NodeId AuxiliaryGraph::sink_terminal(NodeId v) const {
  LUMEN_REQUIRE_MSG(all_pairs_, "all-pairs accessor on single-pair graph");
  LUMEN_REQUIRE(v.value() < sink_terminals_.size());
  return sink_terminals_[v.value()];
}

const AuxNodeInfo& AuxiliaryGraph::node_info(NodeId aux) const {
  LUMEN_REQUIRE(aux.value() < node_info_.size());
  return node_info_[aux.value()];
}

const AuxLinkInfo& AuxiliaryGraph::link_info(LinkId aux) const {
  LUMEN_REQUIRE(aux.value() < link_info_.size());
  return link_info_[aux.value()];
}

NodeId AuxiliaryGraph::x_node(NodeId v, Wavelength lambda) const {
  return lookup(x_row(v.value()), lambda);
}

NodeId AuxiliaryGraph::y_node(NodeId v, Wavelength lambda) const {
  return lookup(y_row(v.value()), lambda);
}

std::uint32_t AuxiliaryGraph::x_size(NodeId v) const {
  return static_cast<std::uint32_t>(x_row(v.value()).size());
}

std::uint32_t AuxiliaryGraph::y_size(NodeId v) const {
  return static_cast<std::uint32_t>(y_row(v.value()).size());
}

Semilightpath AuxiliaryGraph::to_semilightpath(
    std::span<const LinkId> aux_path) const {
  Semilightpath path;
  for (const LinkId aux_link : aux_path) {
    const AuxLinkInfo& info = link_info(aux_link);
    if (info.kind == AuxLinkKind::kTransmission) {
      path.append(Hop{info.physical_link, info.from});
    }
  }
  return path;
}

}  // namespace lumen
