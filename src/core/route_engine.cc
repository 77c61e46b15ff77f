#include "core/route_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>

#include "core/layout.h"
#include "graph/landmarks.h"
#include "obs/registry.h"
#include "obs/trace_context.h"
#include "util/stopwatch.h"

namespace lumen {

namespace {

/// Engine telemetry, separate from the per-request-rebuild routers'
/// lumen.route.* family so dashboards can compare the two paths.
struct EngineInstruments {
  obs::Counter& requests =
      obs::Registry::global().counter("lumen.route.engine.requests");
  obs::Counter& found =
      obs::Registry::global().counter("lumen.route.engine.found");
  obs::Counter& not_found =
      obs::Registry::global().counter("lumen.route.engine.not_found");
  obs::Counter& core_builds =
      obs::Registry::global().counter("lumen.route.engine.core_builds");
  obs::Counter& weight_patches =
      obs::Registry::global().counter("lumen.route.engine.weight_patches");
  obs::LatencyHistogram& latency =
      obs::Registry::global().histogram("lumen.route.engine.latency_ns");
  // Search-effort family shared by every engine search path, so lumen_top
  // and the Prometheus endpoint can watch the pruning win live: pruned /
  // (pruned + relax-attempts) is the fraction of frontier work goal
  // direction removed.
  obs::Counter& search_pops =
      obs::Registry::global().counter("lumen.core.search.pops");
  obs::Counter& search_settled =
      obs::Registry::global().counter("lumen.core.search.settled");
  obs::Counter& search_pruned =
      obs::Registry::global().counter("lumen.core.search.pruned");
  // The per-target reverse search behind goal direction: pops of the
  // capped reverse Dijkstra and the cache misses that ran one.
  obs::Counter& potential_pops =
      obs::Registry::global().counter("lumen.core.potential.pops");
  obs::Counter& potential_misses =
      obs::Registry::global().counter("lumen.core.potential.misses");
  // Per-stage search split: labeled children keyed stage=astar /
  // dijkstra / lightpath, plus stage=saturated for the semilightpath
  // queries refused before any search (a saturated endpoint; 0 pops).
  // The tag sets are interned once here, so the per-query cost is a
  // lock-free family probe.
  obs::LabeledFamily<obs::Counter>& stage_queries =
      obs::Registry::global().labeled_counter(
          "lumen.route.engine.stage_queries");
  obs::LabeledFamily<obs::Counter>& stage_pops =
      obs::Registry::global().labeled_counter("lumen.route.engine.stage_pops");
  const obs::TagSet astar_stage = obs::TagSet{}.stage("astar");
  const obs::TagSet dijkstra_stage = obs::TagSet{}.stage("dijkstra");
  const obs::TagSet lightpath_stage = obs::TagSet{}.stage("lightpath");
  const obs::TagSet saturated_stage = obs::TagSet{}.stage("saturated");

  static EngineInstruments& get() {
    static EngineInstruments instruments;
    return instruments;
  }

  void record_search(const CsrRunStats& run) {
    search_pops.add(run.pops);
    search_settled.add(run.settled);
    search_pruned.add(run.pruned);
  }

  /// One search executed under `stage`, with its frontier-pop effort.
  void record_stage(const obs::TagSet& stage, const CsrRunStats& run) {
    stage_queries.at(stage).add();
    stage_pops.at(stage).add(run.pops);
  }
};

/// Farthest-point landmark selection seed.
constexpr std::uint64_t kLandmarkSeed = 0x1a27'5eedULL;

/// Pop budget B of the reverse search behind a target's potential row:
/// B = 6·⌈√n⌉ (192 at n = 1024).  A larger B makes the row exact over a
/// larger ball and the A* that reads it pops fewer nodes, but a fully
/// warmed table holds n·B entries of 12 bytes.  Chosen by measurement on
/// sparse WANs shaped like perfbench's (random_sparse_topology(n, 3n),
/// k = ⌈log2 n⌉, k0 ≤ 4; mean A* pops and µs per query over scattered
/// targets with every row warm, unloaded, one thread, 4-vCPU host; one
/// run at n = 1024, the median of three at n = 4096):
///
///   n      B = 128      192          256          384
///   1024   118 / 19.1   95 / 17.4    83 / 14.1    72 / 13.3
///   4096   431 / 128    318 / 103    259 / 86     199 / 69
///
/// and, end to end, perfbench svc-sparse-mt at n = 1024 (3 rounds of
/// alternating 10 s runs, medians): B = 128 / 192 / 256 gave 89.2k /
/// 100.2k / 103.3k ops/s, p90 131 / 110 / 103 µs.  The gain per extra pop
/// shrinks with B, and the table must stay small: B = 192 at n = 1024 is
/// a 2.25 MiB warm table, where 256 would pass 3 MiB.  The √n growth
/// keeps the measured n = 4096 optimum (384, 18 MiB warm).
std::uint32_t potential_budget(std::uint32_t n) {
  return 6 * static_cast<std::uint32_t>(
                 std::ceil(std::sqrt(static_cast<double>(n))));
}

/// Per-link sorted (λ, core transmission slot, lightpath weight index)
/// entry for O(log k0) patch lookup.
struct TransSlot {
  Wavelength lambda;
  std::uint32_t core_slot;
  std::uint32_t phys_weight_index;
};

/// A target's write-once potential row: the nodes the budgeted reverse
/// search settled, with their exact base distances to the target, and
/// the radius r_B that bounds every other node (+inf when the search
/// exhausted, so the unlisted nodes cannot reach the target).
struct PotentialRow {
  double radius = kInfiniteCost;
  std::vector<std::uint32_t> nodes;
  std::vector<double> dist;
};

/// Unique identity of an engine family (an engine and its copies) for
/// scratch-resident target tables; never zero (zero marks an empty one).
std::uint64_t next_potential_token() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// The CSR slots of the search-tree path from a seed to `hit`, in order.
std::vector<std::uint32_t> tree_slots(const CsrDigraph& g,
                                      const SearchScratch& scratch,
                                      NodeId hit) {
  std::vector<std::uint32_t> slots;
  for (std::uint32_t slot = scratch.parent_slot(hit);
       slot != CsrDigraph::kInvalidSlot; slot = scratch.parent_slot(hit)) {
    slots.push_back(slot);
    hit = g.tail(slot);
  }
  std::reverse(slots.begin(), slots.end());
  return slots;
}

}  // namespace

struct RouteEngine::Frozen {
  // Semilightpath core: flattened G' (its stored weights are the base
  // weights; a slot's original is its physical link, invalid on gadget
  // slots) plus seed/sink lists and metadata.
  std::unique_ptr<CsrDigraph> core;
  std::vector<NodeId> core_ids;  // 0, 1, ..., |V(G')| - 1
  /// Virtual terminals: sources_of[v] = Y_v, sinks_of[v] = X_v, both id
  /// ranges of G' and so slices of core_ids.
  std::vector<std::span<const NodeId>> sources_of;
  std::vector<std::span<const NodeId>> sinks_of;
  std::vector<std::uint32_t> core_phys;  // core node -> physical node
  std::vector<Wavelength> core_lambda;   // core node -> its λ
  /// Link e's transmission slots, ascending by λ, are
  /// trans_slots[trans_begin[e], trans_begin[e + 1]).
  std::vector<std::uint32_t> trans_begin;
  std::vector<TransSlot> trans_slots;

  // Goal direction: base-weight lower-bound machinery (see the
  // residual-safety invariant in the header).
  LandmarkTables landmarks;
  /// Reversed physical topology, each link weighted by its *base*
  /// cheapest-wavelength cost (the potential rows' search graph).
  std::unique_ptr<CsrDigraph> rev_base;
  /// Identity token stamped into scratch-resident target tables.
  std::uint64_t token = next_potential_token();
  /// Pop budget of every row's reverse search (potential_budget(n)).
  std::uint32_t budget = 0;
  /// rows[t]: t's potential row once some query built it.  Write-once:
  /// the first query to finish building publishes its row by CAS and a
  /// racing one frees its copy, so the publication is the one thing a
  /// query changes here.
  mutable std::vector<std::atomic<const PotentialRow*>> rows;

  /// Lightpath cache: one CSR of the physical topology, shared by all
  /// wavelengths (each copy keeps its own weight rows).
  std::unique_ptr<CsrDigraph> phys;

  Frozen() = default;
  Frozen(const Frozen&) = delete;
  Frozen& operator=(const Frozen&) = delete;
  ~Frozen() {
    for (const auto& row : rows) delete row.load();
  }
};

RouteEngine::RouteEngine(const WdmNetwork& net, const Options& options)
    : n_(net.num_nodes()), k_(net.num_wavelengths()) {
  Stopwatch timer;
  obs::CausalSpan build_span("route.engine.build");
  auto frozen = std::make_shared<Frozen>();
  Frozen& f = *frozen;

  // --- goal direction: base-weight lower-bound machinery ------------------
  // The physical topology with each link at its *base* cheapest-wavelength
  // cost.  Every semilightpath suffix pays at least this per physical link
  // crossed (conversions cost >= 0), and residual patches only raise
  // weights, so distances on this snapshot lower-bound every future
  // residual query — the zero-invalidation invariant.
  {
    Stopwatch landmark_timer;
    Digraph base_min(n_);
    for (std::uint32_t ei = 0; ei < net.num_links(); ++ei) {
      const LinkId e{ei};
      base_min.add_link(net.tail(e), net.head(e), net.min_link_cost(e));
    }
    f.rev_base = std::make_unique<CsrDigraph>(CsrDigraph::reversed(base_min));
    f.landmarks =
        select_landmarks(base_min, options.num_landmarks, kLandmarkSeed);
    stats_.landmarks = f.landmarks.num_landmarks;
    stats_.landmark_seconds = landmark_timer.seconds();
  }
  f.budget = potential_budget(n_);
  f.rows = std::vector<std::atomic<const PotentialRow*>>(n_);

  // --- lightpath cache: one physical CSR, one weight row per λ -----------
  f.phys = std::make_unique<CsrDigraph>(net.topology());
  const std::vector<std::uint32_t> phys_slot_of = f.phys->slots_by_original();
  const std::uint32_t m = f.phys->num_links();
  lightpath_weights_.assign(static_cast<std::size_t>(k_) * m, kInfiniteCost);
  for (std::uint32_t ei = 0; ei < m; ++ei) {
    const LinkId e{ei};
    for (const auto& lw : net.available(e)) {
      lightpath_weights_[static_cast<std::size_t>(lw.lambda.value()) * m +
                         phys_slot_of[ei]] = lw.cost;
    }
  }

  // --- semilightpath core: G' flattened into a CSR arena -----------------
  // Rows in node-id order, as CoreLayout::relax_out lists them (so, the
  // materialised G''s), with each link's patch table filled in the same
  // pass, ascending by λ as Y_u is.  Σ_v |X_v|·|Y_v| bounds the gadget
  // slots (equals them under full conversion): one allocation per row.
  const CoreLayout layout(net);
  const std::uint32_t core_nodes = layout.num_nodes();
  std::size_t max_slots = layout.num_transmissions();
  for (std::uint32_t vi = 0; vi < n_; ++vi)
    max_slots += std::size_t{layout.x_ids(NodeId{vi}).size()} *
                 layout.y_ids(NodeId{vi}).size();
  AlignedVector<std::uint32_t> offsets, heads;
  AlignedVector<double> weights;
  std::vector<LinkId> links;
  heads.reserve(max_slots);
  weights.reserve(max_slots);
  links.reserve(max_slots);
  f.trans_begin.resize(m + 1, 0);
  for (std::uint32_t ei = 0; ei < m; ++ei)
    f.trans_begin[ei + 1] = f.trans_begin[ei] + net.num_available(LinkId{ei});
  f.trans_slots.resize(f.trans_begin[m]);
  std::vector<std::uint32_t> fill(f.trans_begin.begin(),
                                  f.trans_begin.end() - 1);
  for (std::uint32_t a = 0; a < core_nodes; ++a) {
    offsets.push_back(static_cast<std::uint32_t>(heads.size()));
    const auto [kind, v, lambda] = layout.node(NodeId{a});
    f.core_ids.push_back(NodeId{a});
    f.core_phys.push_back(v.value());
    f.core_lambda.push_back(lambda);
    layout.relax_out(NodeId{a}, net.conversion(),
                     [&](NodeId head, double weight, LinkId link, bool) {
                       if (link.valid()) {
                         const std::uint32_t ei = link.value();
                         f.trans_slots[fill[ei]++] = {
                             lambda, static_cast<std::uint32_t>(heads.size()),
                             lambda.value() * m + phys_slot_of[ei]};
                       }
                       heads.push_back(head.value());
                       weights.push_back(weight);
                       links.push_back(link);
                     });
  }
  offsets.push_back(static_cast<std::uint32_t>(heads.size()));
  core_weights_.assign(weights.begin(), weights.end());
  f.core = std::make_unique<CsrDigraph>(std::move(offsets), std::move(heads),
                                        std::move(weights), std::move(links));
  const CsrDigraph& core = *f.core;
  stats_.transmission_slots = layout.num_transmissions();
  const auto slice = [&f](CoreLayout::Ids ids) {
    return std::span(f.core_ids).subspan(*ids.begin(), ids.size());
  };
  for (std::uint32_t vi = 0; vi < n_; ++vi) {
    f.sources_of.push_back(slice(layout.y_ids(NodeId{vi})));
    f.sinks_of.push_back(slice(layout.x_ids(NodeId{vi})));
  }

  stats_.core_nodes = core.num_nodes();
  stats_.core_links = core.num_links();
  frozen_ = std::move(frozen);
  stats_.build_seconds = timer.seconds();
  EngineInstruments::get().core_builds.add();
}

RouteResult RouteEngine::route_semilightpath(NodeId s, NodeId t) {
  return route_semilightpath(s, t, scratch_);
}

RouteResult RouteEngine::route_semilightpath(NodeId s, NodeId t,
                                             const QueryOptions& query) {
  return route_semilightpath(s, t, scratch_, query);
}

const SearchScratch::TargetPotential& RouteEngine::target_potential(
    NodeId t, SearchScratch& scratch, std::uint64_t& pops) const {
  const Frozen& f = *frozen_;
  SearchScratch::TargetPotential& table = scratch.target_potential();
  pops = 0;
  if (table.owner == f.token && table.target == t.value()) return table;

  std::atomic<const PotentialRow*>& published = f.rows[t.value()];
  const PotentialRow* row = published.load();
  if (row == nullptr) {
    // First query to t in this engine family: a reverse Dijkstra from t
    // over the base-weight physical topology, stopped after B pops.
    auto built = std::make_unique<PotentialRow>();
    CsrRunStats run_stats;
    built->radius =
        dijkstra_csr_budget(*f.rev_base, t, f.budget, scratch, built->nodes,
                            &run_stats);
    built->nodes.shrink_to_fit();
    built->dist.reserve(built->nodes.size());
    for (const std::uint32_t v : built->nodes)
      built->dist.push_back(scratch.dist(NodeId{v}));
    pops = run_stats.pops;
    const PotentialRow* winner = nullptr;
    if (published.compare_exchange_strong(winner, built.get())) {
      row = built.release();
      // The counters count published rows: at most one per target per
      // engine family.
      EngineInstruments& instruments = EngineInstruments::get();
      instruments.potential_misses.add();
      instruments.potential_pops.add(run_stats.pops);
    } else {
      row = winner;  // a concurrent query published first; ours is freed
    }
  }

  // Expand: reset the previous row's entries, write this row's.
  if (table.dist.size() < n_) table.dist.resize(n_, kInfiniteCost);
  for (const std::uint32_t v : table.nodes) table.dist[v] = kInfiniteCost;
  table.nodes = row->nodes;
  for (std::size_t i = 0; i < row->nodes.size(); ++i)
    table.dist[row->nodes[i]] = row->dist[i];
  table.radius = row->radius;
  table.owner = f.token;
  table.target = t.value();
  return table;
}

bool RouteEngine::saturated_endpoint(NodeId s, NodeId t) const {
  const Frozen& f = *frozen_;
  const double* weights = core_weights_.data();
  const auto finite = [](double w) { return w < kInfiniteCost; };
  // s' reaches the core only through the E_org rows of Y_s; Y_s is an id
  // range, so its rows are one contiguous slot range.
  const std::span<const NodeId> ys = f.sources_of[s.value()];
  if (ys.empty() ||
      std::none_of(weights + f.core->out_slot_range(ys.front()).first,
                   weights + f.core->out_slot_range(ys.back()).second,
                   finite))
    return true;
  // X_t is entered only by the transmission slots of t's physical
  // in-links, which are t's out-links in the reversed base topology.
  const auto [first, last] = f.rev_base->out_slot_range(t);
  for (std::uint32_t slot = first; slot < last; ++slot) {
    const std::uint32_t e = f.rev_base->original(slot).value();
    for (std::uint32_t i = f.trans_begin[e]; i < f.trans_begin[e + 1]; ++i)
      if (finite(weights[f.trans_slots[i].core_slot])) return false;
  }
  return true;
}

RouteResult RouteEngine::route_semilightpath(NodeId s, NodeId t,
                                             SearchScratch& scratch,
                                             const QueryOptions& query) const {
  LUMEN_REQUIRE(s.value() < n_);
  LUMEN_REQUIRE(t.value() < n_);
  EngineInstruments& instruments = EngineInstruments::get();
  instruments.requests.add();
  RouteResult result;
  result.stats.aux_nodes = stats_.core_nodes;
  result.stats.aux_links = stats_.core_links;
  if (s == t) {
    instruments.found.add();
    result.found = true;  // the empty path, of cost 0
    return result;
  }
  // Ambient causal span: an engine query launched inside a traced request
  // (SessionManager::open) becomes a child of that request's span tree.
  obs::CausalSpan causal_span("engine.semilightpath");
  causal_span.set_node(s.value());

  const Frozen& f = *frozen_;
  const CsrDigraph& core = *f.core;
  Stopwatch timer;

  const auto not_found = [&] {
    result.found = false;
    result.cost = kInfiniteCost;
    instruments.not_found.add();
    instruments.latency.record_seconds(result.stats.total_seconds());
    return std::move(result);
  };

  // X_t = ∅ or Y_s = ∅ in the residual G_{s,t}: no search can reach t'',
  // so refuse before the potential row and the search (0 pops).
  if (saturated_endpoint(s, t)) {
    instruments.record_stage(instruments.saturated_stage, CsrRunStats{});
    result.stats.search_seconds = timer.seconds();
    return not_found();
  }

  // The target table must be resolved before scratch.begin() below:
  // building a row runs its own search in the same scratch.
  const bool goal = query.goal_directed;
  const double* row = nullptr;
  double radius = kInfiniteCost;
  if (goal) {
    const SearchScratch::TargetPotential& table =
        target_potential(t, scratch, result.stats.potential_pops);
    row = table.dist.data();
    radius = table.radius;
  }

  // π_t over core nodes = the row's bound at the node's physical site,
  // max-combined with the ALT bound when the engine has landmarks.  Both
  // are 0 at t itself, so every sink has potential 0 and the first
  // settled sink is still the cheapest.
  const bool use_alt = !f.landmarks.empty();
  const std::uint32_t tv = t.value();
  const std::uint32_t* core_phys = f.core_phys.data();
  const auto potential = [&](std::uint32_t aux_node) {
    const std::uint32_t p = core_phys[aux_node];
    double h = std::min(row[p], radius);
    if (use_alt && h < kInfiniteCost) {
      const double alt = f.landmarks.potential(p, tv);
      if (alt > h) h = alt;
    }
    return h;
  };

  // Virtual terminals: every y_s(λ) is a distance-0 seed (≡ the zero-weight
  // s' → Y_s ties), every x_t(λ) a sink; the first settled sink is the best
  // endpoint over all arrival wavelengths (≡ the zero-weight X_t → t''
  // fan-in), by Dijkstra's settle order.
  scratch.begin(core.num_nodes());
  for (const NodeId x : f.sinks_of[t.value()]) scratch.mark_sink(x);
  CsrRunStats run_stats;
  NodeId hit;
  if (goal) {
    hit = csr_search_run(core, f.sources_of[s.value()], scratch, potential,
                         &run_stats, core_weights_);
  } else {
    hit = dijkstra_csr_run(core, f.sources_of[s.value()], scratch, &run_stats,
                           core_weights_);
  }
  instruments.record_search(run_stats);
  instruments.record_stage(
      goal ? instruments.astar_stage : instruments.dijkstra_stage, run_stats);
  result.stats.search_pops = run_stats.pops;
  result.stats.search_settled = run_stats.settled;
  result.stats.search_relaxations = run_stats.relaxations;
  result.stats.search_pruned = run_stats.pruned;
  result.stats.search_seconds = timer.seconds();

  if (!hit.valid()) return not_found();

  result.found = true;
  result.cost = scratch.dist(hit);
  // Translate the tree path forward (s != t, so it has a slot): transmission
  // slots become hops, gadget slots with λ != λ' become switches.
  const std::vector<std::uint32_t> slots = tree_slots(core, scratch, hit);
  std::uint32_t tail = core.tail(slots.front()).value();
  for (const std::uint32_t slot : slots) {
    const std::uint32_t head = core.head(slot).value();
    const Wavelength from = f.core_lambda[tail];
    const Wavelength to = f.core_lambda[head];
    if (const LinkId e = core.original(slot); e.valid()) {
      result.path.append(Hop{e, from});
    } else if (from != to) {
      result.switches.push_back(
          SwitchSetting{NodeId{f.core_phys[tail]}, from, to});
    }
    tail = head;
  }

  instruments.found.add();
  instruments.latency.record_seconds(result.stats.total_seconds());
  return result;
}

RouteResult RouteEngine::route_lightpath(NodeId s, NodeId t) {
  return route_lightpath(s, t, scratch_);
}

RouteResult RouteEngine::route_lightpath(NodeId s, NodeId t,
                                         SearchScratch& scratch) const {
  LUMEN_REQUIRE(s.value() < n_);
  LUMEN_REQUIRE(t.value() < n_);
  EngineInstruments& instruments = EngineInstruments::get();
  instruments.requests.add();
  if (s == t) {
    instruments.found.add();
    RouteResult result;
    result.found = true;
    result.cost = 0.0;
    result.stats.aux_nodes = n_;
    result.stats.aux_links = frozen_->phys->num_links();
    return result;
  }
  obs::CausalSpan causal_span("engine.lightpath");
  causal_span.set_node(s.value());

  const CsrDigraph& phys = *frozen_->phys;
  RouteResult best;
  best.found = false;
  best.cost = kInfiniteCost;
  best.stats.aux_nodes = n_;
  best.stats.aux_links = phys.num_links();
  Stopwatch timer;

  const std::uint32_t m = phys.num_links();
  const NodeId sources[1] = {s};
  for (std::uint32_t li = 0; li < k_; ++li) {
    const std::span<const double> row{
        lightpath_weights_.data() + static_cast<std::size_t>(li) * m, m};
    scratch.begin(phys.num_nodes());
    scratch.mark_sink(t);
    CsrRunStats run_stats;
    const NodeId hit = dijkstra_csr_run(phys, sources, scratch, &run_stats,
                                        row);
    ++best.stats.wavelengths_searched;
    instruments.record_search(run_stats);
    instruments.record_stage(instruments.lightpath_stage, run_stats);
    best.stats.search_pops += run_stats.pops;
    best.stats.search_settled += run_stats.settled;
    best.stats.search_relaxations += run_stats.relaxations;
    best.stats.search_pruned += run_stats.pruned;
    if (!hit.valid() || scratch.dist(hit) >= best.cost) continue;

    best.found = true;
    best.cost = scratch.dist(hit);
    Semilightpath path;
    for (const std::uint32_t slot : tree_slots(phys, scratch, hit))
      path.append(Hop{phys.original(slot), Wavelength{li}});
    best.path = std::move(path);
  }
  best.switches.clear();  // lightpaths never convert
  best.stats.search_seconds = timer.seconds();
  (best.found ? instruments.found : instruments.not_found).add();
  instruments.latency.record_seconds(best.stats.total_seconds());
  return best;
}

std::pair<std::uint32_t, std::uint32_t> RouteEngine::find_slot(
    LinkId e, Wavelength lambda) const {
  const Frozen& f = *frozen_;
  LUMEN_REQUIRE(e.value() + 1 < f.trans_begin.size());
  const TransSlot* first = f.trans_slots.data() + f.trans_begin[e.value()];
  const TransSlot* last = f.trans_slots.data() + f.trans_begin[e.value() + 1];
  const auto it = std::lower_bound(
      first, last, lambda,
      [](const TransSlot& entry, Wavelength l) { return entry.lambda < l; });
  if (it == last || it->lambda != lambda)
    return {CsrDigraph::kInvalidSlot, 0};
  return {it->core_slot, it->phys_weight_index};
}

void RouteEngine::set_weight(LinkId e, Wavelength lambda, double weight) {
  const auto [core_slot, weight_index] = find_slot(e, lambda);
  LUMEN_REQUIRE_MSG(core_slot != CsrDigraph::kInvalidSlot,
                    "wavelength not in the base availability of this link; "
                    "structural changes require a new RouteEngine");
  LUMEN_REQUIRE_MSG(weight >= frozen_->core->weight(core_slot),
                    "patched weight below the build-time base breaks the "
                    "goal-direction lower bounds; build a new RouteEngine");
  core_weights_[core_slot] = weight;
  lightpath_weights_[weight_index] = weight;
  EngineInstruments::get().weight_patches.add();
}

double RouteEngine::weight(LinkId e, Wavelength lambda) const {
  const std::uint32_t core_slot = find_slot(e, lambda).first;
  return core_slot == CsrDigraph::kInvalidSlot
             ? kInfiniteCost
             : core_weights_[core_slot];
}

}  // namespace lumen
