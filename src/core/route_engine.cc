#include "core/route_engine.h"

#include <algorithm>
#include <atomic>

#include "core/aux_graph.h"
#include "obs/registry.h"
#include "obs/trace_context.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

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
  // dijkstra / lightpath.  The tag sets are interned once here, so the
  // per-query cost is a lock-free family probe.
  obs::LabeledFamily<obs::Counter>& stage_queries =
      obs::Registry::global().labeled_counter(
          "lumen.route.engine.stage_queries");
  obs::LabeledFamily<obs::Counter>& stage_pops =
      obs::Registry::global().labeled_counter("lumen.route.engine.stage_pops");
  const obs::TagSet astar_stage = obs::TagSet{}.stage("astar");
  const obs::TagSet dijkstra_stage = obs::TagSet{}.stage("dijkstra");
  const obs::TagSet lightpath_stage = obs::TagSet{}.stage("lightpath");

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

/// Unique per-engine identity for scratch-resident potential caches; never
/// zero (zero marks an empty cache slot).
std::uint64_t next_potential_token() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Runs work(i, scratch) for every i in [0, count): inline for threads ==
/// 1 or a single item, otherwise one drainer per pool worker, each owning
/// its scratch, with a shared cursor balancing uneven item costs.  Items
/// write distinct result slots, so the pool's join is the only
/// synchronization needed.
template <class Work>
void drain(std::size_t count, unsigned threads, const Work& work) {
  if (threads == 1 || count <= 1) {
    SearchScratch scratch;
    for (std::size_t i = 0; i < count; ++i) work(i, scratch);
    return;
  }
  ThreadPool pool(threads);
  std::atomic<std::size_t> cursor{0};
  const std::size_t drainers = std::min<std::size_t>(pool.size(), count);
  for (std::size_t w = 0; w < drainers; ++w) {
    pool.submit([&] {
      SearchScratch scratch;
      for (;;) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        work(i, scratch);
      }
    });
  }
  pool.wait();
}

}  // namespace

RouteEngine::RouteEngine(const WdmNetwork& net, const Options& options)
    : n_(net.num_nodes()),
      k_(net.num_wavelengths()),
      potential_token_(next_potential_token()) {
  Stopwatch timer;
  obs::CausalSpan build_span("route.engine.build");

  // --- semilightpath core: flatten G' into a CSR arena -------------------
  const AuxiliaryGraph aux = AuxiliaryGraph::build_core(net);
  core_ = std::make_unique<CsrDigraph>(aux.graph());

  sources_of_.resize(n_);
  sinks_of_.resize(n_);
  for (std::uint32_t vi = 0; vi < n_; ++vi) {
    const NodeId v{vi};
    for (const auto& [lambda, y] : aux.y_nodes(v)) sources_of_[vi].push_back(y);
    for (const auto& [lambda, x] : aux.x_nodes(v)) sinks_of_[vi].push_back(x);
  }
  core_phys_.resize(core_->num_nodes());
  for (std::uint32_t a = 0; a < core_->num_nodes(); ++a)
    core_phys_[a] = aux.node_info(NodeId{a}).node.value();

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
    rev_base_ = std::make_unique<CsrDigraph>(CsrDigraph::reversed(base_min));
    landmarks_ =
        select_landmarks(base_min, options.num_landmarks, kLandmarkSeed);
    stats_.landmarks = landmarks_.num_landmarks;
    stats_.landmark_seconds = landmark_timer.seconds();
  }

  // --- lightpath cache: one physical CSR, one weight row per λ -----------
  phys_ = std::make_unique<CsrDigraph>(net.topology());
  const std::vector<std::uint32_t> phys_slot_of = phys_->slots_by_original();
  const std::uint32_t m = phys_->num_links();
  lightpath_weights_.assign(static_cast<std::size_t>(k_) * m, kInfiniteCost);
  for (std::uint32_t ei = 0; ei < m; ++ei) {
    const LinkId e{ei};
    for (const auto& lw : net.available(e)) {
      lightpath_weights_[static_cast<std::size_t>(lw.lambda.value()) * m +
                         phys_slot_of[ei]] = lw.cost;
    }
  }

  // --- slot metadata + per-link patch tables ------------------------------
  slot_info_.resize(core_->num_links());
  trans_slots_.resize(m);
  for (std::uint32_t slot = 0; slot < core_->num_links(); ++slot) {
    const AuxLinkInfo& info = aux.link_info(core_->link(slot).original);
    if (info.kind == AuxLinkKind::kTransmission) {
      slot_info_[slot] = {info.physical_link, NodeId::invalid(), info.from,
                          info.to};
      const std::uint32_t ei = info.physical_link.value();
      trans_slots_[ei].push_back(
          {info.from, slot,
           static_cast<std::uint32_t>(
               static_cast<std::size_t>(info.from.value()) * m +
               phys_slot_of[ei])});
      ++stats_.transmission_slots;
    } else {
      LUMEN_ASSERT(info.kind == AuxLinkKind::kConversion);
      slot_info_[slot] = {LinkId::invalid(), info.node, info.from, info.to};
    }
  }
  for (auto& table : trans_slots_) {
    std::sort(table.begin(), table.end(),
              [](const TransSlot& a, const TransSlot& b) {
                return a.lambda < b.lambda;
              });
  }
  base_core_weights_.resize(core_->num_links());
  for (std::uint32_t slot = 0; slot < core_->num_links(); ++slot)
    base_core_weights_[slot] = core_->link(slot).weight;

  stats_.core_nodes = core_->num_nodes();
  stats_.core_links = core_->num_links();
  stats_.build_seconds = timer.seconds();
  EngineInstruments::get().core_builds.add();
}

RouteResult RouteEngine::trivial_self_route() const {
  RouteResult result;
  result.found = true;
  result.cost = 0.0;
  result.stats.aux_nodes = core_->num_nodes();
  result.stats.aux_links = core_->num_links();
  return result;
}

RouteResult RouteEngine::route_semilightpath(NodeId s, NodeId t) {
  return route_semilightpath(s, t, scratch_);
}

RouteResult RouteEngine::route_semilightpath(NodeId s, NodeId t,
                                             const QueryOptions& query) {
  return route_semilightpath(s, t, scratch_, query);
}

const double* RouteEngine::target_potential(NodeId s, NodeId t,
                                            SearchScratch& scratch,
                                            std::uint64_t& pops) const {
  SearchScratch::TargetPotential& slot = scratch.target_potential();
  pops = 0;
  if (slot.owner == potential_token_ && slot.target == t.value()) {
    // Hit when s lies inside the cached ball (its entry is then its exact
    // distance, below the radius, or s is the ball's own source) or the
    // row is exact everywhere (radius +inf).  An s outside the ball would
    // search under a weak, capped row.
    if (slot.dist[s.value()] < slot.radius || slot.source == s.value() ||
        slot.radius == kInfiniteCost)
      return slot.dist.data();
  }
  // Miss: one reverse Dijkstra from t over the base-weight physical
  // topology, stopped when s settles at radius r = d(s, t).
  const NodeId sources[1] = {t};
  scratch.begin(rev_base_->num_nodes());
  scratch.mark_sink(s);
  CsrRunStats run_stats;
  const NodeId reached = dijkstra_csr_run(*rev_base_, sources, scratch,
                                          &run_stats);
  // The unsettled nodes provably cannot reach t when the search exhausted,
  // or when it stopped at s with an empty frontier and none of s's own
  // reverse links (the kernel stops before relaxing them) leads outside
  // the settled set.  Otherwise they are bounded by the radius.
  bool exact = !reached.valid();
  if (!exact && scratch.frontier_empty()) {
    exact = true;
    const double* w = rev_base_->weights_data();
    const auto [first, last] = rev_base_->out_slot_range(s);
    for (std::uint32_t e = first; e < last; ++e) {
      if (w[e] < kInfiniteCost && !scratch.settled(rev_base_->head(e))) {
        exact = false;
        break;
      }
    }
  }
  // By settle order every settled node is at most r from t and every
  // queued or untouched one at least r, so min(dist, r) is the row
  // without a per-node settled test (an exact row has no queued nodes).
  const double radius = exact ? kInfiniteCost : scratch.dist(s);
  slot.dist.resize(n_);
  for (std::uint32_t v = 0; v < n_; ++v)
    slot.dist[v] = std::min(scratch.dist(NodeId{v}), radius);
  slot.owner = potential_token_;
  slot.target = t.value();
  slot.source = s.value();
  slot.radius = radius;
  pops = run_stats.pops;
  EngineInstruments& instruments = EngineInstruments::get();
  instruments.potential_misses.add();
  instruments.potential_pops.add(run_stats.pops);
  return slot.dist.data();
}

RouteResult RouteEngine::route_semilightpath(NodeId s, NodeId t,
                                             SearchScratch& scratch,
                                             const QueryOptions& query) const {
  LUMEN_REQUIRE(s.value() < n_);
  LUMEN_REQUIRE(t.value() < n_);
  EngineInstruments& instruments = EngineInstruments::get();
  instruments.requests.add();
  if (s == t) {
    instruments.found.add();
    return trivial_self_route();
  }
  // Ambient causal span: an engine query launched inside a traced request
  // (SessionManager::open) becomes a child of that request's span tree.
  obs::CausalSpan causal_span("engine.semilightpath");
  causal_span.set_node(s.value());

  RouteResult result;
  result.stats.aux_nodes = core_->num_nodes();
  result.stats.aux_links = core_->num_links();
  Stopwatch timer;

  // The per-target table must be resolved before scratch.begin() below:
  // filling it on a miss runs its own search in the same scratch.
  const bool goal = query.goal_directed;
  const double* to_target =
      goal ? target_potential(s, t, scratch, result.stats.potential_pops)
           : nullptr;

  // π_t over core nodes = the capped row at the node's physical site,
  // max-combined with the ALT bound when the engine has landmarks.  Both
  // are 0 at t itself, so every sink has potential 0 and the first
  // settled sink is still the cheapest.
  const bool use_alt = !landmarks_.empty();
  const std::uint32_t tv = t.value();
  const auto potential = [&](std::uint32_t aux_node) {
    const std::uint32_t p = core_phys_[aux_node];
    double h = to_target[p];
    if (use_alt && h < kInfiniteCost) {
      const double alt = landmarks_.potential(p, tv);
      if (alt > h) h = alt;
    }
    return h;
  };

  // Virtual terminals: every y_s(λ) is a distance-0 seed (≡ the zero-weight
  // s' → Y_s ties), every x_t(λ) a sink; the first settled sink is the best
  // endpoint over all arrival wavelengths (≡ the zero-weight X_t → t''
  // fan-in), by Dijkstra's settle order.
  scratch.begin(core_->num_nodes());
  for (const NodeId x : sinks_of_[t.value()]) scratch.mark_sink(x);
  CsrRunStats run_stats;
  NodeId hit;
  if (goal) {
    hit = astar_csr_run(*core_, sources_of_[s.value()], scratch, potential,
                        &run_stats);
  } else {
    hit = dijkstra_csr_run(*core_, sources_of_[s.value()], scratch,
                           &run_stats);
  }
  instruments.record_search(run_stats);
  instruments.record_stage(
      goal ? instruments.astar_stage : instruments.dijkstra_stage, run_stats);
  result.stats.search_pops = run_stats.pops;
  result.stats.search_settled = run_stats.settled;
  result.stats.search_relaxations = run_stats.relaxations;
  result.stats.search_pruned = run_stats.pruned;
  result.stats.search_seconds = timer.seconds();

  if (!hit.valid()) {
    result.found = false;
    result.cost = kInfiniteCost;
    instruments.not_found.add();
    instruments.latency.record_seconds(result.stats.total_seconds());
    return result;
  }

  result.found = true;
  result.cost = scratch.dist(hit);
  // Walk parent slots back to a seed, then translate forward: transmission
  // slots become hops; conversion slots with from != to become switches.
  std::vector<std::uint32_t> slots;
  for (NodeId v = hit;;) {
    const std::uint32_t slot = scratch.parent_slot(v);
    if (slot == CsrDigraph::kInvalidSlot) break;
    slots.push_back(slot);
    v = core_->tail(slot);
  }
  std::reverse(slots.begin(), slots.end());
  for (const std::uint32_t slot : slots) {
    const SlotInfo& info = slot_info_[slot];
    if (info.phys.valid()) {
      result.path.append(Hop{info.phys, info.from});
    } else if (info.from != info.to) {
      result.switches.push_back(SwitchSetting{info.node, info.from, info.to});
    }
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
    result.stats.aux_links = phys_->num_links();
    return result;
  }
  obs::CausalSpan causal_span("engine.lightpath");
  causal_span.set_node(s.value());

  RouteResult best;
  best.found = false;
  best.cost = kInfiniteCost;
  best.stats.aux_nodes = n_;
  best.stats.aux_links = phys_->num_links();
  Stopwatch timer;

  const std::uint32_t m = phys_->num_links();
  const NodeId sources[1] = {s};
  for (std::uint32_t li = 0; li < k_; ++li) {
    const std::span<const double> row{
        lightpath_weights_.data() + static_cast<std::size_t>(li) * m, m};
    scratch.begin(phys_->num_nodes());
    scratch.mark_sink(t);
    CsrRunStats run_stats;
    const NodeId hit = dijkstra_csr_run(*phys_, sources, scratch, &run_stats,
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
    std::vector<std::uint32_t> slots;
    for (NodeId v = hit;;) {
      const std::uint32_t slot = scratch.parent_slot(v);
      if (slot == CsrDigraph::kInvalidSlot) break;
      slots.push_back(slot);
      v = phys_->tail(slot);
    }
    std::reverse(slots.begin(), slots.end());
    Semilightpath path;
    for (const std::uint32_t slot : slots)
      path.append(Hop{phys_->link(slot).original, Wavelength{li}});
    best.path = std::move(path);
  }
  best.switches.clear();  // lightpaths never convert
  best.stats.search_seconds = timer.seconds();
  (best.found ? instruments.found : instruments.not_found).add();
  instruments.latency.record_seconds(best.stats.total_seconds());
  return best;
}

std::vector<RouteResult> RouteEngine::route_many(
    std::span<const std::pair<NodeId, NodeId>> pairs, unsigned threads,
    QueryKind kind, const QueryOptions& query) const {
  std::vector<RouteResult> results(pairs.size());
  drain(pairs.size(), threads, [&](std::size_t i, SearchScratch& scratch) {
    const auto& [s, t] = pairs[i];
    results[i] = kind == QueryKind::kSemilightpath
                     ? route_semilightpath(s, t, scratch, query)
                     : route_lightpath(s, t, scratch);
  });
  return results;
}

std::vector<std::vector<double>> RouteEngine::bulk_costs(
    std::span<const NodeId> sources, unsigned threads) const {
  for (const NodeId s : sources) LUMEN_REQUIRE(s.value() < n_);
  EngineInstruments& instruments = EngineInstruments::get();
  std::vector<std::vector<double>> rows(sources.size());
  drain(sources.size(), threads, [&](std::size_t i, SearchScratch& scratch) {
    const NodeId s = sources[i];
    std::vector<double>& row = rows[i];
    row.assign(n_, kInfiniteCost);
    row[s.value()] = 0.0;
    // Isolated sources (no usable wavelength at all) need no search.
    if (sources_of_[s.value()].empty()) return;
    scratch.begin(core_->num_nodes());
    CsrRunStats run_stats;
    (void)dijkstra_csr_run(*core_, sources_of_[s.value()], scratch,
                           &run_stats);
    instruments.record_search(run_stats);
    instruments.record_stage(instruments.dijkstra_stage, run_stats);
    // row[t] = min over the sinks X_t of the core distance — the point
    // query's first-settled-sink rule applied to every target at once.
    // The diagonal stays 0 (trivial self-route).
    for (std::uint32_t t = 0; t < n_; ++t) {
      if (t == s.value()) continue;
      double best = kInfiniteCost;
      for (const NodeId x : sinks_of_[t]) {
        const double d = scratch.dist(x);
        if (d < best) best = d;
      }
      row[t] = best;
    }
  });
  return rows;
}

std::pair<std::uint32_t, std::uint32_t> RouteEngine::find_slot(
    LinkId e, Wavelength lambda) const {
  LUMEN_REQUIRE(e.value() < trans_slots_.size());
  const auto& table = trans_slots_[e.value()];
  const auto it = std::lower_bound(
      table.begin(), table.end(), lambda,
      [](const TransSlot& entry, Wavelength l) { return entry.lambda < l; });
  if (it == table.end() || it->lambda != lambda)
    return {CsrDigraph::kInvalidSlot, 0};
  return {it->core_slot, it->phys_weight_index};
}

std::pair<std::uint32_t, std::uint32_t> RouteEngine::locate(
    LinkId e, Wavelength lambda) const {
  const auto slot = find_slot(e, lambda);
  LUMEN_REQUIRE_MSG(slot.first != CsrDigraph::kInvalidSlot,
                    "wavelength not in the base availability of this link; "
                    "structural changes require a new RouteEngine");
  return slot;
}

void RouteEngine::set_weight(LinkId e, Wavelength lambda, double weight) {
  const auto [core_slot, weight_index] = locate(e, lambda);
  LUMEN_REQUIRE_MSG(weight >= base_core_weights_[core_slot],
                    "patched weight below the build-time base breaks the "
                    "goal-direction lower bounds; build a new RouteEngine");
  core_->set_weight(core_slot, weight);
  lightpath_weights_[weight_index] = weight;
  EngineInstruments::get().weight_patches.add();
}

double RouteEngine::weight(LinkId e, Wavelength lambda) const {
  const std::uint32_t core_slot = find_slot(e, lambda).first;
  return core_slot == CsrDigraph::kInvalidSlot
             ? kInfiniteCost
             : core_->link(core_slot).weight;
}

}  // namespace lumen
