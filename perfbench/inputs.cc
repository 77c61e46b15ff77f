#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>

#include "topo/topologies.h"
#include "topo/wavelengths.h"
#include "wdm/conversion.h"

namespace perfbench {

using lumen::LinkId;
using lumen::NodeId;
using lumen::Rng;
using lumen::WdmNetwork;

namespace {

// Distinct streams for the pieces drawn from one --seed.
constexpr std::uint64_t kNetworkStream = 0x6e65'7477'6f72'6b00ULL;
constexpr std::uint64_t kDemandStream = 0x6465'6d61'6e64'7300ULL;

std::uint32_t wavelengths_for(std::uint32_t n) {
  return static_cast<std::uint32_t>(
      std::ceil(std::log2(static_cast<double>(n))));
}

double exponential(Rng& rng, double mean) {
  // next_double() is in [0, 1); flip so the log argument stays positive.
  return -mean * std::log(1.0 - rng.next_double());
}

}  // namespace

WdmNetwork sparse_wan(std::uint32_t n, std::uint64_t seed) {
  const std::uint32_t k = wavelengths_for(n);
  Rng rng(seed ^ kNetworkStream);
  const lumen::Topology topo = lumen::random_sparse_topology(n, 3 * n, rng);
  const lumen::Availability avail = lumen::uniform_availability(
      topo, k, 1, std::min(k, 4u), lumen::CostSpec::uniform(1.0, 3.0), rng);
  return lumen::assemble_network(
      topo, k, avail, std::make_shared<lumen::UniformConversion>(0.3));
}

WdmNetwork backbone_wan(std::uint32_t n, std::uint64_t seed) {
  const auto side = static_cast<std::uint32_t>(
      std::round(std::sqrt(static_cast<double>(n))));
  const std::uint32_t k = wavelengths_for(n);
  Rng rng(seed ^ kNetworkStream);
  const lumen::Topology topo =
      lumen::hierarchical_topology(side, side - 1, side / 2, rng);
  const lumen::Availability avail = lumen::uniform_availability(
      topo, k, 1, std::min(k, 4u), lumen::CostSpec::uniform(1.0, 3.0), rng);
  return lumen::assemble_network(
      topo, k, avail, std::make_shared<lumen::UniformConversion>(0.3));
}

std::vector<Demand> scattered_demands(std::uint32_t n, std::size_t count,
                                      std::uint64_t seed) {
  Rng rng(seed ^ kDemandStream);
  std::vector<Demand> demands;
  demands.reserve(count);
  while (demands.size() < count) {
    const auto s = static_cast<std::uint32_t>(rng.next_below(n));
    const auto t = static_cast<std::uint32_t>(rng.next_below(n));
    if (s != t) demands.emplace_back(NodeId{s}, NodeId{t});
  }
  return demands;
}

std::vector<Demand> busiest_spans(const WdmNetwork& net, std::size_t count) {
  const std::uint32_t n = net.num_nodes();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> link_load(net.num_links(), 0.0);
  std::vector<double> dist(n);
  std::vector<std::uint32_t> parent_link(n);
  std::vector<std::uint32_t> order;
  std::vector<double> below(n);
  using Item = std::pair<double, std::uint32_t>;
  for (std::uint32_t s = 0; s < n; ++s) {
    std::fill(dist.begin(), dist.end(), kInf);
    std::fill(parent_link.begin(), parent_link.end(), UINT32_MAX);
    order.clear();
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    dist[s] = 0.0;
    heap.emplace(0.0, s);
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[u]) continue;
      order.push_back(u);
      for (const LinkId e : net.out_links(NodeId{u})) {
        const double w = net.min_link_cost(e);
        const std::uint32_t v = net.head(e).value();
        if (d + w < dist[v]) {
          dist[v] = d + w;
          parent_link[v] = e.value();
          heap.emplace(dist[v], v);
        }
      }
    }
    // Settle order is a topological order of the tree: fold subtree sizes
    // upward in reverse.
    for (const std::uint32_t v : order) below[v] = 1.0;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const std::uint32_t e = parent_link[*it];
      if (e == UINT32_MAX) continue;
      link_load[e] += below[*it];
      below[net.tail(LinkId{e}).value()] += below[*it];
    }
  }

  std::map<Demand, double> span_load;
  for (std::uint32_t e = 0; e < net.num_links(); ++e) {
    NodeId a = net.tail(LinkId{e});
    NodeId b = net.head(LinkId{e});
    if (b < a) std::swap(a, b);
    span_load[{a, b}] += link_load[e];
  }
  std::vector<std::pair<double, Demand>> ranked;
  ranked.reserve(span_load.size());
  for (const auto& [span, load] : span_load) ranked.emplace_back(-load, span);
  std::sort(ranked.begin(), ranked.end());
  std::vector<Demand> spans;
  for (std::size_t i = 0; i < std::min(count, ranked.size()); ++i)
    spans.push_back(ranked[i].second);
  return spans;
}

ChurnTape::ChurnTape(std::uint64_t seed, std::uint32_t nodes, double erlangs,
                     std::uint32_t tenants)
    : rng_(seed), nodes_(nodes), arrival_rate_(erlangs) {
  // Zipf(s=1) over tenant ids: P(k) ∝ 1/(k+1), sampled by CDF inversion.
  double total = 0.0;
  for (std::uint32_t k = 0; k < tenants; ++k) total += 1.0 / (k + 1);
  double acc = 0.0;
  for (std::uint32_t k = 0; k < tenants; ++k) {
    acc += 1.0 / ((k + 1) * total);
    tenant_cdf_.push_back(acc);
  }
  tenant_cdf_.back() = 1.0;
  next_arrival_ = exponential(rng_, 1.0 / arrival_rate_);
}

double ChurnTape::next_time() const {
  if (!departures_.empty() && departures_.top().first <= next_arrival_)
    return departures_.top().first;
  return next_arrival_;
}

ChurnTape::Event ChurnTape::next() {
  Event event;
  if (!departures_.empty() && departures_.top().first <= next_arrival_) {
    clock_ = departures_.top().first;
    event.session = departures_.top().second;
    departures_.pop();
    return event;
  }
  clock_ = next_arrival_;
  next_arrival_ += exponential(rng_, 1.0 / arrival_rate_);
  event.open = true;
  const auto s = static_cast<std::uint32_t>(rng_.next_below(nodes_));
  auto t = static_cast<std::uint32_t>(rng_.next_below(nodes_ - 1));
  if (t >= s) ++t;
  event.source = NodeId{s};
  event.target = NodeId{t};
  const double u = rng_.next_double();
  event.tenant = static_cast<std::uint32_t>(
      std::lower_bound(tenant_cdf_.begin(), tenant_cdf_.end(), u) -
      tenant_cdf_.begin());
  return event;
}

void ChurnTape::admitted(std::uint64_t session) {
  departures_.emplace(clock_ + exponential(rng_, 1.0), session);
}

CutTimeline::CutTimeline(std::uint64_t seed, std::vector<Demand> spans,
                         double down_time, double mean_gap)
    : rng_(seed),
      spans_(std::move(spans)),
      down_time_(down_time),
      mean_gap_(mean_gap) {
  horizon_ = exponential(rng_, mean_gap_);
  refill();
}

const lumen::SpanEvent& CutTimeline::peek() {
  if (next_ == events_.size()) refill();
  return events_[next_];
}

void CutTimeline::pop() {
  (void)peek();
  ++next_;
}

void CutTimeline::refill() {
  constexpr int kCutsPerChunk = 256;
  lumen::FaultPlan plan(rng_() ^ chunk_++);
  for (int i = 0; i < kCutsPerChunk; ++i) {
    const Demand& span = spans_[rng_.next_below(spans_.size())];
    plan.span_down(span.first, span.second, horizon_, horizon_ + down_time_);
    horizon_ += down_time_ + exponential(rng_, mean_gap_);
  }
  events_ = plan.span_timeline();
  next_ = 0;
}

}  // namespace perfbench
