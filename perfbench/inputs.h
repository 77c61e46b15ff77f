// Input generation for the end-to-end benchmark.
//
// Everything the program under test receives — the network, the
// open/close request tape, the span-cut timeline and the demand list — is
// made here, as a pure function of a seed: the network from a constant one
// (each workload's fixed data set), the requests from --seed.  The program is
// handed only these generated inputs (plus a tenant count); every engine,
// shard and routing knob stays at the program's own default.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "dist/fault_plan.h"
#include "util/rng.h"
#include "wdm/network.h"

namespace perfbench {

using Demand = std::pair<lumen::NodeId, lumen::NodeId>;

/// The E2 / Section III-C regime: random sparse WAN (a Hamiltonian cycle
/// plus 3n random directed links), k = ceil(log2 n), k0 <= 4 wavelengths
/// per link, uniform conversion at cost 0.3.
[[nodiscard]] lumen::WdmNetwork sparse_wan(std::uint32_t n,
                                           std::uint64_t seed);

/// The E19 metro/backbone WAN at the same wavelength regime: sqrt(n) hubs
/// on a chorded ring, each serving a (sqrt(n) - 1)-node access ring.
[[nodiscard]] lumen::WdmNetwork backbone_wan(std::uint32_t n,
                                             std::uint64_t seed);

/// `count` scattered (s, t) pairs with s != t.
[[nodiscard]] std::vector<Demand> scattered_demands(std::uint32_t n,
                                                    std::size_t count,
                                                    std::uint64_t seed);

/// The `count` spans (node pairs joined by a link in either direction)
/// crossed by the most cheapest-path trees of the base network: for every
/// source, each tree link is charged the number of destinations routed
/// through it, and a span sums its two directions.  Cutting one of these
/// spans hits the sessions a shortest-path router put there.
[[nodiscard]] std::vector<Demand> busiest_spans(const lumen::WdmNetwork& net,
                                                std::size_t count);

/// One closed-loop client on a virtual clock: Poisson arrivals at
/// `erlangs` sessions per unit mean holding time, exponential holding
/// times, scattered (s, t) pairs and Zipf(s=1) tenants.  The virtual clock
/// only orders arrivals against departures; the client issues its next
/// call as soon as the previous one returns.
class ChurnTape {
 public:
  struct Event {
    bool open = false;
    lumen::NodeId source;
    lumen::NodeId target;
    std::uint32_t tenant = 0;
    std::uint64_t session = 0;  ///< the session a close releases
  };

  ChurnTape(std::uint64_t seed, std::uint32_t nodes, double erlangs,
            std::uint32_t tenants);

  /// Virtual time of the next event.
  [[nodiscard]] double next_time() const;
  /// Pops the next event and advances the virtual clock to it.
  [[nodiscard]] Event next();
  /// Schedules the departure of a session the last open admitted.
  void admitted(std::uint64_t session);

 private:
  lumen::Rng rng_;
  std::uint32_t nodes_;
  double arrival_rate_;
  std::vector<double> tenant_cdf_;
  double clock_ = 0.0;
  double next_arrival_ = 0.0;
  using Departure = std::pair<double, std::uint64_t>;
  std::priority_queue<Departure, std::vector<Departure>, std::greater<>>
      departures_;
};

/// An endless seeded span-cut timeline: one cut at a time, each span drawn
/// uniformly from `spans`, down for `down_time` virtual time units, the
/// next cut an exponential gap of mean `mean_gap` after the repair.  Built
/// chunk by chunk as FaultPlan::span_down windows and replayed in
/// FaultPlan::span_timeline() order.
class CutTimeline {
 public:
  CutTimeline(std::uint64_t seed, std::vector<Demand> spans,
              double down_time, double mean_gap);

  [[nodiscard]] const lumen::SpanEvent& peek();
  void pop();

 private:
  void refill();

  lumen::Rng rng_;
  std::vector<Demand> spans_;
  double down_time_;
  double mean_gap_;
  double horizon_ = 0.0;  ///< start of the next cut
  std::uint64_t chunk_ = 0;
  std::vector<lumen::SpanEvent> events_;
  std::size_t next_ = 0;
};

}  // namespace perfbench
