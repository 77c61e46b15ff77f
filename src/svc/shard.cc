#include "svc/shard.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "graph/dijkstra.h"  // kInfiniteCost
#include "obs/trace_context.h"
#include "util/error.h"

namespace lumen::svc {

Shard::Shard(std::uint32_t index, const WdmNetwork& net, SlotTable* table,
             CommitLog* log, const Options& options)
    : index_(index),
      table_(table),
      log_(log),
      options_(options),
      engine_(net, options.engine) {
  LUMEN_REQUIRE(table_ != nullptr && log_ != nullptr);
  LUMEN_REQUIRE(options_.max_commit_retries >= 1);
}

void Shard::resync_slot_locked(std::uint32_t slot) {
  const std::uint64_t holder = table_->owner(slot);
  engine_.set_weight(table_->link_of(slot), table_->lambda_of(slot),
                     holder != 0 ? kInfiniteCost : table_->base_cost(slot));
}

void Shard::drain_inbox_locked() {
  if (!inbox_nonempty_.load(std::memory_order_acquire)) return;
  std::vector<std::uint32_t> notes;
  {
    const std::lock_guard<std::mutex> lock(inbox_mutex_);
    notes.swap(inbox_);
    inbox_nonempty_.store(false, std::memory_order_release);
  }
  for (const std::uint32_t slot : notes) resync_slot_locked(slot);
}

void Shard::reverify_suspects_locked() {
  std::size_t kept = 0;
  for (const std::uint32_t slot : suspects_) {
    resync_slot_locked(slot);
    if (table_->owner(slot) != 0) suspects_[kept++] = slot;
  }
  suspects_.resize(kept);
}

Shard::AdmitOutcome Shard::admit(TenantId tenant, NodeId source,
                                 NodeId target) {
  const std::lock_guard<std::mutex> lock(mutex_);
  drain_inbox_locked();
  reverify_suspects_locked();
  return admit_locked(tenant, source, target);
}

std::vector<Shard::AdmitOutcome> Shard::admit_batch(
    TenantId tenant, std::span<const std::pair<NodeId, NodeId>> demands) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<AdmitOutcome> out(demands.size());
  if (demands.empty()) return out;
  drain_inbox_locked();
  reverify_suspects_locked();

  // Bulk pre-cost on the replica's current view: one lane per distinct
  // source instead of one point query per demand.  The costs decide only
  // the offer order and the +inf short-circuit; each surviving demand
  // still routes and commits through the ordinary retry loop (the
  // residual shifts as earlier demands in the batch claim slots).
  const std::vector<double> cost =
      engine_.pair_costs(demands, /*threads=*/1, options_.query);
  std::vector<std::size_t> offer;  // demands worth routing, by index
  offer.reserve(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (cost[i] == kInfiniteCost) {
      // Unroutable on the replica right now — admit_locked would run a
      // full search only to conclude the same kBlocked.  Claims by the
      // rest of the batch can only raise costs, so this cannot flip.
      out[i].ticket.status = AdmitStatus::kBlocked;
    } else {
      offer.push_back(i);
    }
  }
  // Cheapest-first (stable on ties): under contention the short, cheap
  // demands commit before expensive ones fragment the slot space.
  std::stable_sort(offer.begin(), offer.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cost[a] < cost[b];
                   });
  for (const std::size_t i : offer) {
    out[i] = admit_locked(tenant, demands[i].first, demands[i].second);
  }
  return out;
}

Shard::AdmitOutcome Shard::admit_locked(TenantId tenant, NodeId source,
                                        NodeId target) {
  AdmitOutcome out;
  out.ticket.status = AdmitStatus::kBlocked;
  for (std::uint32_t attempt = 0; attempt < options_.max_commit_retries;
       ++attempt) {
    RouteResult route;
    {
      // Sub-span of the ambient svc.admit span: attributes route time to
      // its own profiler stage and trace node.
      obs::CausalSpan route_span("svc.route");
      route = engine_.route_semilightpath(source, target, options_.query);
    }
    if (!route.found) {
      out.ticket.status = AdmitStatus::kBlocked;
      return out;
    }

    std::vector<std::uint32_t> slots;
    slots.reserve(route.path.hops().size());
    for (const Hop& hop : route.path.hops()) {
      const std::uint32_t slot = table_->slot_of(hop.link, hop.wavelength);
      LUMEN_REQUIRE_MSG(slot != SlotTable::kInvalidSlot,
                        "routed over a wavelength outside the base network");
      slots.push_back(slot);
    }
    // Canonical claim order: sorted by slot index.  An optimal route
    // never traverses the same (link, λ) twice.
    std::sort(slots.begin(), slots.end());
    LUMEN_REQUIRE_MSG(
        std::adjacent_find(slots.begin(), slots.end()) == slots.end(),
        "route repeats a (link, wavelength) slot");

    const SvcSessionId id = SvcSessionId::make(index_, next_seq_);
    std::uint32_t conflict_pos = 0;
    // Covers the slot claims, commit-log append, and replica resyncs —
    // both the win and the conflict-retry path.
    obs::CausalSpan commit_span("svc.commit");
    if (!table_->claim_all(slots, id.bits(), &conflict_pos)) {
      // Lost a slot race to a concurrent commit.  Patch the replica with
      // the table truth for the contested slot, remember it as a suspect
      // (the winner may yet roll back and never broadcast), and re-route.
      ++out.ticket.conflicts;
      const std::uint32_t contested = slots[conflict_pos];
      resync_slot_locked(contested);
      suspects_.push_back(contested);
      out.ticket.status = AdmitStatus::kAborted;
      continue;
    }

    // Committed.  The log seq is drawn AFTER the claims (see slot_table.h
    // for why that ordering is the linearizability witness).
    if (log_->enabled()) {
      const std::uint64_t seq = log_->next_seq();
      log_->append(CommitRecord{seq, false, id.bits(), slots});
    }
    for (const std::uint32_t slot : slots) resync_slot_locked(slot);
    sessions_.try_emplace(next_seq_,
                          Session{tenant, route.cost, slots});
    ++next_seq_;

    out.ticket.status = AdmitStatus::kAdmitted;
    out.ticket.id = id;
    out.ticket.cost = route.cost;
    out.ticket.hops = static_cast<std::uint32_t>(slots.size());
    out.slots = std::move(slots);
    return out;
  }
  return out;  // every attempt lost its race: kAborted
}

Shard::CloseOutcome Shard::close(std::uint64_t seq) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(seq);
  if (it == sessions_.end()) return CloseOutcome{};

  const Session session = std::move(it->second);
  sessions_.erase(seq);
  const SvcSessionId id = SvcSessionId::make(index_, seq);

  // Release seq is drawn BEFORE the first slot is freed (slot_table.h).
  std::uint64_t log_seq = 0;
  const bool logging = log_->enabled();
  if (logging) log_seq = log_->next_seq();
  table_->release_all(session.slots, id.bits());
  if (logging) {
    log_->append(CommitRecord{log_seq, true, id.bits(), session.slots});
  }
  // Truth-based restore: a peer may already have re-claimed a slot.
  for (const std::uint32_t slot : session.slots) resync_slot_locked(slot);

  CloseOutcome out;
  out.ok = true;
  out.tenant = session.tenant;
  out.slots = session.slots;
  return out;
}

void Shard::push_resync(std::span<const std::uint32_t> slots) {
  if (slots.empty()) return;
  const std::lock_guard<std::mutex> lock(inbox_mutex_);
  inbox_.insert(inbox_.end(), slots.begin(), slots.end());
  inbox_nonempty_.store(true, std::memory_order_release);
}

void Shard::drain() {
  const std::lock_guard<std::mutex> lock(mutex_);
  drain_inbox_locked();
  reverify_suspects_locked();
}

std::uint64_t Shard::active() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

std::vector<std::pair<std::uint64_t, std::vector<std::uint32_t>>>
Shard::session_slots() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::uint64_t, std::vector<std::uint32_t>>> out;
  out.reserve(sessions_.size());
  for (const auto& [seq, session] : sessions_) {
    out.emplace_back(SvcSessionId::make(index_, seq).bits(), session.slots);
  }
  return out;
}

}  // namespace lumen::svc
