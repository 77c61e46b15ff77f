#include "svc/shard.h"

#include <algorithm>
#include <utility>

#include "graph/dijkstra.h"  // kInfiniteCost
#include "obs/trace_context.h"
#include "util/error.h"

namespace lumen::svc {
namespace {

// Every replica is RouteEngine(net): no ALT landmarks, and every admission
// is one goal-directed query whose per-target potential is a reverse
// Dijkstra from t that stops when the admission's source settles.  Chosen
// by measurement (perfbench svc-sparse-mt, 10 s alternating runs, 4-vCPU
// host, RelWithDebInfo; ops_per_s and admit_p50_us medians, setup_s and
// peak_rss_mib ranges):
//
//   potential            runs  ops_per_s  p50_us  setup_s      peak_rss_mib
//   full row + 8 ALT     10    32.2k      197     0.041-0.044  24.7-25.0
//   capped row           10    48.1k      139     0.030-0.033  24.1-24.4
//   capped row + 8 ALT    4    42.5k      148     0.040-0.043  24.5-25.0
//
// (capped row against capped row + 8 ALT: 47.5k vs 42.5k, better in 4 of
// 4 pairs.)  Earlier, full row + 8 ALT ran at 23.7k ops/s against 6.96k
// for the since-deleted CH+ALT mode and 4.09k for CH (5 s runs, with
// 1.64-1.86 s setup and 139 MiB peak RSS), and ALT without the target
// term at 13.2k.
constexpr RouteEngine::QueryOptions kQuery{.goal_directed = true};

/// Commit attempts per admission before kAborted.  Each retry re-routes
/// after patching the lost slot from the table truth.
constexpr std::uint32_t kMaxCommitAttempts = 4;

}  // namespace

Shard::Shard(std::uint32_t index, const WdmNetwork& net, SlotTable* table,
             CommitLog* log)
    : index_(index), table_(table), log_(log), engine_(net) {
  LUMEN_REQUIRE(table_ != nullptr && log_ != nullptr);
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

Shard::AdmitOutcome Shard::admit(TenantId tenant, NodeId source,
                                 NodeId target) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return admit_locked(tenant, source, target);
}

std::optional<Shard::AdmitOutcome> Shard::try_admit(TenantId tenant,
                                                    NodeId source,
                                                    NodeId target) {
  const std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
  if (!lock.owns_lock()) return std::nullopt;
  return admit_locked(tenant, source, target);
}

Shard::AdmitOutcome Shard::admit_locked(TenantId tenant, NodeId source,
                                        NodeId target) {
  drain_inbox_locked();
  AdmitOutcome out;
  out.ticket.status = AdmitStatus::kBlocked;
  for (std::uint32_t attempt = 0; attempt < kMaxCommitAttempts; ++attempt) {
    RouteResult route;
    {
      // Sub-span of the ambient svc.admit span: attributes route time to
      // its own profiler stage and trace node.
      obs::CausalSpan route_span("svc.route");
      route = engine_.route_semilightpath(source, target, kQuery);
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
      // Lost a slot race.  claim_all claimed and then rolled back
      // slots[0, conflict_pos): a peer that lost a race on one of them in
      // between patched it +inf, so the prefix goes out for broadcast
      // too.  Patch the contested slot from the table truth and re-route;
      // if its holder rolls back as well, the holder's broadcast restores
      // it here.
      ++out.ticket.conflicts;
      conflicts_.fetch_add(1, std::memory_order_relaxed);
      out.slots.insert(out.slots.end(), slots.begin(),
                       slots.begin() + conflict_pos);
      resync_slot_locked(slots[conflict_pos]);
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
    {
      const std::lock_guard<std::mutex> sessions_lock(sessions_mutex_);
      sessions_.try_emplace(next_seq_, Session{tenant, slots});
    }
    ++next_seq_;

    out.ticket.status = AdmitStatus::kAdmitted;
    out.ticket.id = id;
    out.ticket.cost = route.cost;
    out.ticket.hops = static_cast<std::uint32_t>(slots.size());
    out.slots.insert(out.slots.end(), slots.begin(), slots.end());
    return out;
  }
  return out;  // every attempt lost its race: kAborted
}

Shard::CloseOutcome Shard::close(std::uint64_t seq) {
  Session session;
  {
    const std::lock_guard<std::mutex> lock(sessions_mutex_);
    const auto it = sessions_.find(seq);
    if (it == sessions_.end()) return CloseOutcome{};
    session = std::move(it->second);
    sessions_.erase(seq);
  }
  const SvcSessionId id = SvcSessionId::make(index_, seq);

  // Release seq is drawn BEFORE the first slot is freed (slot_table.h).
  std::uint64_t log_seq = 0;
  const bool logging = log_->enabled();
  if (logging) log_seq = log_->next_seq();
  table_->release_all(session.slots, id.bits());
  if (logging) {
    log_->append(CommitRecord{log_seq, true, id.bits(), session.slots});
  }
  // The home replica re-syncs at its next admission, like every peer.
  push_resync(session.slots);

  CloseOutcome out;
  out.ok = true;
  out.tenant = session.tenant;
  out.slots = std::move(session.slots);
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
}

std::vector<std::pair<std::uint64_t, std::vector<std::uint32_t>>>
Shard::session_slots() const {
  const std::lock_guard<std::mutex> lock(sessions_mutex_);
  std::vector<std::pair<std::uint64_t, std::vector<std::uint32_t>>> out;
  out.reserve(sessions_.size());
  for (const auto& [seq, session] : sessions_) {
    out.emplace_back(SvcSessionId::make(index_, seq).bits(), session.slots);
  }
  return out;
}

}  // namespace lumen::svc
