// The sharded multi-tenant routing service front-end.
//
// RoutingService is the concurrent counterpart of SessionManager: many
// threads call open()/close() at once, each shard routes on its own
// RouteEngine replica, and every commit is arbitrated by the global
// atomic SlotTable (slot ownership can never be double-booked — see
// slot_table.h).  An admission starts at a round-robin shard and tries
// every shard's engine mutex once, taking the first free replica; only
// when all are busy does it wait, on the starting shard.  A close never
// takes an engine mutex: it frees the session's owner words and notes
// the slots into every shard's re-sync inbox (shard.h).  Multi-tenancy
// is an admission-control layer in front of the shards: each tenant has
// an active-session quota enforced with an optimistic fetch_add
// (in-flight admissions count against the quota, so a tenant can never
// exceed it even transiently), plus fairness counters.
//
// Accounting: each event is counted once in an exact cell (per tenant
// for admission outcomes and closes, per shard for commit conflicts,
// waits and sent re-sync notes), and stats() sums the cells, so it
// stays exact under LUMEN_OBS_DISABLED.  Observability: each
// `lumen.svc.*` metric has one instrument, plain or labeled, never both
// (see docs/SERVICE.md); default_slo_rules() watches p99 admit latency
// and the abort and quota-denial rates.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "obs/slo.h"
#include "svc/shard.h"
#include "svc/slot_table.h"
#include "svc/types.h"
#include "wdm/network.h"

namespace lumen::svc {

struct ServiceOptions {
  /// Session-space partitions (each owns a full RouteEngine replica).
  std::uint32_t num_shards = 4;
  /// Tenants known to the service (TenantId 0 .. num_tenants-1).  Every
  /// tenant starts with an unlimited quota; set_quota limits it.
  std::uint32_t num_tenants = 1;
};

/// See file comment.
class RoutingService {
 public:
  /// Builds num_shards replicas of `net` (the dominant construction
  /// cost) and the slot table.  The network itself is not retained.
  RoutingService(const WdmNetwork& net, const ServiceOptions& options);

  /// Routes and commits one session for `tenant` on the first shard whose
  /// engine mutex is free (see file comment).  Throws lumen::Error,
  /// touching no accounting, unless source and target are distinct nodes
  /// of the network.  Thread-safe.
  [[nodiscard]] AdmitTicket open(TenantId tenant, NodeId source,
                                 NodeId target);

  /// Releases an admitted session without waiting for any route search.
  /// False when the id is unknown or already closed.  Thread-safe.
  bool close(SvcSessionId id);

  /// Sets a tenant's active-session quota (takes effect for future
  /// admissions; sessions already active are never evicted).
  void set_quota(TenantId tenant, std::uint64_t max_active);

  /// Sums of the tenant and shard cells.  Each cell is exact; a read
  /// during traffic is not one snapshot, and `active` includes in-flight
  /// quota claims.  Quiesce for the accounting identities.
  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] TenantStats tenant_stats(TenantId tenant) const;
  [[nodiscard]] std::uint64_t active_sessions() const {
    return stats().active;
  }

  [[nodiscard]] std::uint32_t num_shards() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] const SlotTable& slot_table() const noexcept { return table_; }
  /// The linearizability witness; disabled until commit_log().enable()
  /// (call it before traffic).
  [[nodiscard]] CommitLog& commit_log() noexcept { return log_; }

  /// Applies every pending cross-shard re-sync note now (tests quiesce
  /// with this before asserting on replica-visible state).
  void drain_all();

  /// (owner bits, claimed slots) of every live session across all
  /// shards — the double-booking audit surface.  Quiesce for exactness.
  [[nodiscard]] std::vector<std::pair<std::uint64_t,
                                      std::vector<std::uint32_t>>>
  active_reservations() const;

  /// Watchdog rules for the service instruments: p99 admit latency over
  /// `p99_admit_ns` nanoseconds, and per-window abort and quota-denial
  /// pressure.  Feed to an obs::SloWatchdog.
  [[nodiscard]] static std::vector<obs::SloRule> default_slo_rules(
      double p99_admit_ns = 5e6);

 private:
  /// The exact per-tenant cells.  `offered` and `active` are counted on
  /// their own, not derived, so offered == Σ outcomes and active ==
  /// admitted − released check the outcome and quota-refund paths.  One
  /// cache line per tenant, so tenants' client threads never share one.
  struct alignas(64) TenantState {
    std::atomic<std::uint64_t> quota{UINT64_MAX};
    std::atomic<std::uint64_t> active{0};
    std::atomic<std::uint64_t> offered{0};
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> blocked{0};
    std::atomic<std::uint64_t> quota_denied{0};
    std::atomic<std::uint64_t> aborted{0};
    std::atomic<std::uint64_t> released{0};
  };

  /// Broadcasts freshly (un)claimed slots to every shard except `from`.
  void broadcast(std::uint32_t from,
                 std::span<const std::uint32_t> slots);

  ServiceOptions options_;
  std::uint32_t num_nodes_;
  SlotTable table_;
  CommitLog log_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<TenantState[]> tenants_;
  std::atomic<std::uint32_t> round_robin_{0};
};

}  // namespace lumen::svc
