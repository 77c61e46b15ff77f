#include "svc/service.h"

#include <chrono>
#include <iterator>
#include <optional>

#include "obs/registry.h"
#include "obs/trace_context.h"
#include "util/error.h"

namespace lumen::svc {
namespace {

/// Call-site instrument cache (one registry lookup per process).  Each
/// metric has exactly one instrument: admission outcomes and admit
/// latency are {tenant}-labeled, contention (commit conflicts, shard
/// waits, re-sync patches) is {shard}-labeled, and the rest are plain,
/// so no Prometheus name carries a plain total beside its children (a
/// family's total is their sum; the SLO watchdog reads it that way).
/// Children are created lazily on first touch.
struct Instruments {
  obs::Counter& offered;
  obs::Counter& aborted;
  obs::Counter& released;
  obs::LatencyHistogram& close_latency;
  obs::LabeledFamily<obs::Counter>& admitted;
  obs::LabeledFamily<obs::Counter>& blocked;
  obs::LabeledFamily<obs::Counter>& quota_denied;
  obs::LabeledFamily<obs::LatencyHistogram>& admit_latency;
  obs::LabeledFamily<obs::Counter>& conflicts;
  obs::LabeledFamily<obs::Counter>& shard_waits;
  obs::LabeledFamily<obs::Counter>& resync_patches;

  static Instruments& get() {
    static Instruments instance{
        obs::Registry::global().counter("lumen.svc.offered"),
        obs::Registry::global().counter("lumen.svc.aborted"),
        obs::Registry::global().counter("lumen.svc.released"),
        obs::Registry::global().histogram("lumen.svc.close_latency_ns"),
        obs::Registry::global().labeled_counter("lumen.svc.admitted"),
        obs::Registry::global().labeled_counter("lumen.svc.blocked"),
        obs::Registry::global().labeled_counter("lumen.svc.quota_denied"),
        obs::Registry::global().labeled_histogram(
            "lumen.svc.admit_latency_ns"),
        obs::Registry::global().labeled_counter("lumen.svc.commit_conflicts"),
        obs::Registry::global().labeled_counter("lumen.svc.shard_waits"),
        obs::Registry::global().labeled_counter("lumen.svc.resync_patches"),
    };
    return instance;
  }
};

[[nodiscard]] double seconds_since(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

RoutingService::RoutingService(const WdmNetwork& net,
                               const ServiceOptions& options)
    : options_(options), num_nodes_(net.num_nodes()), table_(net) {
  LUMEN_REQUIRE(options_.num_shards >= 1 && options_.num_shards <= 0xffff);
  LUMEN_REQUIRE(options_.num_tenants >= 1);
  // One engine build; every replica is a copy of it, so the shards share
  // its structure and its per-target potential rows.
  const RouteEngine engine(net);
  shards_.reserve(options_.num_shards);
  for (std::uint32_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, engine, &table_, &log_));
  }
  tenants_ = std::make_unique<TenantState[]>(options_.num_tenants);
}

void RoutingService::broadcast(std::uint32_t from,
                               std::span<const std::uint32_t> slots) {
  if (slots.empty() || shards_.size() < 2) return;
  for (const auto& shard : shards_) {
    if (shard->index() == from) continue;
    shard->push_resync(slots);
  }
  const std::uint64_t notes =
      slots.size() * (shards_.size() - 1);
  shards_[from]->count_resync_sent(notes);
  Instruments::get().resync_patches.at(obs::TagSet{}.shard(from)).add(notes);
}

AdmitTicket RoutingService::open(TenantId tenant, NodeId source,
                                 NodeId target) {
  LUMEN_REQUIRE(tenant.value() < options_.num_tenants);
  LUMEN_REQUIRE(source.value() < num_nodes_);
  LUMEN_REQUIRE(target.value() < num_nodes_);
  LUMEN_REQUIRE_MSG(source != target, "a session needs distinct endpoints");
  Instruments& ins = Instruments::get();
  // The ambient admit span: every sub-span (svc.route, svc.commit) and
  // the latency exemplar recorded below share its trace id, so a breach
  // dump can resolve the exemplar back to the full admit chain.
  obs::CausalSpan span("svc.admit");
  const obs::TagSet tenant_tags = obs::TagSet{}.tenant(tenant.value());
  const auto start = std::chrono::steady_clock::now();
  TenantState& state = tenants_[tenant.value()];
  state.offered.fetch_add(1, std::memory_order_relaxed);
  ins.offered.add();

  // Optimistic quota claim: in-flight admissions count, so the quota is
  // never exceeded even transiently (a failed admission refunds below).
  AdmitTicket ticket;
  ticket.status = AdmitStatus::kQuotaDenied;
  const std::uint64_t prior =
      state.active.fetch_add(1, std::memory_order_acq_rel);
  if (prior < state.quota.load(std::memory_order_acquire)) {
    // The first free replica from the round-robin start wins; only when
    // every engine mutex is held does the admission wait, on the start.
    const std::uint32_t start =
        round_robin_.fetch_add(1, std::memory_order_relaxed) % num_shards();
    std::uint32_t shard_index = start;
    std::optional<Shard::AdmitOutcome> tried;
    for (std::uint32_t i = 0; i < num_shards() && !tried; ++i) {
      shard_index = (start + i) % num_shards();
      tried = shards_[shard_index]->try_admit(tenant, source, target);
    }
    if (!tried) {
      shard_index = start;
      shards_[start]->count_wait();
      ins.shard_waits.at(obs::TagSet{}.shard(start)).add();
      tried = shards_[start]->admit(tenant, source, target);
    }
    Shard::AdmitOutcome& outcome = *tried;
    if (outcome.ticket.conflicts > 0) {
      ins.conflicts.at(obs::TagSet{}.shard(shard_index))
          .add(outcome.ticket.conflicts);
    }
    // Every owner-word change the admission made, rolled-back claims too.
    broadcast(shard_index, outcome.slots);
    ticket = outcome.ticket;
  }

  switch (ticket.status) {
    case AdmitStatus::kAdmitted:
      state.admitted.fetch_add(1, std::memory_order_relaxed);
      ins.admitted.at(tenant_tags).add();
      break;
    case AdmitStatus::kBlocked:
      state.blocked.fetch_add(1, std::memory_order_relaxed);
      ins.blocked.at(tenant_tags).add();
      break;
    case AdmitStatus::kQuotaDenied:
      state.quota_denied.fetch_add(1, std::memory_order_relaxed);
      ins.quota_denied.at(tenant_tags).add();
      break;
    case AdmitStatus::kAborted:
      state.aborted.fetch_add(1, std::memory_order_relaxed);
      ins.aborted.add();
      break;
  }
  if (ticket.status != AdmitStatus::kAdmitted) {
    state.active.fetch_sub(1, std::memory_order_acq_rel);
  }
  ins.admit_latency.at(tenant_tags)
      .record_seconds(seconds_since(start), span.trace_id());
  return ticket;
}

bool RoutingService::close(SvcSessionId id) {
  if (!id.valid() || id.shard() >= num_shards()) return false;
  const auto start = std::chrono::steady_clock::now();

  Shard::CloseOutcome outcome = shards_[id.shard()]->close(id.seq());
  if (!outcome.ok) return false;

  broadcast(id.shard(), outcome.slots);
  TenantState& state = tenants_[outcome.tenant.value()];
  state.active.fetch_sub(1, std::memory_order_acq_rel);
  state.released.fetch_add(1, std::memory_order_relaxed);
  Instruments& ins = Instruments::get();
  ins.released.add();
  ins.close_latency.record_seconds(seconds_since(start));
  return true;
}

void RoutingService::set_quota(TenantId tenant, std::uint64_t max_active) {
  LUMEN_REQUIRE(tenant.value() < options_.num_tenants);
  tenants_[tenant.value()].quota.store(max_active,
                                       std::memory_order_release);
}

ServiceStats RoutingService::stats() const {
  ServiceStats out;
  for (std::uint32_t t = 0; t < options_.num_tenants; ++t) {
    const TenantStats cells = tenant_stats(TenantId{t});
    out.offered += cells.offered;
    out.admitted += cells.admitted;
    out.blocked += cells.blocked;
    out.quota_denied += cells.quota_denied;
    out.aborted += cells.aborted;
    out.released += cells.released;
    out.active += cells.active;
  }
  for (const auto& shard : shards_) {
    out.commit_conflicts += shard->commit_conflicts();
    out.shard_waits += shard->waits();
    out.cross_shard_patches += shard->resync_sent();
  }
  return out;
}

TenantStats RoutingService::tenant_stats(TenantId tenant) const {
  LUMEN_REQUIRE(tenant.value() < options_.num_tenants);
  const TenantState& state = tenants_[tenant.value()];
  TenantStats out;
  out.quota = state.quota.load(std::memory_order_relaxed);
  out.active = state.active.load(std::memory_order_relaxed);
  out.admitted = state.admitted.load(std::memory_order_relaxed);
  out.blocked = state.blocked.load(std::memory_order_relaxed);
  out.quota_denied = state.quota_denied.load(std::memory_order_relaxed);
  out.released = state.released.load(std::memory_order_relaxed);
  out.offered = state.offered.load(std::memory_order_relaxed);
  out.aborted = state.aborted.load(std::memory_order_relaxed);
  return out;
}

void RoutingService::drain_all() {
  for (const auto& shard : shards_) shard->drain();
}

std::vector<std::pair<std::uint64_t, std::vector<std::uint32_t>>>
RoutingService::active_reservations() const {
  std::vector<std::pair<std::uint64_t, std::vector<std::uint32_t>>> out;
  for (const auto& shard : shards_) {
    auto slice = shard->session_slots();
    out.insert(out.end(), std::make_move_iterator(slice.begin()),
               std::make_move_iterator(slice.end()));
  }
  return out;
}

std::vector<obs::SloRule> RoutingService::default_slo_rules(
    double p99_admit_ns) {
  std::vector<obs::SloRule> rules;
  rules.push_back(obs::SloRule::percentile(
      "svc-admit-p99", "lumen.svc.admit_latency_ns", 0.99, p99_admit_ns));
  rules.push_back(obs::SloRule::ratio("svc-abort-rate", "lumen.svc.aborted",
                                      "lumen.svc.offered", 0.05));
  rules.push_back(obs::SloRule::ratio("svc-quota-pressure",
                                      "lumen.svc.quota_denied",
                                      "lumen.svc.offered", 0.5));
  return rules;
}

}  // namespace lumen::svc
