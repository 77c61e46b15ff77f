#include "svc/service.h"

#include <chrono>
#include <iterator>

#include "obs/registry.h"
#include "obs/trace_context.h"
#include "util/error.h"

namespace lumen::svc {
namespace {

/// Call-site instrument cache (one registry lookup per process).  The
/// labeled families carry the per-tenant admission split (dimensional
/// children of the same-named plain instruments) and the per-shard
/// contention split; children are created lazily on first touch.
struct Instruments {
  obs::Counter& offered;
  obs::Counter& admitted;
  obs::Counter& blocked;
  obs::Counter& quota_denied;
  obs::Counter& aborted;
  obs::Counter& released;
  obs::Counter& conflicts;
  obs::Counter& resync_patches;
  obs::Gauge& active;
  obs::LatencyHistogram& admit_latency;
  obs::LatencyHistogram& close_latency;
  obs::LabeledFamily<obs::Counter>& admitted_by_tenant;
  obs::LabeledFamily<obs::Counter>& blocked_by_tenant;
  obs::LabeledFamily<obs::Counter>& quota_denied_by_tenant;
  obs::LabeledFamily<obs::LatencyHistogram>& admit_latency_by_tenant;
  obs::LabeledFamily<obs::Counter>& conflicts_by_shard;
  obs::LabeledFamily<obs::Counter>& patches_by_shard;

  static Instruments& get() {
    static Instruments instance{
        obs::Registry::global().counter("lumen.svc.offered"),
        obs::Registry::global().counter("lumen.svc.admitted"),
        obs::Registry::global().counter("lumen.svc.blocked"),
        obs::Registry::global().counter("lumen.svc.quota_denied"),
        obs::Registry::global().counter("lumen.svc.aborted"),
        obs::Registry::global().counter("lumen.svc.released"),
        obs::Registry::global().counter("lumen.svc.commit_conflicts"),
        obs::Registry::global().counter("lumen.svc.resync_patches"),
        obs::Registry::global().gauge("lumen.svc.active_sessions"),
        obs::Registry::global().histogram("lumen.svc.admit_latency_ns"),
        obs::Registry::global().histogram("lumen.svc.close_latency_ns"),
        obs::Registry::global().labeled_counter("lumen.svc.admitted"),
        obs::Registry::global().labeled_counter("lumen.svc.blocked"),
        obs::Registry::global().labeled_counter("lumen.svc.quota_denied"),
        obs::Registry::global().labeled_histogram(
            "lumen.svc.admit_latency_ns"),
        obs::Registry::global().labeled_counter("lumen.svc.commit_conflicts"),
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
    : options_(options), table_(net) {
  LUMEN_REQUIRE(options_.num_shards >= 1 && options_.num_shards <= 0xffff);
  LUMEN_REQUIRE(options_.num_tenants >= 1);
  shards_.reserve(options_.num_shards);
  for (std::uint32_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, net, &table_, &log_));
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
  stats_patches_.fetch_add(notes, std::memory_order_relaxed);
  Instruments& ins = Instruments::get();
  ins.resync_patches.add(notes);
  ins.patches_by_shard.at(obs::TagSet{}.shard(from)).add(notes);
}

AdmitTicket RoutingService::open(TenantId tenant, NodeId source,
                                 NodeId target) {
  LUMEN_REQUIRE(tenant.value() < options_.num_tenants);
  Instruments& ins = Instruments::get();
  // The ambient admit span: every sub-span (svc.route, svc.commit) and
  // the latency exemplar recorded below share its trace id, so a breach
  // dump can resolve the exemplar back to the full admit chain.
  obs::CausalSpan span("svc.admit");
  const obs::TagSet tenant_tags = obs::TagSet{}.tenant(tenant.value());
  const auto start = std::chrono::steady_clock::now();
  stats_offered_.fetch_add(1, std::memory_order_relaxed);
  ins.offered.add();

  TenantState& state = tenants_[tenant.value()];
  // Optimistic quota claim: in-flight admissions count, so the quota is
  // never exceeded even transiently (a failed admission refunds below).
  const std::uint64_t prior =
      state.active.fetch_add(1, std::memory_order_acq_rel);
  if (prior >= state.quota.load(std::memory_order_acquire)) {
    state.active.fetch_sub(1, std::memory_order_acq_rel);
    state.quota_denied.fetch_add(1, std::memory_order_relaxed);
    stats_quota_denied_.fetch_add(1, std::memory_order_relaxed);
    ins.quota_denied.add();
    ins.quota_denied_by_tenant.at(tenant_tags).add();
    const double secs = seconds_since(start);
    ins.admit_latency.record_seconds(secs, span.trace_id());
    ins.admit_latency_by_tenant.at(tenant_tags)
        .record_seconds(secs, span.trace_id());
    AdmitTicket ticket;
    ticket.status = AdmitStatus::kQuotaDenied;
    return ticket;
  }

  const std::uint32_t shard_index =
      round_robin_.fetch_add(1, std::memory_order_relaxed) % num_shards();
  Shard::AdmitOutcome outcome =
      shards_[shard_index]->admit(tenant, source, target);

  if (outcome.ticket.conflicts > 0) {
    stats_conflicts_.fetch_add(outcome.ticket.conflicts,
                               std::memory_order_relaxed);
    ins.conflicts.add(outcome.ticket.conflicts);
    ins.conflicts_by_shard.at(obs::TagSet{}.shard(shard_index))
        .add(outcome.ticket.conflicts);
  }

  // Every owner-word change the admission made, rolled-back claims too.
  broadcast(shard_index, outcome.slots);
  if (outcome.ticket.status == AdmitStatus::kAdmitted) {
    state.admitted.fetch_add(1, std::memory_order_relaxed);
    stats_admitted_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t active =
        stats_active_.fetch_add(1, std::memory_order_acq_rel) + 1;
    ins.admitted.add();
    ins.admitted_by_tenant.at(tenant_tags).add();
    ins.active.set(static_cast<double>(active));
  } else {
    state.active.fetch_sub(1, std::memory_order_acq_rel);
    if (outcome.ticket.status == AdmitStatus::kBlocked) {
      state.blocked.fetch_add(1, std::memory_order_relaxed);
      stats_blocked_.fetch_add(1, std::memory_order_relaxed);
      ins.blocked.add();
      ins.blocked_by_tenant.at(tenant_tags).add();
    } else {
      stats_aborted_.fetch_add(1, std::memory_order_relaxed);
      ins.aborted.add();
    }
  }
  const double secs = seconds_since(start);
  ins.admit_latency.record_seconds(secs, span.trace_id());
  ins.admit_latency_by_tenant.at(tenant_tags)
      .record_seconds(secs, span.trace_id());
  return outcome.ticket;
}

bool RoutingService::close(SvcSessionId id) {
  if (!id.valid() || id.shard() >= num_shards()) return false;
  Instruments& ins = Instruments::get();
  const auto start = std::chrono::steady_clock::now();

  Shard::CloseOutcome outcome = shards_[id.shard()]->close(id.seq());
  if (!outcome.ok) return false;

  broadcast(id.shard(), outcome.slots);
  tenants_[outcome.tenant.value()].active.fetch_sub(
      1, std::memory_order_acq_rel);
  tenants_[outcome.tenant.value()].released.fetch_add(
      1, std::memory_order_relaxed);
  stats_released_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t active =
      stats_active_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  ins.released.add();
  ins.active.set(static_cast<double>(active));
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
  out.offered = stats_offered_.load(std::memory_order_relaxed);
  out.admitted = stats_admitted_.load(std::memory_order_relaxed);
  out.blocked = stats_blocked_.load(std::memory_order_relaxed);
  out.quota_denied = stats_quota_denied_.load(std::memory_order_relaxed);
  out.aborted = stats_aborted_.load(std::memory_order_relaxed);
  out.released = stats_released_.load(std::memory_order_relaxed);
  out.commit_conflicts = stats_conflicts_.load(std::memory_order_relaxed);
  out.cross_shard_patches = stats_patches_.load(std::memory_order_relaxed);
  out.active = stats_active_.load(std::memory_order_relaxed);
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
