// Unit coverage for the svc building blocks: session-id packing, the
// atomic SlotTable (two-phase claim/rollback), the commit log, one
// Shard's re-sync rule (rolled-back claims and closes), and the
// RoutingService front-end (admission outcomes, endpoint checks, quotas,
// tenant/service accounting under concurrent churn, one instrument per
// metric, SLO rule wiring).
#include "svc/service.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "svc/shard.h"
#include "svc/slot_table.h"
#include "svc/types.h"
#include "tests/obs_test_util.h"
#include "tests/test_util.h"
#include "util/error.h"
#include "util/rng.h"

namespace lumen::svc {
namespace {

using lumen::testing::paper_example_network;

TEST(SvcSessionIdTest, PacksShardAndSequence) {
  EXPECT_FALSE(SvcSessionId{}.valid());
  EXPECT_EQ(SvcSessionId{}.bits(), 0u);

  const SvcSessionId id = SvcSessionId::make(3, 41);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.shard(), 3u);
  EXPECT_EQ(id.seq(), 41u);
  EXPECT_EQ(SvcSessionId::from_bits(id.bits()), id);

  // Max shard, large seq: fields stay separable.
  const SvcSessionId big = SvcSessionId::make(0xffff, (1ULL << 48) - 1);
  EXPECT_EQ(big.shard(), 0xffffu);
  EXPECT_EQ(big.seq(), (1ULL << 48) - 1);
}

TEST(SvcSessionIdTest, StatusNames) {
  EXPECT_STREQ(admit_status_name(AdmitStatus::kAdmitted), "admitted");
  EXPECT_STREQ(admit_status_name(AdmitStatus::kBlocked), "blocked");
  EXPECT_STREQ(admit_status_name(AdmitStatus::kQuotaDenied), "quota_denied");
  EXPECT_STREQ(admit_status_name(AdmitStatus::kAborted), "aborted");
}

TEST(SlotTableTest, MapsEveryBasePairDensely) {
  const WdmNetwork net = paper_example_network();
  const SlotTable table(net);
  EXPECT_EQ(table.num_slots(), net.total_link_wavelengths());
  EXPECT_EQ(table.occupied(), 0u);

  std::uint64_t mapped = 0;
  for (std::uint32_t e = 0; e < net.num_links(); ++e) {
    for (const LinkWavelength& lw : net.available(LinkId{e})) {
      const std::uint32_t slot = table.slot_of(LinkId{e}, lw.lambda);
      ASSERT_NE(slot, SlotTable::kInvalidSlot);
      EXPECT_EQ(table.link_of(slot), LinkId{e});
      EXPECT_EQ(table.lambda_of(slot), lw.lambda);
      EXPECT_DOUBLE_EQ(table.base_cost(slot), lw.cost);
      ++mapped;
    }
    // A wavelength outside the base Λ(e) has no slot.
    for (std::uint32_t l = 0; l < net.num_wavelengths(); ++l) {
      if (!net.is_available(LinkId{e}, Wavelength{l})) {
        EXPECT_EQ(table.slot_of(LinkId{e}, Wavelength{l}),
                  SlotTable::kInvalidSlot);
      }
    }
  }
  EXPECT_EQ(mapped, table.num_slots());
}

TEST(SlotTableTest, ClaimReleaseLifecycle) {
  const WdmNetwork net = paper_example_network();
  SlotTable table(net);
  const std::uint64_t alice = SvcSessionId::make(0, 1).bits();
  const std::uint64_t bob = SvcSessionId::make(1, 1).bits();

  EXPECT_TRUE(table.try_claim(0, alice));
  EXPECT_EQ(table.owner(0), alice);
  EXPECT_FALSE(table.try_claim(0, bob));    // held
  EXPECT_FALSE(table.release(0, bob));      // not the owner
  EXPECT_EQ(table.owner(0), alice);
  EXPECT_TRUE(table.release(0, alice));
  EXPECT_EQ(table.owner(0), 0u);
  EXPECT_TRUE(table.try_claim(0, bob));     // free again
  EXPECT_EQ(table.occupied(), 1u);
}

TEST(SlotTableTest, ClaimAllRollsBackOnConflict) {
  const WdmNetwork net = paper_example_network();
  SlotTable table(net);
  const std::uint64_t alice = SvcSessionId::make(0, 1).bits();
  const std::uint64_t bob = SvcSessionId::make(1, 1).bits();

  ASSERT_TRUE(table.try_claim(2, bob));  // pre-claim the middle slot

  const std::vector<std::uint32_t> want = {0, 1, 2, 3};
  std::uint32_t conflict_pos = 99;
  EXPECT_FALSE(table.claim_all(want, alice, &conflict_pos));
  EXPECT_EQ(conflict_pos, 2u);
  // Two-phase abort: slots 0 and 1 were rolled back.
  EXPECT_EQ(table.owner(0), 0u);
  EXPECT_EQ(table.owner(1), 0u);
  EXPECT_EQ(table.owner(2), bob);
  EXPECT_EQ(table.owner(3), 0u);
  EXPECT_EQ(table.occupied(), 1u);

  ASSERT_TRUE(table.release(2, bob));
  EXPECT_TRUE(table.claim_all(want, alice, &conflict_pos));
  EXPECT_EQ(table.occupied(), 4u);
  table.release_all(want, alice);
  EXPECT_EQ(table.occupied(), 0u);
}

TEST(CommitLogTest, DisabledByDefaultSnapshotSorted) {
  CommitLog log;
  EXPECT_FALSE(log.enabled());
  log.enable();
  ASSERT_TRUE(log.enabled());
  const std::uint64_t a = log.next_seq();
  const std::uint64_t b = log.next_seq();
  EXPECT_LT(a, b);
  log.append(CommitRecord{b, true, 7, {1}});
  log.append(CommitRecord{a, false, 7, {1}});
  const std::vector<CommitRecord> sorted = log.snapshot();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].seq, a);
  EXPECT_FALSE(sorted[0].is_release);
  EXPECT_EQ(sorted[1].seq, b);
  log.clear();
  EXPECT_TRUE(log.snapshot().empty());
}

TEST(ShardTest, LostClaimReportsItsRolledBackPrefix) {
  // Chain 0 -> 1 -> 2, one wavelength per link.  A foreign owner holds
  // the second hop, which the shard's replica does not know: the shard
  // routes 0 -> 2, claims the first hop, loses the second, rolls the
  // first back and re-routes into a block.  The rolled-back slot changed
  // owner twice, so it must come back for broadcast.
  WdmNetwork net(3, 1, std::make_shared<NoConversion>());
  const LinkId first = net.add_link(NodeId{0}, NodeId{1});
  const LinkId second = net.add_link(NodeId{1}, NodeId{2});
  net.set_wavelength(first, Wavelength{0}, 1.0);
  net.set_wavelength(second, Wavelength{0}, 1.0);

  SlotTable table(net);
  CommitLog log;
  Shard shard(0, net, &table, &log);
  const std::uint32_t first_slot = table.slot_of(first, Wavelength{0});
  const std::uint32_t second_slot = table.slot_of(second, Wavelength{0});
  const std::uint64_t foreign = SvcSessionId::make(1, 1).bits();
  ASSERT_TRUE(table.try_claim(second_slot, foreign));

  const Shard::AdmitOutcome outcome =
      shard.admit(TenantId{0}, NodeId{0}, NodeId{2});
  EXPECT_EQ(outcome.ticket.status, AdmitStatus::kBlocked);
  EXPECT_EQ(outcome.ticket.conflicts, 1u);
  EXPECT_EQ(outcome.slots, std::vector<std::uint32_t>{first_slot});
  EXPECT_EQ(table.owner(first_slot), 0u);
  EXPECT_EQ(table.owner(second_slot), foreign);
}

TEST(ShardTest, CloseReturnsFreedSlotsToTheHomeReplica) {
  // Chain 0 -> 1 -> 2, one wavelength per link, one shard on its own
  // table.  The first session holds the whole chain, so the second blocks
  // on the replica without a commit conflict.  A close frees the owner
  // words without the engine mutex and notes the slots into the shard's
  // own inbox: the next admission must drain them and route the freed
  // chain again, at the first session's cost.
  WdmNetwork net(3, 1, std::make_shared<NoConversion>());
  const LinkId first_link = net.add_link(NodeId{0}, NodeId{1});
  const LinkId second_link = net.add_link(NodeId{1}, NodeId{2});
  net.set_wavelength(first_link, Wavelength{0}, 1.0);
  net.set_wavelength(second_link, Wavelength{0}, 2.5);

  SlotTable table(net);
  CommitLog log;
  Shard shard(0, net, &table, &log);
  const Shard::AdmitOutcome first =
      shard.admit(TenantId{0}, NodeId{0}, NodeId{2});
  ASSERT_EQ(first.ticket.status, AdmitStatus::kAdmitted);
  EXPECT_DOUBLE_EQ(first.ticket.cost, 3.5);

  const Shard::AdmitOutcome second =
      shard.admit(TenantId{0}, NodeId{0}, NodeId{2});
  EXPECT_EQ(second.ticket.status, AdmitStatus::kBlocked);
  EXPECT_EQ(second.ticket.conflicts, 0u);

  const Shard::CloseOutcome closed = shard.close(first.ticket.id.seq());
  ASSERT_TRUE(closed.ok);
  EXPECT_EQ(table.occupied(), 0u);
  EXPECT_FALSE(shard.close(first.ticket.id.seq()).ok);

  const Shard::AdmitOutcome third =
      shard.admit(TenantId{0}, NodeId{0}, NodeId{2});
  ASSERT_EQ(third.ticket.status, AdmitStatus::kAdmitted);
  EXPECT_EQ(third.ticket.conflicts, 0u);
  EXPECT_DOUBLE_EQ(third.ticket.cost, first.ticket.cost);
}

TEST(ShardTest, ReplicasOfOneEngineShareItsPotentialRows) {
  // Two shards copied from one engine, as RoutingService builds them: the
  // first admission to a target builds its potential row, and an
  // admission to the same target on the other shard, from another source,
  // reads that row and builds nothing.
  LUMEN_REQUIRE_OBS();
  const WdmNetwork net = paper_example_network();
  SlotTable table(net);
  CommitLog log;
  const RouteEngine engine(net);
  Shard first(0, engine, &table, &log);
  Shard second(1, engine, &table, &log);
  obs::Counter& builds =
      obs::Registry::global().counter("lumen.core.potential.misses");

  const std::uint64_t before = builds.value();
  const Shard::AdmitOutcome a = first.admit(TenantId{0}, NodeId{0}, NodeId{6});
  ASSERT_EQ(a.ticket.status, AdmitStatus::kAdmitted);
  EXPECT_EQ(builds.value() - before, 1u);
  second.push_resync(a.slots);
  const Shard::AdmitOutcome b =
      second.admit(TenantId{0}, NodeId{1}, NodeId{6});
  ASSERT_EQ(b.ticket.status, AdmitStatus::kAdmitted);
  EXPECT_EQ(builds.value() - before, 1u);
}

TEST(RoutingServiceTest, AdmitsRoutesAndReleases) {
  const WdmNetwork net = paper_example_network();
  ServiceOptions options;
  options.num_shards = 2;
  RoutingService service(net, options);

  const AdmitTicket ticket =
      service.open(TenantId{0}, NodeId{0}, NodeId{6});
  ASSERT_EQ(ticket.status, AdmitStatus::kAdmitted);
  EXPECT_TRUE(ticket.id.valid());
  EXPECT_GT(ticket.hops, 0u);
  EXPECT_GT(ticket.cost, 0.0);
  EXPECT_EQ(service.active_sessions(), 1u);
  EXPECT_EQ(service.slot_table().occupied(), ticket.hops);

  EXPECT_TRUE(service.close(ticket.id));
  EXPECT_EQ(service.active_sessions(), 0u);
  EXPECT_EQ(service.slot_table().occupied(), 0u);
  // Double close and unknown ids are clean no-ops.
  EXPECT_FALSE(service.close(ticket.id));
  EXPECT_FALSE(service.close(SvcSessionId{}));
  EXPECT_FALSE(service.close(SvcSessionId::make(99, 1)));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.offered, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.released, 1u);
  EXPECT_EQ(stats.active, 0u);
  // One caller never finds every engine mutex held.
  EXPECT_EQ(stats.shard_waits, 0u);
}

TEST(RoutingServiceTest, AdmissionCostMatchesTicket) {
  // The admitted cost is the optimal semilightpath cost on the residual —
  // for the first admission, the pristine-network optimum.
  const WdmNetwork net = paper_example_network();
  ServiceOptions options;
  options.num_shards = 1;
  RoutingService service(net, options);
  RouteEngine reference(net);
  const RouteResult expected = reference.route_semilightpath(
      NodeId{0}, NodeId{6});
  ASSERT_TRUE(expected.found);

  const AdmitTicket ticket =
      service.open(TenantId{0}, NodeId{0}, NodeId{6});
  ASSERT_EQ(ticket.status, AdmitStatus::kAdmitted);
  EXPECT_NEAR(ticket.cost, expected.cost, 1e-12);
}

TEST(RoutingServiceTest, ExhaustionBlocks) {
  // One wavelength on a single link: the second session through it must
  // block, and a release must reopen it.
  WdmNetwork net(2, 1, std::make_shared<NoConversion>());
  const LinkId e = net.add_link(NodeId{0}, NodeId{1});
  net.set_wavelength(e, Wavelength{0}, 1.0);

  RoutingService service(net, ServiceOptions{.num_shards = 2});
  const AdmitTicket first = service.open(TenantId{0}, NodeId{0}, NodeId{1});
  ASSERT_EQ(first.status, AdmitStatus::kAdmitted);
  const AdmitTicket second = service.open(TenantId{0}, NodeId{0}, NodeId{1});
  EXPECT_EQ(second.status, AdmitStatus::kBlocked);

  ASSERT_TRUE(service.close(first.id));
  const AdmitTicket third = service.open(TenantId{0}, NodeId{0}, NodeId{1});
  EXPECT_EQ(third.status, AdmitStatus::kAdmitted);
}

TEST(RoutingServiceTest, QuotaDeniesAndRefunds) {
  const WdmNetwork net = paper_example_network();
  ServiceOptions options;
  options.num_shards = 2;
  options.num_tenants = 2;
  RoutingService service(net, options);
  service.set_quota(TenantId{1}, 1);

  const AdmitTicket first = service.open(TenantId{1}, NodeId{0}, NodeId{6});
  ASSERT_EQ(first.status, AdmitStatus::kAdmitted);
  const AdmitTicket denied = service.open(TenantId{1}, NodeId{0}, NodeId{4});
  EXPECT_EQ(denied.status, AdmitStatus::kQuotaDenied);
  // Tenant 0 is unaffected by tenant 1's quota.
  const AdmitTicket other = service.open(TenantId{0}, NodeId{0}, NodeId{4});
  EXPECT_EQ(other.status, AdmitStatus::kAdmitted);

  const TenantStats starved = service.tenant_stats(TenantId{1});
  EXPECT_EQ(starved.quota, 1u);
  EXPECT_EQ(starved.active, 1u);
  EXPECT_EQ(starved.admitted, 1u);
  EXPECT_EQ(starved.quota_denied, 1u);

  // Closing refunds the quota.
  ASSERT_TRUE(service.close(first.id));
  const AdmitTicket again = service.open(TenantId{1}, NodeId{0}, NodeId{6});
  EXPECT_EQ(again.status, AdmitStatus::kAdmitted);
}

TEST(RoutingServiceTest, InvalidEndpointsAreRejectedBeforeTheQuotaClaim) {
  // With quota 1, a rejected open that had already claimed the slot
  // would leave the tenant "active" and deny the next valid open.
  WdmNetwork net(2, 1, std::make_shared<NoConversion>());
  const LinkId e = net.add_link(NodeId{0}, NodeId{1});
  net.set_wavelength(e, Wavelength{0}, 1.0);
  RoutingService service(net, ServiceOptions{.num_shards = 1});
  service.set_quota(TenantId{0}, 1);

  EXPECT_THROW((void)service.open(TenantId{0}, NodeId{0}, NodeId{7}), Error);
  EXPECT_THROW((void)service.open(TenantId{0}, NodeId{7}, NodeId{0}), Error);
  EXPECT_THROW((void)service.open(TenantId{0}, NodeId{1}, NodeId{1}), Error);
  EXPECT_EQ(service.stats().offered, 0u);
  EXPECT_EQ(service.active_sessions(), 0u);
  EXPECT_EQ(service.slot_table().occupied(), 0u);

  const AdmitTicket ticket = service.open(TenantId{0}, NodeId{0}, NodeId{1});
  EXPECT_EQ(ticket.status, AdmitStatus::kAdmitted);
}

/// One labeled counter child of the global registry.
std::uint64_t child_value(const char* family, obs::TagSet tags) {
  return obs::Registry::global().labeled_counter(family).at(tags).value();
}

TEST(RoutingServiceTest, ChurnAccountingSumsTheTenantAndShardCells) {
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kTenants = 3;
  constexpr std::uint32_t kShards = 2;
  constexpr std::uint32_t kOpsPerThread = 200;
  Rng net_rng(0x5eed'0019ULL);
  const WdmNetwork net = lumen::testing::random_network(
      /*n=*/14, /*extra_links=*/16, /*k=*/4, /*k0_max=*/4,
      lumen::testing::ConvKind::kUniform, net_rng);
  RoutingService service(
      net, ServiceOptions{.num_shards = kShards, .num_tenants = kTenants});
  service.set_quota(TenantId{2}, 2);

  // The registry is process-wide: compare deltas over this run.
  struct TenantFamily {
    const char* name;
    std::uint64_t TenantStats::*cell;
  };
  const TenantFamily kTenantFamilies[] = {
      {"lumen.svc.admitted", &TenantStats::admitted},
      {"lumen.svc.blocked", &TenantStats::blocked},
      {"lumen.svc.quota_denied", &TenantStats::quota_denied}};
  const char* const kShardFamilies[] = {"lumen.svc.commit_conflicts",
                                        "lumen.svc.resync_patches",
                                        "lumen.svc.shard_waits"};
  std::vector<std::uint64_t> tenant_before, shard_before;
  for (const TenantFamily& family : kTenantFamilies)
    for (std::uint32_t t = 0; t < kTenants; ++t)
      tenant_before.push_back(
          child_value(family.name, obs::TagSet{}.tenant(t)));
  for (const char* family : kShardFamilies)
    for (std::uint32_t s = 0; s < kShards; ++s)
      shard_before.push_back(child_value(family, obs::TagSet{}.shard(s)));

  std::vector<std::thread> workers;
  for (std::uint32_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(0x19'0000ULL + w);
      const TenantId tenant{w % kTenants};
      std::vector<SvcSessionId> mine;
      for (std::uint32_t op = 0; op < kOpsPerThread; ++op) {
        if (!mine.empty() && rng.next_bool(0.45)) {
          const std::size_t pick = rng.next_below(mine.size());
          (void)service.close(mine[pick]);
          mine[pick] = mine.back();
          mine.pop_back();
          continue;
        }
        const auto s = NodeId{
            static_cast<std::uint32_t>(rng.next_below(net.num_nodes()))};
        auto t = NodeId{
            static_cast<std::uint32_t>(rng.next_below(net.num_nodes()))};
        if (s == t) t = NodeId{(t.value() + 1) % net.num_nodes()};
        const AdmitTicket ticket = service.open(tenant, s, t);
        if (ticket.status == AdmitStatus::kAdmitted) mine.push_back(ticket.id);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  ServiceStats summed;
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    const TenantStats cells = service.tenant_stats(TenantId{t});
    const std::string context = "tenant " + std::to_string(t);
    EXPECT_EQ(cells.offered, cells.admitted + cells.blocked +
                                 cells.quota_denied + cells.aborted)
        << context;
    EXPECT_EQ(cells.active, cells.admitted - cells.released) << context;
    summed.offered += cells.offered;
    summed.admitted += cells.admitted;
    summed.blocked += cells.blocked;
    summed.quota_denied += cells.quota_denied;
    summed.aborted += cells.aborted;
    summed.released += cells.released;
    summed.active += cells.active;
  }
  EXPECT_LE(service.tenant_stats(TenantId{2}).active, 2u);
  EXPECT_GT(service.tenant_stats(TenantId{2}).quota_denied, 0u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.offered, summed.offered);
  EXPECT_EQ(stats.offered, std::uint64_t{kThreads} * kOpsPerThread -
                               summed.released);
  EXPECT_EQ(stats.admitted, summed.admitted);
  EXPECT_EQ(stats.blocked, summed.blocked);
  EXPECT_EQ(stats.quota_denied, summed.quota_denied);
  EXPECT_EQ(stats.aborted, summed.aborted);
  EXPECT_EQ(stats.released, summed.released);
  EXPECT_EQ(stats.active, summed.active);
  EXPECT_GT(stats.active, 0u);
  EXPECT_EQ(service.active_reservations().size(), stats.active);
  EXPECT_GT(stats.cross_shard_patches, 0u);

  if constexpr (obs::kObsEnabled) {
    // Each labeled child moved exactly as far as its cell.
    std::size_t i = 0;
    for (const TenantFamily& family : kTenantFamilies) {
      for (std::uint32_t t = 0; t < kTenants; ++t, ++i) {
        EXPECT_EQ(child_value(family.name, obs::TagSet{}.tenant(t)) -
                      tenant_before[i],
                  service.tenant_stats(TenantId{t}).*family.cell)
            << family.name << "{tenant=" << t << "}";
      }
    }
    // Shard cells surface only as ServiceStats sums: compare the families.
    std::uint64_t conflicts = 0, patches = 0, waits = 0;
    for (std::uint32_t s = 0; s < kShards; ++s) {
      conflicts += child_value(kShardFamilies[0], obs::TagSet{}.shard(s)) -
                   shard_before[s];
      patches += child_value(kShardFamilies[1], obs::TagSet{}.shard(s)) -
                 shard_before[kShards + s];
      waits += child_value(kShardFamilies[2], obs::TagSet{}.shard(s)) -
               shard_before[2 * kShards + s];
    }
    EXPECT_EQ(conflicts, stats.commit_conflicts);
    EXPECT_EQ(patches, stats.cross_shard_patches);
    EXPECT_EQ(waits, stats.shard_waits);

    // One instrument per metric: no lumen.svc.* name is both plain and
    // labeled, and the active-session gauge is gone.
    const obs::Registry& registry = obs::Registry::global();
    for (const auto& [name, family] : registry.labeled_counter_entries()) {
      for (const auto& [plain, counter] : registry.counter_entries())
        EXPECT_FALSE(name.starts_with("lumen.svc.") && name == plain) << name;
    }
    for (const auto& [name, family] : registry.labeled_histogram_entries()) {
      for (const auto& [plain, histogram] : registry.histogram_entries())
        EXPECT_FALSE(name.starts_with("lumen.svc.") && name == plain) << name;
    }
    for (const auto& [name, gauge] : registry.gauge_entries())
      EXPECT_FALSE(name.starts_with("lumen.svc.")) << name;
  }
}

TEST(RoutingServiceTest, CrossShardResyncPropagates) {
  // Shard 0 admits; after a drain, shard 1's replica must see the claimed
  // slots as unroutable — a single-wavelength link makes this observable:
  // the second admission (round-robin lands on shard 1) must block
  // without a single commit conflict, proving it routed on the re-synced
  // view rather than discovering the claim at commit time.
  WdmNetwork net(2, 1, std::make_shared<NoConversion>());
  const LinkId e = net.add_link(NodeId{0}, NodeId{1});
  net.set_wavelength(e, Wavelength{0}, 1.0);

  RoutingService service(net, ServiceOptions{.num_shards = 2});
  const AdmitTicket first = service.open(TenantId{0}, NodeId{0}, NodeId{1});
  ASSERT_EQ(first.status, AdmitStatus::kAdmitted);
  service.drain_all();
  const AdmitTicket second = service.open(TenantId{0}, NodeId{0}, NodeId{1});
  EXPECT_EQ(second.status, AdmitStatus::kBlocked);
  EXPECT_EQ(second.conflicts, 0u);
  EXPECT_GT(service.stats().cross_shard_patches, 0u);
}

TEST(RoutingServiceTest, DefaultSloRulesCoverTheServiceInstruments) {
  const std::vector<obs::SloRule> rules =
      RoutingService::default_slo_rules(2.5e6);
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules[0].name, "svc-admit-p99");
  EXPECT_EQ(rules[0].metric, "lumen.svc.admit_latency_ns");
  EXPECT_DOUBLE_EQ(rules[0].threshold, 2.5e6);
  EXPECT_EQ(rules[1].name, "svc-abort-rate");
  EXPECT_EQ(rules[1].denominator, "lumen.svc.offered");
  EXPECT_EQ(rules[2].name, "svc-quota-pressure");
}

}  // namespace
}  // namespace lumen::svc
