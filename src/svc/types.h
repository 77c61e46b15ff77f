// Value types shared across the sharded multi-tenant routing service.
//
// The service partitions the SESSION space: every shard owns a disjoint
// slice of the session table and a full RouteEngine replica of the
// topology, while the (link, wavelength) resource space stays global
// behind the atomic SlotTable (see slot_table.h).  These types name the
// pieces that cross those boundaries.
#pragma once

#include <cstdint>

#include "util/strong_id.h"

namespace lumen::svc {

struct TenantTag {};
/// Identifier of a service tenant (dense: 0 .. num_tenants-1).
using TenantId = StrongId<TenantTag>;

/// Identifier of a service session: shard index in the top 16 bits, the
/// shard's local sequence number (starting at 1) in the low 48.  The zero
/// word is the invalid sentinel — and doubles as the SlotTable's "free"
/// owner, so a valid session id can own slots directly by its bits.
class SvcSessionId {
 public:
  constexpr SvcSessionId() = default;

  [[nodiscard]] static constexpr SvcSessionId make(std::uint32_t shard,
                                                   std::uint64_t seq) noexcept {
    return SvcSessionId((static_cast<std::uint64_t>(shard) << kShardShift) |
                        (seq & kSeqMask));
  }
  [[nodiscard]] static constexpr SvcSessionId from_bits(
      std::uint64_t bits) noexcept {
    return SvcSessionId(bits);
  }

  [[nodiscard]] constexpr std::uint32_t shard() const noexcept {
    return static_cast<std::uint32_t>(bits_ >> kShardShift);
  }
  [[nodiscard]] constexpr std::uint64_t seq() const noexcept {
    return bits_ & kSeqMask;
  }
  /// The raw word (what the SlotTable stores as the owner).
  [[nodiscard]] constexpr std::uint64_t bits() const noexcept { return bits_; }
  [[nodiscard]] constexpr bool valid() const noexcept { return bits_ != 0; }

  friend constexpr auto operator<=>(SvcSessionId, SvcSessionId) noexcept =
      default;

 private:
  static constexpr unsigned kShardShift = 48;
  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << 48) - 1;

  constexpr explicit SvcSessionId(std::uint64_t bits) noexcept : bits_(bits) {}

  std::uint64_t bits_ = 0;
};

/// Outcome class of an admission attempt.
enum class AdmitStatus : std::uint8_t {
  kAdmitted,     ///< routed and committed; the ticket id is live
  kBlocked,      ///< no route on the shard's residual view
  kQuotaDenied,  ///< the tenant is at its active-session quota
  kAborted,      ///< every commit attempt lost a slot race (rare; retry)
};

[[nodiscard]] constexpr const char* admit_status_name(
    AdmitStatus status) noexcept {
  switch (status) {
    case AdmitStatus::kAdmitted: return "admitted";
    case AdmitStatus::kBlocked: return "blocked";
    case AdmitStatus::kQuotaDenied: return "quota_denied";
    case AdmitStatus::kAborted: return "aborted";
  }
  return "unknown";
}

/// What RoutingService::open hands back.
struct AdmitTicket {
  AdmitStatus status = AdmitStatus::kBlocked;
  SvcSessionId id;  ///< valid only when admitted
  double cost = 0.0;
  std::uint32_t hops = 0;
  /// Commit attempts that lost a slot race before the final outcome.
  std::uint32_t conflicts = 0;
};

/// Aggregate service accounting (see RoutingService::stats()): sums of
/// the per-tenant and per-shard cells, which are plain atomics, so it is
/// exact even under LUMEN_OBS_DISABLED.
struct ServiceStats {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t blocked = 0;
  std::uint64_t quota_denied = 0;
  std::uint64_t aborted = 0;
  std::uint64_t released = 0;
  std::uint64_t commit_conflicts = 0;
  /// Admissions that found every shard's engine mutex held and waited.
  std::uint64_t shard_waits = 0;
  /// Re-sync notes sent to peer shards (one per slot per peer).
  std::uint64_t cross_shard_patches = 0;
  std::uint64_t active = 0;
};

/// Per-tenant accounting (see RoutingService::tenant_stats()): the
/// tenant's cells, which ServiceStats sums.
struct TenantStats {
  std::uint64_t quota = 0;
  std::uint64_t active = 0;
  std::uint64_t admitted = 0;
  std::uint64_t blocked = 0;
  std::uint64_t quota_denied = 0;
  std::uint64_t released = 0;
  std::uint64_t offered = 0;
  std::uint64_t aborted = 0;
};

}  // namespace lumen::svc
