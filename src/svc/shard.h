// One shard of the routing service: a RouteEngine replica plus the slice
// of the session table whose ids it minted.
//
// Concurrency model: every shard has one engine mutex guarding its
// replica and its id counter, held while an admission routes and
// commits (and by drain(), which tests quiesce with).  The session table
// and the re-sync inbox each sit behind their own small lock, and a
// close takes only those, so a close never waits for a route search.
// Service threads try every shard's engine mutex once before blocking on
// one (RoutingService::open), so with N shards up to N admissions
// proceed in parallel — each routing on its own replica, then committing
// against the global SlotTable with lock-free CAS.  Shards never take
// each other's locks; slot changes travel as *slot re-sync notes*
// dropped into an inbox (a plain vector behind its own tiny lock) and
// are applied at the next admission there.
//
// Replica views are therefore eventually consistent, and deliberately
// self-correcting rather than carefully ordered: a re-sync note carries
// only a slot index, and applying it means reading the SlotTable truth
// *now* and setting the replica weight accordingly (owned → +inf, free →
// base cost).  Out-of-order delivery, duplicated notes, or a note raced
// by a concurrent commit all converge to the truth at the next touch.
// One rule keeps every replica converging: every change to a slot's
// owner word reaches every replica.  An admission re-syncs its own
// replica under the engine mutex and its peers through their inboxes
// (commits and the rollback of a partial claim alike); a close frees
// the words and notes the slots into its own inbox, and its peers'.
// The table, never the replica, decides admission — a stale replica can
// only cause a commit conflict (retried after patching the conflicting
// slot) or a transiently pessimistic route.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/route_engine.h"
#include "svc/slot_table.h"
#include "svc/types.h"
#include "util/flat_map.h"

namespace lumen::svc {

/// See file comment.  Shards are created and wired by RoutingService;
/// the public methods are its internal API (public so a unit test can
/// drive one shard against its own table).
class Shard {
 public:
  /// A shard whose replica is a copy of `engine` (RouteEngine's copy
  /// shares the build-time structure and the per-target potential rows,
  /// so every shard of a service reads one row table).
  Shard(std::uint32_t index, const RouteEngine& engine, SlotTable* table,
        CommitLog* log);
  /// A shard with its own RouteEngine(net).
  Shard(std::uint32_t index, const WdmNetwork& net, SlotTable* table,
        CommitLog* log)
      : Shard(index, RouteEngine(net), table, log) {}

  struct AdmitOutcome {
    AdmitTicket ticket;
    /// Every slot whose owner word this admission changed: the committed
    /// route on success, plus the prefix each lost claim rolled back.
    /// The service broadcasts them to peer shards as re-sync notes.
    std::vector<std::uint32_t> slots;
  };

  /// Routes on the replica (A* under the shared per-target potential
  /// row), two-phase-commits against the table, and re-routes after a
  /// lost slot race.  Blocks while another admission holds the engine
  /// mutex.
  [[nodiscard]] AdmitOutcome admit(TenantId tenant, NodeId source,
                                   NodeId target);
  /// admit() when the engine mutex is free right now; nullopt when
  /// another admission holds it.
  [[nodiscard]] std::optional<AdmitOutcome> try_admit(TenantId tenant,
                                                      NodeId source,
                                                      NodeId target);

  struct CloseOutcome {
    bool ok = false;
    TenantId tenant;
    std::vector<std::uint32_t> slots;  ///< freed (broadcast as re-sync)
  };

  /// Releases the session minted as local sequence `seq` and notes its
  /// slots into this shard's inbox.  Never takes the engine mutex.
  [[nodiscard]] CloseOutcome close(std::uint64_t seq);

  /// Drops slot re-sync notes into the inbox (never takes the engine
  /// mutex).
  void push_resync(std::span<const std::uint32_t> slots);

  /// Applies pending inbox notes now.  admit() does this implicitly;
  /// tests and idle sweeps call it directly.
  void drain();

  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }

  /// Commit attempts that lost a slot race, over every admission here.
  [[nodiscard]] std::uint64_t commit_conflicts() const noexcept {
    return conflicts_.load(std::memory_order_relaxed);
  }
  /// Re-sync notes sent to peers for this shard's owner-word changes.
  [[nodiscard]] std::uint64_t resync_sent() const noexcept {
    return resync_sent_.load(std::memory_order_relaxed);
  }
  /// Counts `notes` sent to peers (the service broadcasts on its behalf).
  void count_resync_sent(std::uint64_t notes) noexcept {
    resync_sent_.fetch_add(notes, std::memory_order_relaxed);
  }
  /// Admissions that found every shard busy and blocked on this one.
  [[nodiscard]] std::uint64_t waits() const noexcept {
    return waits_.load(std::memory_order_relaxed);
  }
  /// Counts one such admission (the service decides when it blocks).
  void count_wait() noexcept {
    waits_.fetch_add(1, std::memory_order_relaxed);
  }

  /// (owner bits, claimed slots) of every live session — the fuzz
  /// harness's double-booking audit.  Quiesce for exact answers.
  [[nodiscard]] std::vector<std::pair<std::uint64_t,
                                      std::vector<std::uint32_t>>>
  session_slots() const;

 private:
  struct Session {
    TenantId tenant;
    std::vector<std::uint32_t> slots;
  };

  /// The body of admit() and try_admit(); the caller holds mutex_.
  AdmitOutcome admit_locked(TenantId tenant, NodeId source, NodeId target);
  /// Sets the replica weight of `slot` from the SlotTable truth.
  void resync_slot_locked(std::uint32_t slot);
  void drain_inbox_locked();

  const std::uint32_t index_;
  SlotTable* const table_;
  CommitLog* const log_;

  std::mutex mutex_;            // the engine mutex: engine_, next_seq_
  RouteEngine engine_;
  std::uint64_t next_seq_ = 1;  // ids start at 1 (0 = free)
  std::atomic<std::uint64_t> conflicts_{0};  // written under mutex_
  std::atomic<std::uint64_t> waits_{0};
  std::atomic<std::uint64_t> resync_sent_{0};

  mutable std::mutex sessions_mutex_;
  FlatMap<std::uint64_t, Session> sessions_;  // keyed by local seq

  std::mutex inbox_mutex_;
  std::vector<std::uint32_t> inbox_;
  /// Cheap empty-check so admits skip the inbox lock when idle.
  std::atomic<bool> inbox_nonempty_{false};
};

}  // namespace lumen::svc
