#include "rwa/defragment.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/route_engine.h"

namespace lumen {

DefragReport defragment(SessionManager& manager, DefragOrder order) {
  DefragReport report;
  std::vector<SessionId> ids = manager.active_session_ids();
  switch (order) {
    case DefragOrder::kCostliestFirst:
      // Most-expensive-first: those have the most to gain, and moving
      // them frees contiguous resources for the rest of the pass.
      std::sort(ids.begin(), ids.end(), [&](SessionId a, SessionId b) {
        return manager.find(a)->cost > manager.find(b)->cost;
      });
      break;
    case DefragOrder::kMatrixGain: {
      // Price every session's best route on the current residual state
      // (the manager's weight-synchronized engine) with one goal-directed
      // point query each, then sort by estimated saving.  The estimate is
      // conservative (it does not credit the session's own released
      // resources), so the actual re-route can only do better.
      SearchScratch scratch;
      std::vector<double> gain(ids.size());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const SessionRecord* session = manager.find(ids[i]);
        const double priced =
            manager.engine()
                .route_semilightpath(session->source, session->target,
                                     scratch, {.goal_directed = true})
                .cost;
        gain[i] = priced == kInfiniteCost ? -kInfiniteCost
                                          : session->cost - priced;
      }
      std::vector<std::size_t> index(ids.size());
      for (std::size_t i = 0; i < index.size(); ++i) index[i] = i;
      std::stable_sort(index.begin(), index.end(),
                       [&](std::size_t a, std::size_t b) {
                         return gain[a] > gain[b];
                       });
      std::vector<SessionId> sorted;
      sorted.reserve(ids.size());
      for (const std::size_t i : index) sorted.push_back(ids[i]);
      ids = std::move(sorted);
      break;
    }
  }
  for (const SessionId id : ids) {
    const double before = manager.find(id)->cost;
    ++report.considered;
    if (manager.reoptimize(id)) {
      ++report.improved;
      report.cost_saved += before - manager.find(id)->cost;
    }
  }
  return report;
}

}  // namespace lumen
