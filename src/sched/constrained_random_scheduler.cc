#include "sched/constrained_random_scheduler.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "sched/common.h"

namespace tetris::sched {

void ConstrainedRandomScheduler::schedule(sim::SchedulerContext& ctx) {
  auto groups = ctx.runnable_groups();
  if (groups.empty()) return;

  const auto fits = [&](const sim::Probe& p) {
    return fits_all_local(p.demand, ctx.available(p.machine)) &&
           remote_legs_fit(ctx, p);
  };

  std::vector<int> feasible;
  // One probe buffer for the whole pass: re-probes keep its capacity.
  sim::Probe probe;
  std::vector<char> blocked(groups.size(), 0);
  std::size_t unblocked = groups.size();
  while (unblocked > 0) {
    // Pick a random unblocked group.
    std::size_t pick = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(groups.size()) - 1));
    while (blocked[pick]) pick = (pick + 1) % groups.size();
    auto& group = groups[pick];
    if (group.runnable <= 0) {
      blocked[pick] = 1;
      unblocked--;
      continue;
    }
    // Feasible set for this group right now. Rebuilt per attempt because
    // anti-affinity shrinks it as the group's own placements land.
    feasible.clear();
    for (int m = 0; m < ctx.num_machines(); ++m) {
      if (!ctx.machine_up(m)) continue;
      if (!ctx.constraints_admit(group.ref, m)) continue;
      feasible.push_back(m);
    }
    // Uniform sampling without replacement (partial Fisher–Yates): each
    // legal machine is equally likely to be tried first, regardless of id.
    bool placed = false;
    std::size_t remaining = feasible.size();
    while (remaining > 0) {
      const std::size_t j = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(remaining) - 1));
      const int m = feasible[j];
      feasible[j] = feasible[remaining - 1];
      remaining--;
      ctx.probe_into(group.ref, m, &probe);
      if (!probe.valid || !fits(probe)) continue;
      if (ctx.place(probe)) {
        group.runnable--;
        placed = true;
        break;
      }
    }
    if (!placed) {
      blocked[pick] = 1;
      unblocked--;
    }
  }
}

}  // namespace tetris::sched
