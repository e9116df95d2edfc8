#include "sched/random_scheduler.h"

#include <vector>

#include "sched/common.h"

namespace tetris::sched {

void RandomScheduler::schedule(sim::SchedulerContext& ctx) {
  auto groups = ctx.runnable_groups();
  if (groups.empty()) return;

  const auto fits = [&](const sim::Probe& p) {
    return fits_all_local(p.demand, ctx.available(p.machine)) &&
           remote_legs_fit(ctx, p);
  };

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
    // Random fitting machine: probe machines starting at a random offset.
    const int n = ctx.num_machines();
    const int start = static_cast<int>(rng_.uniform_int(0, n - 1));
    bool placed = false;
    for (int k = 0; k < n; ++k) {
      const int m = (start + k) % n;
      if (!ctx.machine_up(m)) continue;
      if (!ctx.constraints_admit(group.ref, m)) continue;
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
