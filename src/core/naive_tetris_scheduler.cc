#include "core/naive_tetris_scheduler.h"

#include <cmath>
#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sched/common.h"

namespace tetris::core {

NaiveTetrisScheduler::NaiveTetrisScheduler(TetrisConfig config)
    : config_(std::move(config)) {
  policy::validate(config_);
}

void NaiveTetrisScheduler::schedule(sim::SchedulerContext& ctx) {
  (void)ctx.take_reports();
  service_.prune(ctx.retired_before());

  const auto jobs = ctx.active_jobs();
  auto groups = ctx.runnable_groups();
  if (jobs.empty() || groups.empty()) return;

  std::unordered_map<sim::JobId, std::size_t> job_index;
  for (std::size_t i = 0; i < jobs.size(); ++i) job_index[jobs[i].id] = i;
  const double p_bar = policy::mean_remaining_work(jobs);
  std::vector<Resources> extra(jobs.size());
  std::vector<int> placed_from(jobs.size(), 0);
  auto eligible = policy::eligible_jobs(config_, ctx, jobs, extra, placed_from);
  const int reserved =
      policy::reserved_machine(config_, ctx, groups, service_);
  const auto imminent = policy::imminent_demands(config_, ctx);

  // The pass's <group, machine> cells. A stale cell is recomputed in full
  // the moment the scan reaches it.
  struct Cell {
    sim::Probe probe;
    double alignment = 0;
    bool fresh = false;
    bool rejected = false;
  };
  const int machines = ctx.num_machines();
  std::vector<Cell> cells(groups.size() * static_cast<std::size_t>(machines));
  const auto cell = [&](std::size_t g, int m) -> Cell& {
    return cells[g * static_cast<std::size_t>(machines) +
                 static_cast<std::size_t>(m)];
  };
  util::PerfCounters pc;

  const auto refresh = [&](std::size_t g, int m, Cell& c) {
    c.fresh = true;
    c.rejected = true;
    auto& group = groups[g];
    if (group.runnable <= 0) return;
    if (!ctx.machine_up(m)) return;
    if (!ctx.constraints_admit(group.ref, m)) return;
    const Resources avail = ctx.available(m);
    if (!sched::fits_cpu_mem(group.est_demand, avail)) return;
    ctx.probe_into(group.ref, m, &c.probe);
    pc.probes_issued++;
    if (!c.probe.valid) {
      group.runnable = 0;  // no candidate task left anywhere
      return;
    }
    if (!policy::admits(config_, ctx, c.probe, avail)) return;
    c.alignment = policy::cell_alignment(config_, c.probe, avail,
                                         ctx.capacity(m));
    pc.score_evals++;
    alignment_.add(std::abs(c.alignment));
    c.rejected = false;
  };

  while (true) {
    const double eps = alignment_.eps(config_, p_bar);
    policy::Claims claims;
    if (!imminent.empty())
      claims = policy::future_claims(config_, ctx, imminent);

    Cell* best = nullptr;
    std::size_t best_group = 0;
    double best_score = 0;
    int best_tier = -1;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const auto& group = groups[g];
      if (group.runnable <= 0) continue;
      const int tier = service_.tier(config_, group, ctx.now());
      if (tier == 0 && !eligible.contains(group.ref.job)) continue;
      // Once a higher-tier candidate exists, lower tiers cannot win.
      if (tier < best_tier) continue;
      const double rem = config_.srtf_weight > 0
                             ? jobs[job_index.at(group.ref.job)].remaining_work
                             : 0.0;
      for (int m = 0; m < machines; ++m) {
        if (m == reserved && tier < 2) continue;
        Cell& c = cell(g, m);
        if (!c.fresh) refresh(g, m, c);
        if (c.rejected) continue;
        if (tier == 0 && !claims.empty() &&
            policy::held_back(claims, m, c.alignment, c.probe.duration))
          continue;
        const double score = c.alignment - eps * rem;
        if (best == nullptr || tier > best_tier ||
            (tier == best_tier && score > best_score)) {
          best = &c;
          best_group = g;
          best_score = score;
          best_tier = tier;
        }
      }
    }
    if (best == nullptr) break;

    const sim::Probe& placed = best->probe;
    if (!policy::admits(config_, ctx, placed,
                        ctx.available(placed.machine)) ||
        !ctx.place(placed)) {
      best->rejected = true;
      continue;
    }
    groups[best_group].runnable--;
    policy::record_placement(ctx, placed, best_tier, eligible.size(),
                             best->alignment, best_score);
    service_.record(placed.group, ctx.now());
    const std::size_t ji = job_index.at(placed.group.job);
    extra[ji] += placed.demand;
    placed_from[ji]++;
    if (config_.fairness_knob > 0)
      eligible = policy::eligible_jobs(config_, ctx, jobs, extra, placed_from);

    // The placed row's candidate changed; the host's and the remote
    // sources' availability fell.
    for (int m = 0; m < machines; ++m) cell(best_group, m).fresh = false;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      cell(g, placed.machine).fresh = false;
      for (const auto& leg : placed.remote) {
        if (leg.machine < machines) cell(g, leg.machine).fresh = false;
      }
    }
  }

  policy::preempt_for_fairness(config_, ctx, jobs, extra, placed_from);
  perf_ += pc;
  if (auto* sink = ctx.perf_counters()) *sink += pc;
}

}  // namespace tetris::core
