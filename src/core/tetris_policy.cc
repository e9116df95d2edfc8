#include "core/tetris_policy.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>

#include "sched/common.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace tetris::core::policy {

void validate(const TetrisConfig& config) {
  if (config.fairness_knob < 0 || config.fairness_knob >= 1.0)
    throw std::invalid_argument("fairness_knob must be in [0, 1)");
  if (config.barrier_knob < 0 || config.barrier_knob > 1.0)
    throw std::invalid_argument("barrier_knob must be in [0, 1]");
  if (config.remote_penalty < 0 || config.remote_penalty > 1.0)
    throw std::invalid_argument("remote_penalty must be in [0, 1]");
  if (config.srtf_weight < 0)
    throw std::invalid_argument("srtf_weight must be >= 0");
  if (config.starvation_threshold <= 0)
    throw std::invalid_argument("starvation_threshold must be > 0");
  if (config.future_lookahead < 0)
    throw std::invalid_argument("future_lookahead must be >= 0");
  if (config.preemption_deficit <= 0 || config.preemption_deficit > 1)
    throw std::invalid_argument("preemption_deficit must be in (0, 1]");
}

double mean_remaining_work(const std::vector<sim::JobView>& jobs) {
  double p_bar = 0;
  for (const auto& j : jobs) p_bar += j.remaining_work;
  p_bar = jobs.size() ? p_bar / static_cast<double>(jobs.size()) : 0;
  return p_bar <= 0 ? 1 : p_bar;
}

std::unordered_set<sim::JobId> eligible_jobs(
    const TetrisConfig& config, const sim::SchedulerContext& ctx,
    const std::vector<sim::JobView>& jobs, const std::vector<Resources>& extra,
    const std::vector<int>& placed_from) {
  std::unordered_set<sim::JobId> out;
  std::vector<sim::JobView> schedulable;
  schedulable.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].runnable_tasks - placed_from[i] <= 0) continue;
    sim::JobView v = jobs[i];
    v.current_alloc += extra[i];
    schedulable.push_back(std::move(v));
  }
  if (config.fairness_knob <= 0) {
    for (const auto& j : schedulable) out.insert(j.id);
    return out;
  }
  if (config.fairness_over_queues) {
    // Queue granularity: all jobs of the furthest-below queues are
    // eligible. Shares aggregate over *all* active jobs of a queue (its
    // running work counts even if momentarily unschedulable), but only
    // queues with schedulable jobs occupy eligibility slots.
    std::unordered_set<int> schedulable_queues;
    for (const auto& j : schedulable) schedulable_queues.insert(j.queue);
    std::vector<sim::JobView> counted;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!schedulable_queues.contains(jobs[i].queue)) continue;
      sim::JobView v = jobs[i];
      v.current_alloc += extra[i];
      counted.push_back(std::move(v));
    }
    const auto order = sched::furthest_queues_order(
        config.fairness_policy, counted, ctx.cluster_capacity(),
        config.slot_mem);
    const auto cut = static_cast<std::size_t>(std::max(
        1.0, std::ceil((1.0 - config.fairness_knob) *
                       static_cast<double>(order.size()))));
    std::unordered_set<int> eligible_queues(
        order.begin(),
        order.begin() + static_cast<long>(std::min(cut, order.size())));
    for (const auto& j : schedulable) {
      if (eligible_queues.contains(j.queue)) out.insert(j.id);
    }
    return out;
  }
  const auto order = sched::furthest_from_share_order(
      config.fairness_policy, schedulable, ctx.cluster_capacity(),
      config.slot_mem);
  const auto cut = static_cast<std::size_t>(std::max(
      1.0, std::ceil((1.0 - config.fairness_knob) *
                     static_cast<double>(schedulable.size()))));
  for (std::size_t k = 0; k < std::min(cut, order.size()); ++k)
    out.insert(schedulable[order[k]].id);
  return out;
}

void ServiceLog::prune(sim::JobId retired_before) {
  if (retired_before <= pruned_before_) return;
  std::erase_if(last_, [&](const auto& kv) {
    return (kv.first >> 20) < static_cast<long long>(retired_before);
  });
  pruned_before_ = retired_before;
}

void ServiceLog::record(const sim::GroupRef& group, SimTime now) {
  last_[key(group)] = now;
}

int ServiceLog::tier(const TetrisConfig& config, const sim::GroupView& group,
                     SimTime now) const {
  double unserved = group.longest_wait;
  if (const auto it = last_.find(key(group.ref)); it != last_.end())
    unserved = std::min(unserved, now - it->second);
  if (unserved > config.starvation_threshold) return 2;
  if (config.barrier_knob < 1.0 &&
      static_cast<double>(group.finished) >=
          config.barrier_knob * static_cast<double>(group.total)) {
    return 1;
  }
  return 0;
}

int reserved_machine(const TetrisConfig& config,
                     const sim::SchedulerContext& ctx,
                     const std::vector<sim::GroupView>& groups,
                     const ServiceLog& service) {
  const auto starved = [&](const sim::GroupView& g) {
    return g.runnable > 0 && service.tier(config, g, ctx.now()) == 2;
  };
  if (std::none_of(groups.begin(), groups.end(), starved)) return -1;
  int reserved = -1;
  double best_headroom = -1;
  for (int m = 0; m < ctx.num_machines(); ++m) {
    if (!ctx.machine_up(m)) continue;  // nothing accumulates on a corpse
    // Reserving a machine no starved group may legally use would fence
    // capacity the starved work can never claim.
    const bool usable =
        std::any_of(groups.begin(), groups.end(), [&](const auto& g) {
          return starved(g) && ctx.constraints_admit(g.ref, m);
        });
    if (!usable) continue;
    const double headroom =
        ctx.available(m).normalized_by(ctx.capacity(m)).sum();
    if (headroom > best_headroom) {
      best_headroom = headroom;
      reserved = m;
    }
  }
  return reserved;
}

std::vector<ImminentDemand> imminent_demands(const TetrisConfig& config,
                                             const sim::SchedulerContext& ctx) {
  std::vector<ImminentDemand> out;
  if (config.future_lookahead <= 0) return out;
  for (const auto& g : ctx.imminent_groups()) {
    if (g.eta <= config.future_lookahead)
      out.push_back({g.ref, g.est_demand, g.eta, g.total});
  }
  return out;
}

Claims future_claims(const TetrisConfig& config,
                     const sim::SchedulerContext& ctx,
                     const std::vector<ImminentDemand>& imminent) {
  const int machines = ctx.num_machines();
  Claims claims(static_cast<std::size_t>(machines));
  std::vector<std::pair<double, int>> scored;  // (alignment, machine)
  for (const auto& i : imminent) {
    scored.clear();
    for (int m = 0; m < machines; ++m) {
      if (!ctx.machine_up(m)) continue;
      // A stage only ever claims machines it could legally run on once
      // its barrier breaks.
      if (!ctx.constraints_admit(i.ref, m)) continue;
      const Resources cap = ctx.capacity(m);
      if (!i.demand.fits_within(cap)) continue;
      scored.emplace_back(
          alignment_score(config.alignment, i.demand.normalized_by(cap),
                          ctx.available(m).normalized_by(cap)),
          m);
    }
    const auto budget = static_cast<std::size_t>(
        std::max(1, std::min(i.tasks, machines)));
    if (scored.size() > budget) {
      std::partial_sort(scored.begin(),
                        scored.begin() + static_cast<long>(budget),
                        scored.end(), std::greater<>());
      scored.resize(budget);
    }
    for (const auto& [align, m] : scored)
      claims[static_cast<std::size_t>(m)].emplace_back(align, i.eta);
  }
  return claims;
}

bool held_back(const Claims& claims, int m, double alignment,
               double duration) {
  for (const auto& [align, eta] : claims[static_cast<std::size_t>(m)]) {
    if (align > alignment && duration > eta) return true;
  }
  return false;
}

bool admits(const TetrisConfig& config, const sim::SchedulerContext& ctx,
            const sim::Probe& probe, const Resources& avail) {
  if (config.only_cpu_mem) return sched::fits_cpu_mem(probe.demand, avail);
  return sched::fits_all_local(probe.demand, avail) &&
         sched::remote_legs_fit(ctx, probe);
}

double cell_alignment(const TetrisConfig& config, const sim::Probe& probe,
                      const Resources& avail, const Resources& cap) {
  double a = alignment_score(config.alignment, probe.demand.normalized_by(cap),
                             avail.normalized_by(cap));
  a *= 1.0 - config.remote_penalty * (1.0 - probe.local_fraction);
  return a;
}

void record_placement(sim::SchedulerContext& ctx, const sim::Probe& placed,
                      int tier, std::size_t eligible, double alignment,
                      double score) {
  trace::Recorder* tracer = ctx.tracer();
  if (tracer == nullptr) return;
  trace::Event ev;
  ev.kind = trace::EventKind::kPlacement;
  ev.time = ctx.now();
  ev.a = placed.group.job;
  ev.b = placed.group.stage;
  ev.c = placed.task_index;
  ev.d = placed.machine;
  ev.e = tier;
  ev.f = static_cast<std::int64_t>(eligible);
  ev.x = alignment;
  ev.y = alignment - score;  // eps * p_hat SRTF term: score = x - y
  tracer->record(ev);
}

bool preempt_for_fairness(const TetrisConfig& config,
                          sim::SchedulerContext& ctx,
                          const std::vector<sim::JobView>& jobs,
                          const std::vector<Resources>& extra,
                          const std::vector<int>& placed_from) {
  if (!config.preempt_for_fairness) return false;
  // The candidate rounds exhausted every placeable candidate, so a
  // schedulable job left with runnable tasks provably fits nowhere.
  std::vector<double> shares(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    sim::JobView adjusted = jobs[i];
    adjusted.current_alloc += extra[i];
    shares[i] = sched::job_share(config.fairness_policy, adjusted,
                                 ctx.cluster_capacity(), config.slot_mem);
  }
  const sim::JobView* starving = nullptr;
  double min_share = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].runnable_tasks - placed_from[i] <= 0) continue;
    if (starving == nullptr || shares[i] < min_share) {
      starving = &jobs[i];
      min_share = shares[i];
    }
  }
  if (starving == nullptr || jobs.size() < 2) return false;
  const double fair = 1.0 / static_cast<double>(jobs.size());
  if (fair - min_share < config.preemption_deficit) return false;

  std::unordered_map<sim::JobId, double> share_of;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    share_of[jobs[i].id] = shares[i];
  const auto running = ctx.running_tasks();
  const sim::RunningTaskView* victim = nullptr;
  double victim_share = fair;
  for (const auto& t : running) {
    if (t.job == starving->id) continue;
    const auto it = share_of.find(t.job);
    if (it == share_of.end() || it->second <= fair) continue;
    // Most over-share job first; newest task within it (least work lost).
    if (victim == nullptr || it->second > victim_share ||
        (it->second == victim_share && t.started > victim->started)) {
      victim = &t;
      victim_share = it->second;
    }
  }
  return victim != nullptr && ctx.preempt(victim->uid);
}

}  // namespace tetris::core::policy
