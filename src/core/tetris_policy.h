// The policy rules of a Tetris pass (paper §3), shared by the optimized
// scan (TetrisScheduler) and the naive oracle (NaiveTetrisScheduler).
// Each function here is the single definition of one scheduling rule —
// the fairness cut, the selection tiers, the starvation reservation, the
// future-demand hold-back, admission, the score formula and fairness
// preemption. The two schedulers differ only in how they walk and cache
// the <group, machine> matrix, so any divergence between them is a bug
// in the fast path's caching, never a difference in policy.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/tetris_config.h"
#include "sim/scheduler.h"
#include "util/resources.h"

namespace tetris::core::policy {

// Throws std::invalid_argument when a knob is out of range.
void validate(const TetrisConfig& config);

// Mean remaining work over active jobs: the p_bar of eps = a_bar / p_bar
// (1 when there is none, so eps stays finite).
double mean_remaining_work(const std::vector<sim::JobView>& jobs);

// The running |alignment| average behind eps. Frozen at the start of
// every candidate round so simultaneous candidates share one eps; the
// scores a round adds only feed later rounds, in the order they are
// added (FP addition is not associative).
struct AlignmentMean {
  double sum = 0;
  long count = 0;

  void add(double abs_a) {
    sum += abs_a;
    count++;
  }
  // eps = srtf_weight * a_bar / p_bar.
  double eps(const TetrisConfig& config, double p_bar) const {
    return config.srtf_weight *
           (count > 0 ? sum / static_cast<double>(count) : 0.0) / p_bar;
  }
};

// The jobs eligible under the fairness knob (§3.4), given the extra
// allocation (`extra`) and placement count (`placed_from`) this pass has
// already committed per entry of `jobs`. Only jobs with pending tasks
// occupy eligibility slots: a job waiting at a barrier demands nothing.
std::unordered_set<sim::JobId> eligible_jobs(
    const TetrisConfig& config, const sim::SchedulerContext& ctx,
    const std::vector<sim::JobView>& jobs, const std::vector<Resources>& extra,
    const std::vector<int>& placed_from);

// When each group last received a placement. A group is starved only if
// its tasks have waited long AND it has not been served recently — a
// backlogged group that places tasks every pass is queued, not starved.
class ServiceLog {
 public:
  // Drops the groups of jobs below the streaming retirement watermark:
  // their ids never reappear, so the log stays bounded by the resident
  // window without changing any future lookup.
  void prune(sim::JobId retired_before);
  void record(const sim::GroupRef& group, SimTime now);

  // Selection tier: 2 = starved (reservation extension), 1 = barrier
  // straggler (§3.5), 0 = normal. Higher tiers always win.
  int tier(const TetrisConfig& config, const sim::GroupView& group,
           SimTime now) const;

 private:
  static long long key(const sim::GroupRef& ref) {
    return (static_cast<long long>(ref.job) << 20) | ref.stage;
  }
  std::unordered_map<long long, double> last_;
  sim::JobId pruned_before_ = 0;
};

// Starvation reservation: while some group is starved, the up machine
// with the most free headroom that a starved group may legally use, which
// only the starved tier may take; -1 when nothing is starved.
int reserved_machine(const TetrisConfig& config,
                     const sim::SchedulerContext& ctx,
                     const std::vector<sim::GroupView>& groups,
                     const ServiceLog& service);

// Future-demand hold-back (§3.5 extension): stages about to unblock
// within the lookahead, and per machine the (alignment, eta) claims they
// place on it for one round. Each stage claims only the machines where it
// aligns best, at most as many as it has tasks.
struct ImminentDemand {
  sim::GroupRef ref;
  Resources demand;
  double eta;
  int tasks;
};
using Claims = std::vector<std::vector<std::pair<double, double>>>;

std::vector<ImminentDemand> imminent_demands(const TetrisConfig& config,
                                             const sim::SchedulerContext& ctx);
Claims future_claims(const TetrisConfig& config,
                     const sim::SchedulerContext& ctx,
                     const std::vector<ImminentDemand>& imminent);

// A tier-0 candidate loses machine `m` to the future when an imminent
// stage aligns strictly better there AND the candidate runs longer than
// that stage's eta.
bool held_back(const Claims& claims, int m, double alignment,
               double duration);

// Admission (§3.2): the probe's peak demands fit `avail` on every local
// dimension, and its remote legs fit at their sources.
bool admits(const TetrisConfig& config, const sim::SchedulerContext& ctx,
            const sim::Probe& probe, const Resources& avail);

// The alignment score of a cell, remote penalty included — the scalar op
// sequence the SIMD kernel reproduces per lane.
double cell_alignment(const TetrisConfig& config, const sim::Probe& probe,
                      const Resources& avail, const Resources& cap);

// Records the kPlacement event of a committed decision (no-op when
// tracing is off). `eligible` is the fairness cut it was made under.
void record_placement(sim::SchedulerContext& ctx, const sim::Probe& placed,
                      int tier, std::size_t eligible, double alignment,
                      double score);

// Fairness preemption (extension): after the candidate rounds, if the
// schedulable job furthest below its share trails fair share by more than
// preemption_deficit, kills the newest task of the most over-share job.
// Returns whether a task was killed.
bool preempt_for_fairness(const TetrisConfig& config,
                          sim::SchedulerContext& ctx,
                          const std::vector<sim::JobView>& jobs,
                          const std::vector<Resources>& extra,
                          const std::vector<int>& placed_from);

}  // namespace tetris::core::policy
