// Small helpers shared across scheduler implementations: admission
// predicates and machine scans.
#pragma once

#include <optional>
#include <utility>

#include "sim/scheduler.h"
#include "util/resources.h"

namespace tetris::sched {

// CPU + memory admission only — what today's schedulers check (§1): disk
// and network are ignored, which is where over-allocation comes from.
bool fits_cpu_mem(const Resources& demand, const Resources& avail);

// All six dimensions at the host.
bool fits_all_local(const Resources& demand, const Resources& avail);

// The probe's remote legs fit at each source machine (Tetris's §3.2 check
// that remote reads have disk-read and net-out bandwidth at the sources).
bool remote_legs_fit(const sim::SchedulerContext& ctx, const sim::Probe& p);

// Machine prefilter that admits every machine.
struct NoPrefilter {
  bool operator()(const Resources& /*avail*/) const { return true; }
};

// Records the kGroupScan trace event of one best_machine_for_group call
// (no-op when tracing is off).
void record_group_scan(sim::SchedulerContext& ctx, const sim::GroupView& group,
                       const sim::Probe* best, int scanned);

// Scans every machine for the best placement of `group` under the
// admission predicate `fits(const Probe&)`; "best" is the fitting probe
// with the highest local fraction (earliest machine on ties). Returns
// nullopt when no machine admits the group. `prefilter(const Resources&
// avail)` cheaply rejects machines by their available vector before the
// (costlier) probe; cpu/mem demands are placement-independent so
// prefiltering on them is exact. The scan probes into two Probe buffers
// (the best so far and the next candidate), swapping them on a new best.
template <typename Fits, typename Prefilter = NoPrefilter>
std::optional<sim::Probe> best_machine_for_group(
    sim::SchedulerContext& ctx, const sim::GroupView& group, const Fits& fits,
    const Prefilter& prefilter = {}) {
  std::optional<sim::Probe> best;
  sim::Probe probe;
  int scanned = 0;
  for (int m = 0; m < ctx.num_machines(); ++m) {
    if (!ctx.machine_up(m)) continue;  // failed and not yet recovered
    if (!ctx.constraints_admit(group.ref, m)) continue;  // can't legally host
    if (!prefilter(ctx.available(m))) continue;
    scanned++;
    ctx.probe_into(group.ref, m, &probe);
    if (!probe.valid || !fits(probe)) continue;
    if (!best || probe.local_fraction > best->local_fraction) {
      if (!best) best.emplace();
      std::swap(*best, probe);
      if (best->local_fraction >= 1.0) break;
    }
  }
  record_group_scan(ctx, group, best ? &*best : nullptr, scanned);
  return best;
}

// Standard prefilter: group's estimated cpu+mem must fit.
inline auto cpu_mem_prefilter(const sim::GroupView& group) {
  return [demand = group.est_demand](const Resources& avail) {
    return fits_cpu_mem(demand, avail);
  };
}

}  // namespace tetris::sched
