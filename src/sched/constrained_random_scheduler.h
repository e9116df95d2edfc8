// Randomized constrained-placement baseline (DESIGN.md §13): the
// comparison point the paper's packing argument is made against once
// placement constraints exist. For each runnable group it computes the
// set of machines that may *legally* host the group (up, label clauses,
// anti-affinity, same-rack-as-input) and samples uniformly from that set
// without replacement until a sampled machine admits the task on every
// resource. No alignment, no SRTF, no locality preference — placement
// quality comes purely from feasibility plus chance, which is exactly
// the floor bench_constraints measures Tetris against.
//
// Sampling is uniform over the *feasible* set rather than over all
// machines, so heavily constrained groups are not starved by wasted draws
// on machines that could never host them. Without constraints the
// feasible set is every up machine, which makes this also the
// unconstrained random baseline.
#pragma once

#include <cstdint>
#include <string>

#include "sim/scheduler.h"
#include "util/rng.h"

namespace tetris::sched {

class ConstrainedRandomScheduler final : public sim::Scheduler {
 public:
  explicit ConstrainedRandomScheduler(std::uint64_t seed = 42) : rng_(seed) {}

  std::string name() const override { return "constrained-random"; }
  void schedule(sim::SchedulerContext& ctx) override;

 private:
  Rng rng_;
};

}  // namespace tetris::sched
