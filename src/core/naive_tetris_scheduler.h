// The naive Tetris oracle: the pass of TetrisScheduler as one interleaved
// row-major loop over the <group, machine> matrix, with no shortcut at
// all — every stale cell is re-probed and re-scored on the spot, no
// rejection survives an invalidation, no row is skipped, nothing is
// batched or replayed, and the cell matrix is rebuilt every pass. It
// shares only the policy rules of tetris_policy.h with the optimized
// scan, which must place bit-identically to it (the equivalence and
// streaming matrices enforce that). Slow by design: it exists to be
// obviously right.
#pragma once

#include <string>

#include "core/tetris_config.h"
#include "core/tetris_policy.h"
#include "sim/scheduler.h"
#include "util/perf_counters.h"

namespace tetris::core {

class NaiveTetrisScheduler final : public sim::Scheduler {
 public:
  explicit NaiveTetrisScheduler(TetrisConfig config = {});

  std::string name() const override { return config_.name; }
  void schedule(sim::SchedulerContext& ctx) override;

  // Lifetime counters (also mirrored into the context's sink). Only
  // probes_issued and score_evals ever move: the oracle takes no
  // shortcut the other scan counters would record.
  const util::PerfCounters& perf() const { return perf_; }

 private:
  TetrisConfig config_;
  util::PerfCounters perf_;
  policy::AlignmentMean alignment_;
  policy::ServiceLog service_;
};

}  // namespace tetris::core
