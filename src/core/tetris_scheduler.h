// The Tetris scheduler (paper §3) — the primary contribution.
//
// Per scheduling pass it walks machines with free resources and repeatedly
// places the best task on each until nothing more fits:
//   * Admission (§3.2): a task is considered only if its *peak* estimated
//     demands fit — every dimension locally, plus disk-read / net-out at
//     each remote input source. Over-allocation is therefore impossible.
//   * Alignment (§3.2): among admissible tasks, prefer the one whose
//     demand vector best matches the machine's available vector (weighted
//     dot product by default; see alignment.h for the Table 7
//     alternatives). Tasks reading remotely are penalized by
//     `remote_penalty` so local resources are preferred and the network is
//     left for tasks that compulsively need it.
//   * Multi-resource SRTF (§3.3): the alignment score is combined with the
//     job's remaining work p via score = a - eps * p, with
//     eps = srtf_weight * (mean |a|) / (mean p), preferring jobs closer to
//     completion without surrendering packing efficiency.
//   * Fairness knob (§3.4): with knob f, only the ceil((1-f)|J|) jobs
//     furthest from their fair share are considered. f=0 is the most
//     efficient schedule; f -> 1 is strictly fair.
//   * Barrier hint (§3.5): once a stage preceding a barrier is >= b
//     complete, its stragglers get strict priority (they gate the next
//     stage of the DAG while consuming few resources).
//
// This is the optimized pass (DESIGN.md §8, §12): one serial scan per
// candidate round, tier by tier, that refreshes stale cells, scores them
// in vector blocks and picks the best survivor, with shortcuts that skip
// work the naive oracle (naive_tetris_scheduler.h) does in full. Both
// share the policy rules of tetris_policy.h and place bit-identically.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/tetris_config.h"
#include "core/tetris_policy.h"
#include "sim/scheduler.h"
#include "util/perf_counters.h"

namespace tetris::core {

class TetrisScheduler final : public sim::Scheduler {
 public:
  explicit TetrisScheduler(TetrisConfig config = {});
  ~TetrisScheduler() override;
  TetrisScheduler(TetrisScheduler&&) noexcept;
  TetrisScheduler& operator=(TetrisScheduler&&) noexcept;

  std::string name() const override { return config_.name; }
  void schedule(sim::SchedulerContext& ctx) override;

  const TetrisConfig& config() const { return config_; }

  // Lifetime counters, for tests and diagnostics.
  struct Stats {
    long placements = 0;
    long priority_placements = 0;  // won via the barrier hint
    long starved_placements = 0;   // won via the starvation reservation
    long preemptions = 0;          // kills issued by fairness preemption
  };
  const Stats& stats() const { return stats_; }

  // Lifetime hot-path counters (also mirrored into the context's sink,
  // i.e. SimResult::perf, when one is attached).
  const util::PerfCounters& perf() const { return perf_; }

 private:
  TetrisConfig config_;
  Stats stats_;
  util::PerfCounters perf_;
  // The scan's working lists (defined in the .cc), kept across passes.
  struct PassScratch;
  std::unique_ptr<PassScratch> scratch_;
  // The a_bar of eps = a_bar / p_bar, over the scheduler's lifetime.
  policy::AlignmentMean alignment_;
  // When each group was last served (starvation tier).
  policy::ServiceLog service_;
  // Persistent <group, machine> cell matrix in structure-of-arrays form
  // (DESIGN.md §12.5): the heavy payload (probe) lives in slots that
  // survive across passes — so every probe keeps its remote-leg buffer
  // capacity — next to a dense alignment plane, while the per-pass scan
  // flags are separate byte planes reset with four fills. Constructing
  // and destroying the matrix each pass (megabytes of value-init plus a
  // vector free per probed cell) was a top slice of pass latency.
  // Rows are positional per pass; slot contents are only read after this
  // pass's refresh, so stale payloads are never observed.
  std::vector<sim::Probe> cell_probes_;
  std::vector<double> cell_alignment_;
  // Alignment replay (DESIGN.md §8.2): a cell's alignment was computed
  // from its probe against its column's availability at this version
  // (0: no valid score; zeroed whenever a re-probe may have changed the
  // probe). While the column is still at that version, a stale cell's
  // score is that same double, so it is replayed instead of recomputed.
  std::vector<std::uint64_t> cell_scored_epoch_;
  std::vector<unsigned char> cell_fresh_;     // probe + alignment up to date
  std::vector<unsigned char> cell_rejected_;  // does not fit; may be sticky
  std::vector<unsigned char> cell_probe_ok_;  // probe matches candidate set
  std::vector<unsigned char> cell_sticky_;    // rejection monotone in avail
  // Per-machine column version: a fresh value at every pass start and at
  // every invalidation of the column, drawn from one lifetime counter so
  // no value recurs across passes.
  std::vector<std::uint64_t> column_epoch_;
  std::uint64_t next_column_epoch_ = 0;
};

}  // namespace tetris::core
