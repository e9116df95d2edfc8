// Stamped probes and alignment replay (DESIGN.md §8.2, §8.3): a stale
// cell whose probe kept its memo stamp and whose column has not moved
// since it was scored in the same pass replays its alignment instead of
// running the kernel. The replay must be invisible in the schedule and in
// the eps normalizer: the same cells contribute the same |a| in the same
// order, so every placement stays bit-identical to the naive oracle.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "core/naive_tetris_scheduler.h"
#include "core/tetris_scheduler.h"
#include "sim/simulator.h"
#include "workload/facebook.h"
#include "workload/profiles.h"
#include "workload/stream_gen.h"

namespace tetris {
namespace {

workload::StreamGenConfig stream_config() {
  workload::StreamGenConfig gen;
  gen.num_jobs = 60;
  gen.tasks_per_job = 40;
  gen.num_machines = 10;
  // The benchmark stream's offered load, 0.65 of the cluster's cores
  // (a 100-task stream job carries ~1300 core-seconds).
  gen.arrival_spacing = 1300.0 * 40 / 100 / (0.65 * 16.0 * 10);
  gen.seed = 5;
  return gen;
}

sim::SimConfig stream_sim_config(bool naive_view) {
  sim::SimConfig cfg;
  cfg.num_machines = 10;
  cfg.machine_capacity = workload::facebook_machine();
  cfg.tracker = sim::TrackerMode::kUsage;
  cfg.stream.enabled = true;
  cfg.max_time = 1e9;
  cfg.naive_scheduler_view = naive_view;
  return cfg;
}

// The optimized scan, or the NaiveTetrisScheduler oracle when
// `naive_scan`, on the naive or the cached simulator view.
sim::SimResult run_stream(bool naive_view, bool naive_scan) {
  workload::SyntheticJobSource source(stream_config());
  if (naive_scan) {
    core::NaiveTetrisScheduler sched;
    return sim::simulate_stream(stream_sim_config(naive_view), source, sched);
  }
  core::TetrisScheduler sched;
  return sim::simulate_stream(stream_sim_config(naive_view), source, sched);
}

void expect_same_jobs(const sim::SimResult& want, const sim::SimResult& got) {
  EXPECT_EQ(want.makespan, got.makespan);
  EXPECT_EQ(want.scheduler_cost.placements, got.scheduler_cost.placements);
  ASSERT_EQ(want.jobs.size(), got.jobs.size());
  for (std::size_t i = 0; i < want.jobs.size(); ++i)
    EXPECT_EQ(want.jobs[i].finish, got.jobs[i].finish) << "job " << i;
}

void expect_same_tasks(const sim::SimResult& want, const sim::SimResult& got) {
  expect_same_jobs(want, got);
  ASSERT_EQ(want.tasks.size(), got.tasks.size());
  for (std::size_t i = 0; i < want.tasks.size(); ++i) {
    EXPECT_EQ(want.tasks[i].host, got.tasks[i].host) << "task " << i;
    EXPECT_EQ(want.tasks[i].start, got.tasks[i].start) << "task " << i;
    EXPECT_EQ(want.tasks[i].finish, got.tasks[i].finish) << "task " << i;
  }
}

TEST(CellReplay, CountersFireOnStreamAndStayZeroWhenNaive) {
  const sim::SimResult opt = run_stream(false, false);
  ASSERT_TRUE(opt.completed);
  EXPECT_GT(opt.perf.probe_copy_skips, 0);
  EXPECT_GT(opt.perf.score_replays, 0);
  EXPECT_GT(opt.perf.score_evals, 0);

  // Naive scoring recomputes every refreshed cell: no replay. It scores
  // exactly the cells the optimized pass scores or replays.
  const sim::SimResult naive_scan = run_stream(false, true);
  expect_same_jobs(naive_scan, opt);
  EXPECT_EQ(naive_scan.perf.score_replays, 0);
  EXPECT_EQ(naive_scan.perf.score_evals,
            opt.perf.score_evals + opt.perf.score_replays);

  // The naive view memoizes nothing, so its probes carry no stamp.
  const sim::SimResult naive_view = run_stream(true, false);
  expect_same_jobs(naive_view, opt);
  EXPECT_EQ(naive_view.perf.probe_copy_skips, 0);
  EXPECT_EQ(naive_view.perf.score_replays, 0);

  const sim::SimResult oracle = run_stream(true, true);
  expect_same_jobs(oracle, opt);
  EXPECT_EQ(oracle.perf.probe_copy_skips, 0);
  EXPECT_EQ(oracle.perf.score_replays, 0);
}

// With the barrier hint at 0.5, straggler rows (tier 1) scan in their own
// wave ahead of tier 0, so a round's score records come from several
// waves and mix kernel-scored and replayed cells within rows; the
// ordered eps accumulation must still match the naive oracle's.
TEST(CellReplay, MixedTierRowsMatchNaiveBitForBit) {
  workload::FacebookConfig wcfg;
  wcfg.num_jobs = 40;
  wcfg.num_machines = 10;
  wcfg.task_scale = 0.5;
  wcfg.arrival_window = 40;
  wcfg.seed = 3;
  const sim::Workload w = workload::make_facebook_workload(wcfg);

  sim::SimConfig cfg;
  cfg.num_machines = 10;
  cfg.machine_capacity = workload::facebook_machine();
  core::TetrisConfig tcfg;
  tcfg.barrier_knob = 0.5;

  core::TetrisScheduler opt(tcfg);
  const sim::SimResult r = sim::simulate(cfg, w, opt);
  cfg.naive_scheduler_view = true;
  core::NaiveTetrisScheduler naive(tcfg);
  const sim::SimResult oracle = sim::simulate(cfg, w, naive);
  ASSERT_TRUE(oracle.completed);

  expect_same_tasks(oracle, r);
  EXPECT_GT(opt.stats().priority_placements, 0);
  EXPECT_GT(r.perf.score_replays, 0);
  EXPECT_GT(r.perf.score_evals, 0);
  EXPECT_EQ(r.perf.score_evals + r.perf.score_replays,
            oracle.perf.score_evals);
}

}  // namespace
}  // namespace tetris
