// Behavioural tests of the baseline schedulers, driven through small
// simulations: admission semantics (what each scheduler checks and what it
// over-allocates), fairness behaviour and job ordering.
#include <gtest/gtest.h>

#include <algorithm>

#include "sched/constrained_random_scheduler.h"
#include "sched/drf_scheduler.h"
#include "sched/slot_scheduler.h"
#include "sched/srtf_scheduler.h"
#include "sched/upper_bound.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace tetris::sched {
namespace {

using sim::InputSplit;
using sim::JobSpec;
using tetris::Resources;
using sim::SimConfig;
using sim::SimResult;
using sim::StageSpec;
using sim::TaskSpec;
using sim::Workload;

TaskSpec cpu_task(double cores, double mem_gb, double seconds) {
  TaskSpec t;
  t.peak_cores = cores;
  t.peak_mem = mem_gb * kGB;
  t.cpu_cycles = cores * seconds;
  return t;
}

TaskSpec disk_task(double mb, double io_mb, sim::MachineId replica) {
  TaskSpec t;
  t.peak_cores = 0.25;
  t.peak_mem = 0.5 * kGB;
  t.max_io_bw = io_mb * kMB;
  InputSplit s;
  s.bytes = mb * kMB;
  s.replicas = {replica};
  t.inputs.push_back(s);
  return t;
}

SimConfig one_machine() {
  SimConfig cfg;
  cfg.num_machines = 1;
  cfg.machine_capacity =
      Resources::full(8, 8 * kGB, 100 * kMB, 100 * kMB, 125 * kMB, 125 * kMB);
  return cfg;
}

Workload single_stage(std::vector<TaskSpec> tasks, SimTime arrival = 0) {
  Workload w;
  JobSpec job;
  job.arrival = arrival;
  StageSpec s;
  s.tasks = std::move(tasks);
  job.stages.push_back(std::move(s));
  w.jobs.push_back(std::move(job));
  return w;
}

// ---------------------------------------------------------------------------
// Slot scheduler

TEST(SlotScheduler, NeverOverCommitsMemory) {
  // Four 4 GB tasks on one 8 GB machine: at most two at a time, so the
  // natural-duration invariant holds (no thrash-induced slowdown).
  SlotScheduler sched;
  const auto r =
      sim::simulate(one_machine(),
                    single_stage({cpu_task(1, 4, 10), cpu_task(1, 4, 10),
                                  cpu_task(1, 4, 10), cpu_task(1, 4, 10)}),
                    sched);
  ASSERT_TRUE(r.completed);
  for (const auto& t : r.tasks) {
    EXPECT_NEAR(t.duration(), t.natural_duration, 1e-6);
  }
}

TEST(SlotScheduler, OverAllocatesDisk) {
  // Eight disk-saturating tasks, all 0.5 GB: slots (2 GB each) admit all of
  // them at once; the disk is over-subscribed and durations inflate.
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 8; ++i) tasks.push_back(disk_task(500, 100, 0));
  SlotScheduler sched;
  const auto r = sim::simulate(one_machine(), single_stage(tasks), sched);
  ASSERT_TRUE(r.completed);
  int slowed = 0;
  for (const auto& t : r.tasks) {
    if (t.duration() > t.natural_duration * 1.5) slowed++;
  }
  EXPECT_GE(slowed, 6);
}

TEST(SlotScheduler, SharesSlotsAcrossJobsFairly) {
  // Two identical jobs, machine fits 4 slots (8 GB / 2 GB): both jobs
  // should have tasks running from the start, finishing interleaved.
  Workload w;
  for (int j = 0; j < 2; ++j) {
    JobSpec job;
    StageSpec s;
    for (int i = 0; i < 4; ++i) s.tasks.push_back(cpu_task(1, 2, 10));
    job.stages.push_back(s);
    w.jobs.push_back(job);
  }
  SlotScheduler sched;
  const auto r = sim::simulate(one_machine(), w, sched);
  ASSERT_TRUE(r.completed);
  // First wave (starts at the first pass) must contain tasks of both jobs.
  SimTime first_start = 1e18;
  for (const auto& t : r.tasks) first_start = std::min(first_start, t.start);
  bool job0 = false, job1 = false;
  for (const auto& t : r.tasks) {
    if (t.start <= first_start + 1e-9) {
      (t.job == 0 ? job0 : job1) = true;
    }
  }
  EXPECT_TRUE(job0);
  EXPECT_TRUE(job1);
}

// ---------------------------------------------------------------------------
// DRF scheduler

TEST(DrfScheduler, ChecksCpuAndMemoryOnly) {
  // Disk tasks with tiny cpu/mem: DRF admits everything at once.
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 8; ++i) tasks.push_back(disk_task(500, 100, 0));
  DrfScheduler sched;
  const auto r = sim::simulate(one_machine(), single_stage(tasks), sched);
  ASSERT_TRUE(r.completed);
  SimTime first = 1e18;
  int first_wave = 0;
  for (const auto& t : r.tasks) first = std::min(first, t.start);
  for (const auto& t : r.tasks) {
    if (t.start <= first + 1e-9) first_wave++;
  }
  EXPECT_EQ(first_wave, 8);  // all admitted together despite the disk
}

TEST(DrfScheduler, RespectsCpuCapacity) {
  DrfScheduler sched;
  const auto r = sim::simulate(
      one_machine(),
      single_stage({cpu_task(8, 1, 10), cpu_task(8, 1, 10)}), sched);
  ASSERT_TRUE(r.completed);
  for (const auto& t : r.tasks) {
    EXPECT_NEAR(t.duration(), t.natural_duration, 1e-6);
  }
}

TEST(DrfScheduler, EqualizesDominantShares) {
  // Job 0 is memory-heavy, job 1 cpu-heavy. DRF alternates grants so both
  // make progress from the first wave.
  Workload w;
  {
    JobSpec job;
    StageSpec s;
    for (int i = 0; i < 8; ++i) s.tasks.push_back(cpu_task(0.5, 2, 10));
    job.stages.push_back(s);
    w.jobs.push_back(job);
  }
  {
    JobSpec job;
    StageSpec s;
    for (int i = 0; i < 8; ++i) s.tasks.push_back(cpu_task(2, 0.5, 10));
    job.stages.push_back(s);
    w.jobs.push_back(job);
  }
  DrfScheduler sched;
  const auto r = sim::simulate(one_machine(), w, sched);
  ASSERT_TRUE(r.completed);
  SimTime first = 1e18;
  for (const auto& t : r.tasks) first = std::min(first, t.start);
  int per_job[2] = {0, 0};
  for (const auto& t : r.tasks) {
    if (t.start <= first + 1e-9) per_job[t.job]++;
  }
  EXPECT_GT(per_job[0], 0);
  EXPECT_GT(per_job[1], 0);
}

// Two NIC-filling remote readers: machine 0 stores the data but cannot
// host (no memory), so both tasks run on machine 1 and pull over its NIC.
SimConfig incast_cluster() {
  SimConfig cfg;
  cfg.machine_capacities = {
      Resources::full(8, 0.1 * kGB, 100 * kMB, 100 * kMB, 125 * kMB,
                      250 * kMB),
      Resources::full(8, 8 * kGB, 100 * kMB, 100 * kMB, 125 * kMB,
                      125 * kMB)};
  return cfg;
}

TEST(DrfScheduler, PlainDrfOverAllocatesNetwork) {
  DrfScheduler sched;  // cpu + mem only
  const auto r = sim::simulate(
      incast_cluster(),
      single_stage({disk_task(1250, 100, 0), disk_task(1250, 100, 0)}),
      sched);
  ASSERT_TRUE(r.completed);
  int slowed = 0;
  for (const auto& t : r.tasks) {
    if (t.duration() > t.natural_duration * 1.3) slowed++;
  }
  EXPECT_GE(slowed, 1);  // both admitted together -> incast
}

TEST(DrfScheduler, ExtendedDimsCheckNetwork) {
  DrfSchedulerConfig cfg;
  cfg.dims = {Resource::kCpu, Resource::kMem, Resource::kNetIn};
  DrfScheduler sched(cfg);
  const auto r = sim::simulate(
      incast_cluster(),
      single_stage({disk_task(1250, 100, 0), disk_task(1250, 100, 0)}),
      sched);
  ASSERT_TRUE(r.completed);
  // NIC admission serializes the readers: each runs at its natural speed.
  for (const auto& t : r.tasks) {
    EXPECT_LT(t.duration(), t.natural_duration * 1.1);
  }
}

// ---------------------------------------------------------------------------
// SRTF scheduler

TEST(SrtfScheduler, ShortestJobFinishesFirst) {
  Workload w;
  {
    JobSpec big;
    StageSpec s;
    for (int i = 0; i < 24; ++i) s.tasks.push_back(cpu_task(1, 1, 10));
    big.stages.push_back(s);
    w.jobs.push_back(big);
  }
  {
    JobSpec small;
    StageSpec s;
    for (int i = 0; i < 4; ++i) s.tasks.push_back(cpu_task(1, 1, 10));
    small.stages.push_back(s);
    w.jobs.push_back(small);
  }
  SrtfScheduler sched;
  const auto r = sim::simulate(one_machine(), w, sched);
  ASSERT_TRUE(r.completed);
  EXPECT_LT(r.jobs[1].finish, r.jobs[0].finish);
}

TEST(SrtfScheduler, AvoidsOverAllocation) {
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 8; ++i) tasks.push_back(disk_task(500, 100, 0));
  SrtfScheduler sched;
  const auto r = sim::simulate(one_machine(), single_stage(tasks), sched);
  ASSERT_TRUE(r.completed);
  for (const auto& t : r.tasks) {
    EXPECT_NEAR(t.duration(), t.natural_duration, 1e-6);
  }
}

// ---------------------------------------------------------------------------
// Random scheduler (uniform over the up machines when nothing constrains)

TEST(ConstrainedRandomScheduler, CompletesAndNeverOverAllocates) {
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 12; ++i) tasks.push_back(cpu_task(2, 1, 5));
  for (int i = 0; i < 6; ++i) tasks.push_back(disk_task(300, 100, 0));
  ConstrainedRandomScheduler sched(7);
  SimConfig cfg = one_machine();
  cfg.num_machines = 3;
  const auto r = sim::simulate(cfg, single_stage(tasks), sched);
  ASSERT_TRUE(r.completed);
  for (const auto& t : r.tasks) {
    EXPECT_NEAR(t.duration(), t.natural_duration, 1e-6);
  }
}

// ---------------------------------------------------------------------------
// Upper bound transform

TEST(UpperBound, AggregateWorkloadPreservesTaskCountsAndMeans) {
  Workload w = single_stage({cpu_task(1, 1, 10), cpu_task(3, 3, 10)});
  w.jobs[0].stages[0].tasks[0].output_bytes = 100;
  w.jobs[0].stages[0].tasks[1].output_bytes = 300;
  const Workload agg = aggregate_workload(w);
  ASSERT_EQ(agg.total_tasks(), 2u);
  const auto& t0 = agg.jobs[0].stages[0].tasks[0];
  const auto& t1 = agg.jobs[0].stages[0].tasks[1];
  EXPECT_DOUBLE_EQ(t0.peak_cores, 2);
  EXPECT_DOUBLE_EQ(t0.output_bytes, 200);
  EXPECT_DOUBLE_EQ(t0.peak_cores, t1.peak_cores);
  EXPECT_EQ(validate(agg), "");
}

TEST(UpperBound, AggregateWorkloadLocalizesInput) {
  Workload w = single_stage({disk_task(100, 50, 3)});
  const Workload agg = aggregate_workload(w);
  const auto& task = agg.jobs[0].stages[0].tasks[0];
  ASSERT_EQ(task.inputs.size(), 1u);
  EXPECT_EQ(task.inputs[0].replicas, std::vector<sim::MachineId>{0});
  EXPECT_DOUBLE_EQ(task.inputs[0].bytes, 100 * kMB);
}

TEST(UpperBound, AggregateConfigSumsCapacity) {
  SimConfig cfg = one_machine();
  cfg.num_machines = 5;
  const SimConfig agg = aggregate_config(cfg);
  EXPECT_EQ(agg.resolved_capacities().size(), 1u);
  EXPECT_DOUBLE_EQ(agg.resolved_capacities()[0][Resource::kCpu], 40);
  EXPECT_EQ(agg.tracker, sim::TrackerMode::kAllocation);
}

TEST(UpperBound, PreservesDagShape) {
  Workload w;
  JobSpec job;
  StageSpec map;
  map.tasks = {cpu_task(1, 1, 5)};
  StageSpec red;
  red.deps = {0};
  TaskSpec t = cpu_task(1, 1, 5);
  InputSplit split;
  split.bytes = 100;
  split.from_stage = 0;
  t.inputs.push_back(split);
  red.tasks = {t};
  job.stages = {map, red};
  w.jobs.push_back(job);
  const Workload agg = aggregate_workload(w);
  ASSERT_EQ(agg.jobs[0].stages.size(), 2u);
  EXPECT_EQ(agg.jobs[0].stages[1].deps, std::vector<int>{0});
  EXPECT_EQ(validate(agg), "");
}

}  // namespace
}  // namespace tetris::sched
