// Golden schedules for the simulator's event core: the rate refresh that
// turns share ratios into task speeds and finish events. The naive/optimized
// equivalence matrices cannot catch a bug here — both sides of those
// matrices run the same refresh — so this oracle is independent: digests
// of placements, finish times and the makespan recorded from the plain
// recompute-every-task refresh, which every later event core must
// reproduce bit for bit.
//
// The cases cover every way a rate changes or a finish event is re-issued:
// equal-time finish ties (stream jobs give a stage's tasks one duration),
// over-allocation and interference under DRF and the slot scheduler, read
// failover under churn (the speed < 0 sentinel), an ingestion activity,
// injected task failures, memory thrashing, and fairness preemption on a
// racked cluster whose uplinks hold many tasks at once.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <string>

#include "core/tetris_scheduler.h"
#include "sched/drf_scheduler.h"
#include "sched/slot_scheduler.h"
#include "sim/simulator.h"
#include "workload/facebook.h"
#include "workload/profiles.h"
#include "workload/stream_gen.h"
#include "workload/suite.h"

namespace tetris {
namespace {

// FNV-1a over raw bytes: doubles enter by bit pattern, so any drift in a
// timestamp, however small, changes the digest.
class Digest {
 public:
  template <typename T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Golden {
  std::uint64_t placements;  // (job, stage, index, host, start, attempts)
  std::uint64_t finishes;    // task finish times, then job finish times
  double makespan;
};

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

void expect_golden(const sim::SimResult& r, const Golden& want) {
  ASSERT_TRUE(r.completed);
  ASSERT_FALSE(r.tasks.empty());
  Digest placements;
  Digest finishes;
  for (const auto& t : r.tasks) {
    placements.add(t.job);
    placements.add(t.stage);
    placements.add(t.index);
    placements.add(t.host);
    placements.add(t.start);
    placements.add(t.attempts);
    finishes.add(t.finish);
  }
  for (const auto& j : r.jobs) finishes.add(j.finish);
  EXPECT_EQ(hex(placements.value()), hex(want.placements));
  EXPECT_EQ(hex(finishes.value()), hex(want.finishes));
  EXPECT_EQ(r.makespan, want.makespan)
      << "makespan " << std::hexfloat << r.makespan;
}

long attempts(const sim::SimResult& r) {
  long n = 0;
  for (const auto& t : r.tasks) n += t.attempts;
  return n;
}

sim::SimConfig cluster(int machines) {
  sim::SimConfig cfg;
  cfg.num_machines = machines;
  cfg.machine_capacity = workload::facebook_machine();
  return cfg;
}

sim::Workload facebook(int jobs, int machines, std::uint64_t seed) {
  workload::FacebookConfig cfg;
  cfg.num_jobs = jobs;
  cfg.num_machines = machines;
  cfg.task_scale = 0.3;
  cfg.arrival_window = 250;
  cfg.seed = seed;
  return workload::make_facebook_workload(cfg);
}

sim::Workload suite(int jobs, int machines, std::uint64_t seed) {
  workload::SuiteConfig cfg;
  cfg.num_jobs = jobs;
  cfg.num_machines = machines;
  cfg.task_scale = 0.04;
  cfg.arrival_window = 250;
  cfg.seed = seed;
  return workload::make_suite_workload(cfg);
}

TEST(EventCoreGolden, TetrisStreamWithEqualTimeFinishes) {
  workload::StreamGenConfig gen;
  gen.num_jobs = 60;
  gen.tasks_per_job = 30;
  gen.num_machines = 8;
  gen.arrival_spacing = 3.0;
  gen.seed = 5;
  workload::SyntheticJobSource source(gen);
  sim::SimConfig cfg = cluster(8);
  cfg.tracker = sim::TrackerMode::kUsage;
  core::TetrisScheduler sched;
  const sim::SimResult r = sim::simulate_stream(cfg, source, sched);
  // Ties take the order-exact fallback; no share ever moves under Tetris,
  // so each attempt's speed is computed exactly once.
  EXPECT_GT(r.perf.tie_fallback_refreshes, 0);
  EXPECT_LT(r.perf.tie_fallback_refreshes, r.perf.rate_refreshes);
  EXPECT_EQ(r.perf.share_change_refreshes, 0);
  EXPECT_EQ(r.perf.speed_recomputes, attempts(r));
  expect_golden(r, {0x61ebf85dba75cbfdULL, 0xb3bb26871fedc50aULL,
                    0x1.ee3aec7b14bd6p+7});
}

TEST(EventCoreGolden, TetrisChurnRecomputesOnlyNewPredictions) {
  // Tetris never over-allocates, so no share ratio moves (no rack
  // uplinks here, no activities): the only speeds worth computing are
  // each attempt's first prediction and each read failover's re-issue.
  const sim::Workload w = facebook(30, 10, 4);
  sim::SimConfig cfg = cluster(10);
  cfg.churn.scripted = {{2, 20.0, 80.0}, {7, 50.0, 140.0}, {2, 200.0, 260.0}};
  cfg.churn.mttf = 600;
  cfg.churn.mttr = 60;
  core::TetrisScheduler sched;
  const sim::SimResult r = sim::simulate(cfg, w, sched);
  EXPECT_GT(r.churn.read_failovers, 0);
  EXPECT_EQ(r.perf.share_change_refreshes, 0);
  EXPECT_EQ(r.perf.speed_recomputes, attempts(r) + r.churn.read_failovers);
  expect_golden(r, {0xd52031349473a0baULL, 0x25299c4139e092a4ULL,
                    0x1.4f16475b7a703p+13});
}

TEST(EventCoreGolden, DrfOverAllocatesDiskAndNetwork) {
  const sim::Workload w = facebook(30, 10, 11);
  sched::DrfScheduler sched;
  const sim::SimResult r = sim::simulate(cluster(10), w, sched);
  EXPECT_GT(r.perf.share_change_refreshes, 0);
  EXPECT_GT(r.perf.speed_recomputes, attempts(r));
  expect_golden(r, {0xf95249743db4b1aeULL, 0x87d46a3d81c8308cULL,
                    0x1.0f08c48ed3171p+9});
}

TEST(EventCoreGolden, SlotSchedulerOverAllocates) {
  const sim::Workload w = suite(24, 10, 3);
  sched::SlotScheduler sched;
  const sim::SimResult r = sim::simulate(cluster(10), w, sched);
  EXPECT_GT(r.perf.share_change_refreshes, 0);
  EXPECT_GT(r.perf.speed_recomputes, attempts(r));
  expect_golden(r, {0xb53a9be6cb6a43eeULL, 0xf5e90bd7c0324a6fULL,
                    0x1.8f47c3408536fp+8});
}

TEST(EventCoreGolden, ChurnWithReadFailover) {
  const sim::Workload w = facebook(30, 10, 4);
  sim::SimConfig cfg = cluster(10);
  cfg.churn.scripted = {{2, 20.0, 80.0}, {7, 50.0, 140.0}, {2, 200.0, 260.0}};
  cfg.churn.mttf = 600;
  cfg.churn.mttr = 60;
  sched::DrfScheduler sched;
  const sim::SimResult r = sim::simulate(cfg, w, sched);
  EXPECT_GT(r.churn.read_failovers, 0);
  expect_golden(r, {0xe93358c0243996e8ULL, 0xe5f10a2ea4f4fb01ULL,
                    0x1.4f16475b7a703p+13});
}

TEST(EventCoreGolden, IngestionActivitySlowsTasks) {
  const sim::Workload w = facebook(24, 6, 9);
  sim::SimConfig cfg = cluster(6);
  for (int m = 0; m < 3; ++m) {
    sim::BackgroundActivity act;
    act.machine = m;
    act.start = 10.0 + 15.0 * m;
    act.end = 120.0 + 15.0 * m;
    act.usage[Resource::kDiskWrite] = 150 * kMB;
    act.usage[Resource::kNetIn] = 0.6 * kGbps;
    cfg.activities.push_back(act);
  }
  core::TetrisScheduler sched;
  const sim::SimResult r = sim::simulate(cfg, w, sched);
  EXPECT_GT(r.perf.share_change_refreshes, 0);
  expect_golden(r, {0xfe5a947cd4cacd8aULL, 0x79e1ce3e62bfb69bULL,
                    0x1.b199e15d8c251p+8});
}

TEST(EventCoreGolden, TaskFailuresRequeue) {
  const sim::Workload w = facebook(30, 10, 6);
  sim::SimConfig cfg = cluster(10);
  cfg.task_failure_prob = 0.15;
  core::TetrisScheduler sched;
  const sim::SimResult r = sim::simulate(cfg, w, sched);
  long retries = 0;
  for (const auto& t : r.tasks) retries += t.attempts - 1;
  EXPECT_GT(retries, 0);
  expect_golden(r, {0xa6ac1669128281e0ULL, 0xab07ac4756935c22ULL,
                    0x1.04fd1e9e85e2ep+9});
}

TEST(EventCoreGolden, MemoryThrashing) {
  // A background activity holds 24 GB of each 32 GB machine; the
  // allocation-view tracker is blind to it, so Tetris packs 4 GB tasks
  // as if the memory were free and the machines thrash. The tasks read no
  // input and use a quarter core, so memory is the only over-committed
  // resource.
  sim::Workload w;
  for (int j = 0; j < 4; ++j) {
    sim::JobSpec job;
    job.arrival = 5.0 * j;
    sim::StageSpec stage;
    stage.name = "s";
    for (int i = 0; i < 12; ++i) {
      sim::TaskSpec t;
      t.peak_cores = 0.25;
      t.peak_mem = 4 * kGB;
      t.cpu_cycles = 0.25 * (20.0 + i % 7);
      stage.tasks.push_back(t);
    }
    job.stages.push_back(stage);
    w.jobs.push_back(job);
  }
  sim::SimConfig cfg = cluster(3);
  for (int m = 0; m < 3; ++m) {
    sim::BackgroundActivity act;
    act.machine = m;
    act.start = 2.0 * m;
    act.end = 60.0 + 10.0 * m;
    act.usage[Resource::kMem] = 24 * kGB;
    cfg.activities.push_back(act);
  }
  core::TetrisScheduler sched;
  const sim::SimResult r = sim::simulate(cfg, w, sched);
  bool thrashed = false;
  for (const auto& t : r.tasks) {
    if (t.duration() > t.natural_duration * 1.5) thrashed = true;
  }
  EXPECT_TRUE(thrashed);
  EXPECT_GT(r.perf.share_change_refreshes, 0);
  expect_golden(r, {0xf1362dd6362c2565ULL, 0x592bbbe2627eb4edULL,
                    0x1.bc00000179f5p+6});
}

TEST(EventCoreGolden, PreemptionAndRackUplinks) {
  // Two racks of five: every cross-rack read also holds a leg on each
  // rack's uplink, so the uplinks carry the most tasks of any machine.
  // Fairness preemption kills running attempts mid-pass, and scripted
  // failures kill hosted attempts, fail remote reads over and shrink the
  // uplinks under their running flows.
  workload::FacebookConfig wcfg;
  wcfg.num_jobs = 12;
  wcfg.num_machines = 10;
  wcfg.arrival_window = 100;
  wcfg.seed = 3;
  const sim::Workload w = workload::make_facebook_workload(wcfg);
  sim::SimConfig cfg = cluster(10);
  cfg.machines_per_rack = 5;
  cfg.churn.scripted = {{3, 30.0, 90.0}, {8, 60.0, 150.0}};
  core::TetrisConfig tcfg;
  tcfg.preempt_for_fairness = true;
  tcfg.preemption_deficit = 0.1;
  core::TetrisScheduler sched(tcfg);
  const sim::SimResult r = sim::simulate(cfg, w, sched);
  EXPECT_GT(sched.stats().preemptions, 0);
  EXPECT_GT(r.churn.task_attempts_lost, 0);
  EXPECT_GT(r.churn.read_failovers, 0);
  EXPECT_GT(r.perf.share_change_refreshes, 0);
  expect_golden(r, {0x92c530b1813d2fddULL, 0x0aa225f4437d0569ULL,
                    0x1.4b7747959114ap+8});
}

}  // namespace
}  // namespace tetris
