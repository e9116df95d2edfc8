// The benchmark's own tests: its timing wrappers must change nothing the
// program decides, its correctness gate must catch a broken schedule, and
// its yardstick must give a usable scale.
//
//   cmake --build <build dir> --target perfbench_tests && <build dir>/perfbench_tests
#include <gtest/gtest.h>

#include <cmath>

#include "perfbench/src/checks.h"
#include "perfbench/src/workloads.h"
#include "perfbench/src/yardstick.h"
#include "sched/drf_scheduler.h"
#include "sim/simulator.h"

namespace perfbench {
namespace {

namespace sim = tetris::sim;

// A context whose every answer is a sentinel, to prove which inner call
// each TimedContext call reaches.
class StubContext final : public sim::SchedulerContext {
 public:
  tetris::SimTime now() const override { return 7; }
  int num_machines() const override { return 3; }
  const tetris::Resources& capacity(sim::MachineId) const override {
    return res_;
  }
  const tetris::Resources& cluster_capacity() const override { return res_; }
  tetris::Resources available(sim::MachineId) const override { return res_; }
  int running_tasks_on(sim::MachineId) const override { return 0; }
  const tetris::util::ResourcePlanes* availability_planes() const override {
    return &avail_;
  }
  const tetris::util::ResourcePlanes* capacity_planes() const override {
    return &cap_;
  }
  std::vector<sim::GroupView> runnable_groups() const override { return {}; }
  std::vector<sim::JobView> active_jobs() const override { return {}; }
  std::vector<sim::GroupView> imminent_groups() const override { return {}; }
  sim::Probe probe(const sim::GroupRef&, sim::MachineId) const override {
    ++by_value_probes;
    return {};
  }
  void probe_into(const sim::GroupRef&, sim::MachineId m,
                  sim::Probe* out) const override {
    ++in_place_probes;
    out->machine = m;
  }
  bool place(const sim::Probe&) override { return true; }
  std::vector<sim::RunningTaskView> running_tasks() const override {
    return {};
  }
  bool preempt(int) override { return false; }
  std::vector<sim::TaskReport> take_reports() override { return {}; }
  tetris::util::PerfCounters* perf_counters() override { return &perf_; }

  mutable int by_value_probes = 0;
  mutable int in_place_probes = 0;

 private:
  tetris::Resources res_;
  tetris::util::ResourcePlanes avail_;
  tetris::util::ResourcePlanes cap_;
  tetris::util::PerfCounters perf_;
};

TEST(TimedContext, ForwardsThePathsTheSimdScanNeeds) {
  StubContext inner;
  TimedContext timed(inner);
  EXPECT_EQ(timed.availability_planes(), inner.availability_planes());
  EXPECT_EQ(timed.capacity_planes(), inner.capacity_planes());
  EXPECT_EQ(timed.perf_counters(), inner.perf_counters());

  sim::Probe out;
  timed.probe_into({1, 0}, 2, &out);
  EXPECT_EQ(inner.in_place_probes, 1);
  EXPECT_EQ(inner.by_value_probes, 0);
  EXPECT_EQ(out.machine, 2);

  timed.place(out);
  timed.runnable_groups();
  timed.take_reports();
  EXPECT_EQ(timed.totals().probe.calls, 1);
  EXPECT_EQ(timed.totals().place.calls, 1);
  EXPECT_EQ(timed.totals().placements, 1);
  EXPECT_EQ(timed.totals().view.calls, 2);
}

// Runs `name` on a small input with and without the context wrapper.
struct Pair {
  RunOutcome plain, wrapped;
  std::vector<PassRecord> passes;
};

// One simulation, its pass and stretch series checked for shape.
RunOutcome run_once(const WorkloadDef& def, const Instance& inst,
                    std::vector<PassRecord>* detail) {
  MinSeries passes, stretches;
  passes.start();
  stretches.start();
  RunOutcome out = def.run(inst, Observer{&passes, &stretches, detail});
  EXPECT_TRUE(passes.finish() && stretches.finish());
  EXPECT_EQ(static_cast<long>(passes.values().size()), out.passes);
  if (def.wraps_scheduler) {
    // Stretches tile the wall clock: one before each pass, one after.
    EXPECT_EQ(stretches.values().size(), passes.values().size() + 1);
    EXPECT_NEAR(static_cast<double>(stretches.sum()) * 1e-9, out.wall_s,
                1e-6);
  }
  return out;
}

Pair run_pair(std::string_view name, const Scale& scale) {
  const WorkloadDef& def = *find_workload(name);
  const Instance inst = def.make(3, 0, scale);
  Pair out;
  out.plain = run_once(def, inst, nullptr);
  out.wrapped = run_once(def, inst, &out.passes);
  return out;
}

void expect_same_run(const Pair& p) {
  EXPECT_TRUE(p.plain.errors.empty()) << p.plain.errors.front();
  EXPECT_TRUE(p.wrapped.errors.empty()) << p.wrapped.errors.front();
  EXPECT_EQ(p.plain.digest, p.wrapped.digest);
  EXPECT_EQ(p.plain.makespan, p.wrapped.makespan);
  EXPECT_EQ(p.plain.jct_sum, p.wrapped.jct_sum);
  EXPECT_EQ(p.plain.passes, p.wrapped.passes);
  EXPECT_EQ(p.plain.perf.simd_blocks, p.wrapped.perf.simd_blocks);
  EXPECT_EQ(p.plain.perf.score_evals, p.wrapped.perf.score_evals);
  EXPECT_EQ(p.plain.perf.probes_issued, p.wrapped.perf.probes_issued);
  EXPECT_EQ(p.plain.perf.probe_cache_hits, p.wrapped.perf.probe_cache_hits);
  ASSERT_EQ(static_cast<long>(p.passes.size()), p.wrapped.passes);
  ContextTotals ctx;
  for (const auto& pass : p.passes) ctx += pass.ctx;
  EXPECT_EQ(ctx.placements, p.wrapped.placements);
}

TEST(Wrappers, StreamScheduleUnchangedAndSimdStillUsed) {
  const Pair p = run_pair("stream_tetris", {80, 20});
  expect_same_run(p);
  EXPECT_GT(p.wrapped.perf.simd_blocks, 0);
  EXPECT_GT(p.wrapped.gen_s, 0);
  ContextTotals ctx;
  for (const auto& pass : p.passes) ctx += pass.ctx;
  EXPECT_GT(ctx.probe.calls, 0);
}

// DRF probes through the by-value probe(), which the stream's Tetris scan
// never calls.
TEST(Wrappers, DrfScheduleUnchanged) {
  const Instance inst = find_workload("fed16_tetris")->make(3, 0, {40, 12});
  sim::SimConfig cfg;
  cfg.num_machines = 12;
  auto run = [&](bool wrap, std::vector<PassRecord>* detail) {
    tetris::sched::DrfScheduler drf;
    MinSeries passes, stretches;
    TimedScheduler timed(drf, Observer{&passes, &stretches, detail}, now_ns());
    return wrap ? sim::simulate(cfg, inst.workload, timed)
                : sim::simulate(cfg, inst.workload, drf);
  };
  std::vector<PassRecord> detail;
  const sim::SimResult plain = run(false, nullptr);
  const sim::SimResult wrapped = run(true, &detail);
  EXPECT_EQ(schedule_digest(plain.tasks), schedule_digest(wrapped.tasks));
  EXPECT_EQ(plain.scheduler_cost.invocations,
            wrapped.scheduler_cost.invocations);
  EXPECT_EQ(plain.perf.probe_cache_misses, wrapped.perf.probe_cache_misses);
  ContextTotals ctx;
  for (const auto& pass : detail) ctx += pass.ctx;
  EXPECT_GT(ctx.probe.calls, 0);
  EXPECT_EQ(ctx.placements, wrapped.scheduler_cost.placements);
}

TEST(Wrappers, FederatedRunChecksOut) {
  const WorkloadDef& def = *find_workload("fed16_tetris");
  const Instance inst = def.make(3, 0, {120, 32});
  const RunOutcome a = run_once(def, inst, nullptr);
  const RunOutcome b = run_once(def, inst, nullptr);
  EXPECT_TRUE(a.errors.empty()) << a.errors.front();
  EXPECT_EQ(a.digest, b.digest);
}

TEST(MinSeries, KeepsEachElementsMinimumAndFlagsChangedLengths) {
  MinSeries s;
  s.start();
  for (std::int64_t v : {5, 9, 7}) s.add(v);
  EXPECT_TRUE(s.finish());
  s.start();
  for (std::int64_t v : {6, 3, 8}) s.add(v);
  EXPECT_TRUE(s.finish());
  EXPECT_EQ(s.values(), (std::vector<std::int64_t>{5, 3, 7}));
  EXPECT_EQ(s.sum(), 15);
  s.start();
  s.add(1);
  EXPECT_FALSE(s.finish());
}

TEST(Checks, DigestSeesEveryField) {
  std::vector<sim::TaskRecord> tasks(2);
  tasks[0] = {0, 0, 0, 1, 0.0, 2.0};
  tasks[1] = {0, 1, 0, 2, 2.0, 3.0};
  const auto base = schedule_digest(tasks);
  std::vector<sim::TaskRecord> reordered = {tasks[1], tasks[0]};
  EXPECT_EQ(schedule_digest(reordered), base);
  auto moved = tasks;
  moved[1].host = 3;
  EXPECT_NE(schedule_digest(moved), base);
  auto later = tasks;
  later[1].finish = std::nextafter(3.0, 4.0);
  EXPECT_NE(schedule_digest(later), base);
}

TEST(Checks, CatchesBrokenSchedules) {
  const Instance inst = find_workload("fed16_tetris")->make(5, 0, {30, 10});
  sim::SimConfig cfg;
  cfg.num_machines = 10;
  tetris::sched::DrfScheduler drf;
  const sim::SimResult r = sim::simulate(cfg, inst.workload, drf);
  ASSERT_TRUE(check_schedule(inst.workload, r.tasks, r.jobs, r.makespan, 10)
                  .empty());

  auto missing = r.tasks;
  missing.pop_back();
  EXPECT_FALSE(
      check_schedule(inst.workload, missing, r.jobs, r.makespan, 10).empty());

  auto off_cluster = r.tasks;
  off_cluster[0].host = 10;
  EXPECT_FALSE(check_schedule(inst.workload, off_cluster, r.jobs, r.makespan,
                              10)
                   .empty());

  // A task of a dependent stage that starts before its barrier broke.
  auto early = r.tasks;
  bool moved = false;
  for (auto& t : early) {
    const auto& stage = inst.workload.jobs[t.job].stages[t.stage];
    if (!stage.deps.empty()) {
      t.start = inst.workload.jobs[t.job].arrival;
      t.natural_duration = 0;
      moved = true;
      break;
    }
  }
  ASSERT_TRUE(moved);
  EXPECT_FALSE(
      check_schedule(inst.workload, early, r.jobs, r.makespan, 10).empty());

  EXPECT_FALSE(check_schedule(inst.workload, r.tasks, r.jobs,
                              r.makespan + 1, 10)
                   .empty());
}

// Host times are scaled by the nominal over the best yardstick time, which
// only falls as measurements are added.
TEST(Yardstick, ScaleIsNominalOverBestTime) {
  Yardstick y;
  EXPECT_EQ(y.scale(), 0);
  const double loop = y.measure();
  const double first = y.best_seconds();
  EXPECT_GE(loop, first);
  y.measure();
  EXPECT_GT(y.best_seconds(), 0);
  EXPECT_LE(y.best_seconds(), first);
  EXPECT_DOUBLE_EQ(y.scale(), Yardstick::kNominalSeconds / y.best_seconds());
}

}  // namespace
}  // namespace perfbench
