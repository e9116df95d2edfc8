#include "perfbench/src/workloads.h"

#include <string>

#include "core/tetris_scheduler.h"
#include "federation/federated_simulator.h"
#include "perfbench/src/checks.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/facebook.h"
#include "workload/profiles.h"

namespace perfbench {

namespace sim = tetris::sim;
namespace wl = tetris::workload;

namespace {

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// The Facebook-simulation cluster of the paper's §5.1 (16 cores, 32 GB,
// 4x50 MB/s disks, 1 Gbps per machine), as bench/harness.h builds it.
sim::SimConfig facebook_cluster(int machines, std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.num_machines = machines;
  cfg.machine_capacity = wl::facebook_machine();
  cfg.seed = seed;
  return cfg;
}

// Largest shift of a job's arrival, in seconds, that the seed draws. The
// Facebook trace's heavy tail makes makespan and throughput swing by
// 15-30% between independently drawn traces, which would drown any
// regression bound; a fixed trace with seed-drawn arrival jitter gives
// every seed a different schedule over the same jobs.
constexpr double kArrivalJitter = 15.0;

Instance make_fed(std::uint64_t seed, int index, const Scale& scale) {
  Instance inst;
  inst.seed = sub_seed(seed, index);
  inst.scale = scale;
  wl::FacebookConfig wcfg;
  wcfg.num_jobs = static_cast<int>(scale.jobs);
  wcfg.num_machines = scale.machines;
  // bench_federation's arrival density (600 s for 800 jobs): dense enough
  // that every cell works.
  wcfg.arrival_window = 0.75 * static_cast<double>(scale.jobs);
  wcfg.seed = static_cast<std::uint64_t>(index) + 1;  // the fixed trace
  const std::int64_t t0 = now_ns();
  sim::Workload generated = wl::make_facebook_workload(wcfg);
  inst.gen_s = seconds_since(t0);
  tetris::Rng jitter(inst.seed);
  for (auto& job : generated.jobs) {
    const double shifted =
        job.arrival + jitter.uniform(-kArrivalJitter, kArrivalJitter);
    job.arrival = shifted > 0 ? shifted : 0;
  }
  inst.workload = sim::sorted_by_arrival(generated);
  inst.jobs = static_cast<long>(inst.workload.jobs.size());
  inst.tasks = static_cast<long>(inst.workload.total_tasks());
  return inst;
}

// Checks a federated run's global schedule and fills the outcome.
void judge_batch(const Instance& inst,
                 const std::vector<sim::TaskRecord>& tasks,
                 const std::vector<sim::JobRecord>& jobs, double makespan,
                 RunOutcome& out) {
  out.jobs = inst.jobs;
  out.makespan = makespan;
  for (const auto& j : jobs) {
    if (j.finish < 0) continue;
    ++out.finished_jobs;
    out.jct_sum += j.completion_time();
  }
  out.digest = schedule_digest(tasks);
  auto errors = check_schedule(inst.workload, tasks, jobs, makespan,
                               inst.scale.machines);
  out.errors.insert(out.errors.end(), errors.begin(), errors.end());
  if (out.placements != inst.tasks) {
    out.errors.push_back("placed " + std::to_string(out.placements) +
                         " tasks of " + std::to_string(inst.tasks));
  }
}

// Offered load of the stream, as a share of cluster cores: a stream job
// carries ~1300 core-seconds (bench_streaming's calibration), so this
// keeps the resident window flat.
constexpr double kStreamLoad = 0.65;

Instance make_stream(std::uint64_t seed, int index, const Scale& scale) {
  // Stream jobs vary mildly by construction, so every seed draws its own.
  Instance inst;
  inst.seed = sub_seed(seed, index);
  inst.scale = scale;
  inst.stream.num_jobs = scale.jobs;
  inst.stream.num_machines = scale.machines;
  inst.stream.seed = inst.seed;
  inst.stream.arrival_spacing = 1300.0 / (kStreamLoad * 16.0 * scale.machines);
  const std::int64_t t0 = now_ns();
  inst.tasks = wl::stream_total_tasks(inst.stream);
  inst.gen_s = seconds_since(t0);
  inst.jobs = scale.jobs;
  return inst;
}

RunOutcome run_stream(const Instance& inst, const Observer& observer) {
  sim::SimConfig cfg = facebook_cluster(inst.scale.machines, inst.seed);
  cfg.tracker = sim::TrackerMode::kUsage;
  cfg.stream.enabled = true;
  cfg.stream.max_resident_jobs = 1024;
  cfg.stream.max_resident_tasks = 1 << 20;
  // Task records would grow with the stream; job records are ~100 bytes
  // each and carry the completion times avg JCT needs.
  cfg.collect_task_records = false;
  cfg.max_time = 1e9;
  tetris::core::TetrisScheduler tetris;
  wl::SyntheticJobSource source(inst.stream);
  TimedJobSource timed_source(source);

  RunOutcome out;
  const std::int64_t t0 = now_ns();
  TimedScheduler timed(tetris, observer, t0);
  sim::SimResult r = sim::simulate_stream(cfg, timed_source, timed);
  const std::int64_t t1 = now_ns();
  timed.finish(t1);
  out.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  out.gen_s = static_cast<double>(timed_source.totals().ns) * 1e-9;
  out.pass_s = static_cast<double>(timed.pass_ns()) * 1e-9;
  out.passes = r.scheduler_cost.invocations;
  out.placements = r.scheduler_cost.placements;
  out.perf = r.perf;

  out.jobs = inst.jobs;
  out.makespan = r.makespan;
  for (const auto& j : r.jobs) {
    if (j.finish < 0) continue;
    ++out.finished_jobs;
    out.jct_sum += j.completion_time();
  }
  out.digest = jobs_digest(r.jobs, r.makespan);
  auto expect = [&out](bool ok, const std::string& what) {
    if (!ok) out.errors.push_back(what);
  };
  expect(r.completed, "stream did not drain before max_time");
  expect(static_cast<long>(r.jobs.size()) == inst.jobs,
         std::to_string(r.jobs.size()) + " job records for " +
             std::to_string(inst.jobs) + " jobs");
  expect(out.finished_jobs == inst.jobs,
         std::to_string(inst.jobs - out.finished_jobs) + " jobs unfinished");
  expect(out.placements == inst.tasks,
         "placed " + std::to_string(out.placements) + " tasks of " +
             std::to_string(inst.tasks));
  expect(r.perf.jobs_admitted == inst.jobs && r.perf.jobs_retired == inst.jobs,
         "admitted/retired counts differ from the stream's job count");
  expect(r.perf.stream_deferrals == 0,
         "admission deferred; the stream no longer matches its input");
  return out;
}

constexpr int kFedCells = 16;

// The federated run on `cell_threads` threads (serial below 2).
RunOutcome run_fed_on(const Instance& inst, const Observer& observer,
                      int cell_threads) {
  tetris::federation::FederationConfig fc;
  fc.base = facebook_cluster(inst.scale.machines, inst.seed);
  fc.base.tracker = sim::TrackerMode::kUsage;
  fc.base.machines_per_rack = inst.scale.machines / kFedCells;
  // The federation builds each cell's scheduler itself, so passes are timed
  // by the simulator (around the same schedule() call) instead.
  fc.base.collect_pass_samples = true;
  const int cell_size = inst.scale.machines / kFedCells;
  for (int c = 0; c < kFedCells; ++c)
    fc.base.cells.push_back({c * cell_size, (c + 1) * cell_size});
  fc.policy = tetris::federation::DispatchPolicy::kLeastLoaded;
  fc.cell_threads = cell_threads;

  // On pool threads the calling thread's CPU time misses the cells' work,
  // so a pooled run is timed by the wall clock.
  const auto clock = cell_threads > 1 ? &wall_ns : &now_ns;
  RunOutcome out;
  const std::int64_t t0 = clock();
  tetris::federation::FederatedResult r =
      tetris::federation::simulate_federated(fc, inst.workload);
  const std::int64_t t1 = clock();
  out.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  // The simulator times the passes, so there are no stretches between
  // them: the whole run is one stretch, and the passes are listed cell by
  // cell.
  observer.stretch_ns->add(t1 - t0);
  for (const auto& cell : r.cells) {
    for (const auto& p : cell.pass_samples)
      observer.pass_ns->add(static_cast<std::int64_t>(p.seconds * 1e9));
    out.passes += cell.scheduler_cost.invocations;
    out.placements += cell.scheduler_cost.placements;
    out.pass_s += cell.scheduler_cost.total_seconds;
  }
  out.perf = r.perf;
  judge_batch(inst, r.tasks, r.job_records, r.makespan, out);
  if (!r.completed || r.lost_jobs != 0 || r.unfinished_jobs != 0)
    out.errors.push_back("federated run left jobs unfinished or lost");
  return out;
}

// Timed runs are serial: with cells on pool threads, a run's wall clock
// waits on every thread's wake-up, and on a shared host that doubled
// whole runs during spells of steal time.
RunOutcome run_fed(const Instance& inst, const Observer& observer) {
  return run_fed_on(inst, observer, 1);
}

// The same run with cells on two util::ThreadPool threads, for the traced
// run's federation.pool_* figures.
RunOutcome run_fed_pooled(const Instance& inst, const Observer& observer) {
  return run_fed_on(inst, observer, 2);
}

}  // namespace

std::uint64_t sub_seed(std::uint64_t seed, int index) {
  // splitmix64 of (seed, index): distinct seeds give disjoint input sets.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL +
                    static_cast<std::uint64_t>(index) + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) & 0x7fffffffffffULL;
}

const std::vector<WorkloadDef>& all_workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"stream_tetris", 1, 24, {500, 20}, true, &make_stream, &run_stream,
       nullptr},
      {"fed16_tetris", 8, 24, {200, 64}, false, &make_fed, &run_fed,
       &run_fed_pooled},
  };
  return defs;
}

const WorkloadDef* find_workload(std::string_view name) {
  for (const auto& def : all_workloads()) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

}  // namespace perfbench
