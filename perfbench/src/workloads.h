// The benchmark's workloads: how each one generates its inputs from a seed
// and how it drives the simulator over them. perfbench/README.md records
// why each workload was chosen and which layer it stresses.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/src/wrappers.h"
#include "sim/spec.h"
#include "util/perf_counters.h"
#include "workload/stream_gen.h"

namespace perfbench {

// Input size of one instance. Every workload has a default; the tests run
// the same code on smaller clusters.
struct Scale {
  long jobs = 0;
  int machines = 0;
};

// One generated input: a batch workload (sorted by arrival, so job ids are
// positions) or the configuration of an on-demand job stream.
struct Instance {
  std::uint64_t seed = 0;  // seeds the simulator's own random draws
  Scale scale;
  tetris::sim::Workload workload;
  tetris::workload::StreamGenConfig stream;
  long jobs = 0;
  long tasks = 0;
  double gen_s = 0;  // time spent generating jobs while setting up
};

// What one simulation of one instance did, seen from outside.
struct RunOutcome {
  double wall_s = 0;  // host time inside the simulate call
  double gen_s = 0;   // job generation inside the run (streaming)
  double pass_s = 0;  // host time inside schedule(), summed over passes
  long passes = 0;
  long placements = 0;  // placements the simulator counted
  tetris::util::PerfCounters perf;

  // Schedule outcome and its correctness.
  long jobs = 0;           // jobs submitted
  long finished_jobs = 0;  // jobs that finished
  double makespan = 0;
  double jct_sum = 0;      // over finished jobs
  std::uint64_t digest = 0;
  std::vector<std::string> errors;  // empty iff every check passed
};

struct WorkloadDef {
  std::string_view name;
  int instances;  // inputs per run, each from its own sub-seed
  int cycles;     // simulations of every input in an untraced run
  Scale scale;    // default size of each input
  bool wraps_scheduler;  // false: the federation builds its own schedulers
  // Input `index` of a run seeded with `seed`.
  Instance (*make)(std::uint64_t seed, int index, const Scale& scale);
  RunOutcome (*run)(const Instance& instance, const Observer& observer);
  // Non-null: the same run on util::ThreadPool threads, which traced runs
  // also make (its schedule must not differ).
  RunOutcome (*run_pooled)(const Instance& instance, const Observer& observer);
};

const std::vector<WorkloadDef>& all_workloads();
const WorkloadDef* find_workload(std::string_view name);

// A seed for input `index` of a run seeded with `seed`.
std::uint64_t sub_seed(std::uint64_t seed, int index);

}  // namespace perfbench
