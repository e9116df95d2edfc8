// Shared plumbing for the experiment drivers in bench/: standard cluster
// configs, scheduler factories, result capture and CDF printing. Each
// bench binary regenerates one of the paper's tables or figures (see
// DESIGN.md's per-experiment index) and writes machine-readable CSVs under
// bench_results/ alongside the human-readable stdout tables.
#pragma once

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "analysis/export.h"
#include "analysis/metrics.h"
#include "core/naive_tetris_scheduler.h"
#include "core/tetris_scheduler.h"
#include "sched/drf_scheduler.h"
#include "sched/slot_scheduler.h"
#include "sched/srtf_scheduler.h"
#include "sched/upper_bound.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/facebook.h"
#include "workload/profiles.h"
#include "workload/suite.h"

namespace tetris::bench {

// Simulation scale knobs, overridable from the command line as
// "[jobs] [machines] [seed]" so the benches can be re-run bigger.
struct Scale {
  int jobs = 120;
  int machines = 30;
  std::uint64_t seed = 1;

  // A malformed argument — not a decimal integer, or jobs/machines not
  // positive — prints a usage message and exits with status 2.
  static Scale from_args(int argc, char** argv, Scale def) {
    Scale s = def;
    int pos = 0;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      // Leftover flags (e.g. gbench's); "-5" is a negative count, not one.
      if (arg[0] == '-' && !std::isdigit(static_cast<unsigned char>(arg[1])))
        continue;
      switch (pos++) {
        case 0: s.jobs = count_arg(argv[0], "jobs", arg); break;
        case 1: s.machines = count_arg(argv[0], "machines", arg); break;
        case 2:
          s.seed = parse_arg<std::uint64_t>(argv[0], "seed", arg,
                                            "a non-negative integer");
          break;
        default: break;
      }
    }
    return s;
  }
  static Scale from_args(int argc, char** argv) {
    return from_args(argc, argv, Scale{});
  }

 private:
  [[noreturn]] static void usage(const char* prog, const char* what,
                                 const char* arg, const char* expected) {
    std::cerr << "usage: " << prog << " [jobs] [machines] [seed]\n"
              << "  " << what << " must be " << expected << ", got '" << arg
              << "'\n";
    std::exit(2);
  }
  template <typename T>
  static T parse_arg(const char* prog, const char* what, const char* arg,
                     const char* expected) {
    T value{};
    const char* end = arg + std::strlen(arg);
    const auto [ptr, ec] = std::from_chars(arg, end, value);
    if (ec != std::errc() || ptr != end) usage(prog, what, arg, expected);
    return value;
  }
  static int count_arg(const char* prog, const char* what, const char* arg) {
    const int value = parse_arg<int>(prog, what, arg, "a positive integer");
    if (value <= 0) usage(prog, what, arg, "a positive integer");
    return value;
  }
};

// The Facebook-simulation cluster (paper §5.1): every machine 16 cores,
// 32 GB, 4x50 MB/s disks, 1 Gbps.
inline sim::SimConfig facebook_cluster(const Scale& scale) {
  sim::SimConfig cfg;
  cfg.num_machines = scale.machines;
  cfg.machine_capacity = workload::facebook_machine();
  cfg.seed = scale.seed;
  return cfg;
}

// The §5.1 workload suite at a simulation-friendly scale.
inline sim::Workload suite_workload(const Scale& scale,
                                    double arrival_window = 1500,
                                    double task_scale = 0.1) {
  workload::SuiteConfig wcfg;
  wcfg.num_jobs = scale.jobs;
  wcfg.num_machines = scale.machines;
  wcfg.task_scale = task_scale;
  wcfg.arrival_window = arrival_window;
  wcfg.seed = scale.seed;
  return workload::make_suite_workload(wcfg);
}

// The Facebook-like heavy-tailed trace at a simulation-friendly scale.
inline sim::Workload facebook_workload(const Scale& scale,
                                       double arrival_window = 1200,
                                       double task_scale = 1.0) {
  workload::FacebookConfig wcfg;
  wcfg.num_jobs = scale.jobs;
  wcfg.num_machines = scale.machines;
  wcfg.task_scale = task_scale;
  wcfg.arrival_window = arrival_window;
  wcfg.seed = scale.seed;
  return workload::make_facebook_workload(wcfg);
}

// Baseline and Tetris runs share the workload; Tetris additionally runs
// with the usage-based tracker (its §4 resource tracker).
inline sim::SimResult run_baseline(sim::SimConfig cfg, const sim::Workload& w,
                                   sim::Scheduler& s) {
  cfg.tracker = sim::TrackerMode::kAllocation;
  return sim::simulate(cfg, w, s);
}

// `Tetris` picks the scan: the optimized TetrisScheduler or the
// NaiveTetrisScheduler oracle, which place identically.
template <typename Tetris = core::TetrisScheduler>
inline sim::SimResult run_tetris(sim::SimConfig cfg, const sim::Workload& w,
                                 core::TetrisConfig tcfg = {}) {
  cfg.tracker = sim::TrackerMode::kUsage;
  Tetris tetris(std::move(tcfg));
  return sim::simulate(cfg, w, tetris);
}

// The §2.2.3 aggregate upper bound for this config/workload.
inline sim::SimResult run_upper_bound(const sim::SimConfig& cfg,
                                      const sim::Workload& w) {
  core::TetrisConfig tcfg;
  tcfg.name = "upper-bound";
  tcfg.fairness_knob = 0;   // most efficient schedule
  tcfg.barrier_knob = 1.0;  // no machine-level effects to hint around
  core::TetrisScheduler tetris(tcfg);
  return sim::simulate(sched::aggregate_config(cfg),
                       sched::aggregate_workload(w), tetris);
}

// Prints an improvement CDF at the percentiles the paper discusses.
inline void print_improvement_cdf(const std::string& title,
                                  std::vector<double> improvements) {
  Table t({"percentile", "JCT improvement (%)"});
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    t.add_row({format_double(p, 0), format_double(
                                        percentile(improvements, p), 1)});
  }
  std::cout << title << "\n" << t.to_string() << "\n";
}

// CSV dump of a full empirical CDF for plotting.
inline std::string cdf_csv(const std::vector<double>& xs) {
  std::string out = "value,fraction\n";
  for (const auto& p : empirical_cdf(xs)) {
    out += format_double(p.value, 4) + "," + format_double(p.fraction, 6) +
           "\n";
  }
  return out;
}

// The self-describing row tag for the bench_results CSVs: which scheduler
// variant, and whether event tracing was on for the run.
inline analysis::RunTag run_tag(const std::string& scheduler,
                                const sim::SimConfig& cfg) {
  analysis::RunTag tag;
  tag.scheduler = scheduler;
  tag.trace = cfg.trace.enabled;
  return tag;
}

inline void warn_if_incomplete(const sim::SimResult& r) {
  if (!r.completed) {
    std::cerr << "warning: scheduler '" << r.scheduler_name
              << "' did not drain the workload before max_time\n";
  }
}

}  // namespace tetris::bench
