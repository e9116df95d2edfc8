// perfbench: runs one workload of the repository benchmark for a fixed
// time and prints its figures as one JSON line. perfbench/run.py builds
// and drives it; BENCHMARK.json names the metrics, units and bounds, and
// perfbench/README.md explains what each one measures.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//
// A run sets its inputs up several times (set-up time is a metric), then
// simulates every input a fixed number of times per workload; --seconds
// only caps the run. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it alternates traced and untraced simulations (half as many of
// each) and reports the per-layer split plus the tracing overhead, writing
// its spans to FILE. Every simulation's schedule is checked; exit status 1
// means a check failed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/score_kernel.h"
#include "perfbench/src/best_times.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/workloads.h"
#include "perfbench/src/yardstick.h"

namespace {

using namespace perfbench;

constexpr const char* kUsage =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
    "[--spans FILE]\n";

// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 15;
// Untimed set-up work before the first timed one. A freshly started
// process on the host this was tuned on ran a fixed loop up to 1.6x slower
// during its first second than later on.
constexpr double kWarmupSeconds = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = 0;
  std::string spans;
};

// perfbench/run.py validates the arguments (ranges, workload names) and is
// the binary's only caller, so this only converts them.
Args parse_args(int argc, char** argv) {
  Args a;
  if (argc % 2 == 0) throw std::invalid_argument("arguments come in pairs");
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stoi(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--spans") {
      a.spans = value;
    } else {
      throw std::invalid_argument("unknown argument " + flag);
    }
  }
  if (find_workload(a.workload) == nullptr)
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  return a;
}

// Timing figures from an unoptimized or instrumented build describe the
// instrumentation, not the program.
const char* unfit_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type == "Asan" || type == "Ubsan" || type == "Tsan")
    return "sanitizer build";
#ifndef __OPTIMIZE__
  return "unoptimized build";
#else
  return nullptr;
#endif
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// Nearest-rank quantile of sorted values; 0 when empty.
double quantile(const std::vector<std::int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return static_cast<double>(sorted[rank - 1]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The kernel's high-water mark of this process image's resident memory.
// getrusage()'s ru_maxrss is only the fallback: Linux carries it across
// exec(), so a child started by a larger parent (python3 run.py) reports
// the parent's size.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  }
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

// One simulation, with the context-call totals of a traced one.
struct Sample {
  RunOutcome outcome;
  ContextTotals ctx;
  double yardstick_s = 0;  // the yardstick loop timed just before it
};

// Nominal seconds of one simulation of each input, summed: per input, the
// median over its simulations of the simulation's time over the yardstick
// loop timed just before it. Used where only whole simulations can be
// timed: each is normalized by the host's speed at that moment, which
// swings from one simulation to the next.
double local_nominal_seconds(const std::vector<std::vector<Sample>>& runs) {
  double total = 0;
  for (const auto& input : runs) {
    std::vector<double> ratios;
    for (const auto& s : input)
      ratios.push_back(s.outcome.wall_s / s.yardstick_s);
    total += median(ratios) * Yardstick::kNominalSeconds;
  }
  return total;
}

// Per-layer figures of one traced simulation.
struct Layers {
  double run_s = 0, pass_s = 0, sched_self_s = 0, gen_s = 0, sim_self_s = 0;
  double probe_s = 0, place_s = 0, view_s = 0;
  double cell_advance_s = 0;
  long passes = 0, placements = 0;
  long probe_calls = 0, place_calls = 0, view_calls = 0;
  tetris::util::PerfCounters perf;

  void add(const Sample& s) {
    const RunOutcome& o = s.outcome;
    run_s += o.wall_s;
    pass_s += o.pass_s;
    gen_s += o.gen_s;
    const double ctx_s = static_cast<double>(s.ctx.timed_ns()) * 1e-9;
    sched_self_s += o.pass_s - ctx_s;
    sim_self_s += o.wall_s - o.pass_s - o.gen_s;
    probe_s += static_cast<double>(s.ctx.probe.ns) * 1e-9;
    place_s += static_cast<double>(s.ctx.place.ns) * 1e-9;
    view_s += static_cast<double>(s.ctx.view.ns) * 1e-9;
    probe_calls += s.ctx.probe.calls;
    place_calls += s.ctx.place.calls;
    view_calls += s.ctx.view.calls;
    cell_advance_s += static_cast<double>(o.perf.cell_advance_nanos) * 1e-9;
    passes += o.passes;
    placements += o.placements;
    perf += o.perf;
  }

  void scale_times(double h) {
    for (double* t : {&run_s, &pass_s, &sched_self_s, &gen_s, &sim_self_s,
                      &probe_s, &place_s, &view_s, &cell_advance_s})
      *t *= h;
  }
};

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back("\"" + name + "\": {\"value\": " + json_number(value) +
                       ", \"unit\": \"" + unit + "\"}");
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i)
      out += (i ? ", " : "") + entries_[i];
    return out + "}";
  }

 private:
  std::vector<std::string> entries_;
};

// Records a traced simulation's passes (with their context calls as
// aggregate children) under `parent`.
void add_pass_spans(SpanLog& log, int parent,
                    const std::vector<PassRecord>& passes) {
  for (const auto& p : passes) {
    const int id = log.add("sched.pass", parent, p.start_ns, p.dur_ns);
    if (p.ctx.probe.calls)
      log.add("sim.probe", id, p.start_ns, p.ctx.probe.ns, p.ctx.probe.calls);
    if (p.ctx.place.calls)
      log.add("sim.place", id, p.start_ns, p.ctx.place.ns, p.ctx.place.calls);
    if (p.ctx.view.calls)
      log.add("sim.view", id, p.start_ns, p.ctx.view.ns, p.ctx.view.calls);
  }
}

enum class Kind { kUntraced, kTraced, kPooled };

// The simulations of one input in one cycle. An untraced run makes one. A
// traced run pairs a traced simulation with an untraced one, alternating
// which goes first, to measure the tracing overhead; where the scheduler
// cannot be wrapped there is no overhead to measure, and the pair is one
// simulation. The pooled variant, if the workload has one, comes last.
std::vector<Kind> kinds_of(const WorkloadDef& def, bool trace, int cycle) {
  if (!trace) return {Kind::kUntraced};
  std::vector<Kind> kinds = {Kind::kTraced};
  if (def.wraps_scheduler)
    kinds.insert(cycle % 2 == 0 ? kinds.end() : kinds.begin(),
                 Kind::kUntraced);
  if (def.run_pooled) kinds.push_back(Kind::kPooled);
  return kinds;
}

int run(const Args& args) {
  const std::int64_t process_start = wall_ns();
  const WorkloadDef& def = *find_workload(args.workload);
  const bool trace = args.trace == 1;
  const int k = def.instances;
  SpanLog spans;
  const int run_span = spans.open("bench.run", -1);
  std::vector<std::string> errors;

  // ---- set-up: warm up, then generate every input kSetupReps times ----
  const std::int64_t warmup_start = wall_ns();
  do {
    for (int i = 0; i < k; ++i) def.make(args.seed, i, def.scale);
  } while (static_cast<double>(wall_ns() - warmup_start) * 1e-9 <
           kWarmupSeconds);
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  std::vector<Instance> instances;
  // The yardstick runs before every timed set-up and simulation, so that
  // it samples the host in the same phases as they do.
  Yardstick yardstick;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    yardstick.measure();
    const int span = spans.open("bench.setup", run_span);
    const std::int64_t t0 = now_ns();
    std::vector<Instance> made;
    for (int i = 0; i < k; ++i)
      made.push_back(def.make(args.seed, i, def.scale));
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    spans.close(span);
    double gen = 0;
    for (const auto& inst : made) gen += inst.gen_s;
    gen_s.push_back(gen);
    for (int i = 0; i < k && !instances.empty(); ++i) {
      if (made[i].tasks != instances[i].tasks || made[i].jobs != instances[i].jobs)
        errors.push_back("set-up is not deterministic for input " +
                         std::to_string(i));
    }
    instances = std::move(made);
  }
  long jobs_per_cycle = 0, tasks_per_cycle = 0;
  for (const auto& inst : instances) {
    jobs_per_cycle += inst.jobs;
    tasks_per_cycle += inst.tasks;
  }

  // ---- measurement: a fixed number of cycles over every input ----
  // Timings are kept per pass and per stretch between passes as the
  // fastest of the run's identical simulations (best_times.h). The cycle
  // count is fixed, so that two builds take their minima over the same N;
  // --seconds, counted from the process start, only stops a run that
  // would overrun it.
  std::vector<std::vector<Sample>> plain(k), traced(k), pooled(k);
  std::vector<MinSeries> plain_pass(k), plain_stretch(k);
  std::vector<MinSeries> traced_pass(k), traced_stretch(k);
  std::vector<MinSeries> pooled_pass(k), pooled_stretch(k);
  double rss_mb = 0;
  long attempted = 0, failed = 0;
  const int planned = trace ? (def.cycles + 1) / 2 : def.cycles;
  int cycles = 0;
  bool capped = false;
  while (cycles < planned) {
    const std::int64_t cycle_start = wall_ns();
    for (int i = 0; i < k; ++i) {
      for (const Kind kind : kinds_of(def, trace, cycles)) {
        const bool pool = kind == Kind::kPooled;
        const bool wrap = kind == Kind::kTraced;
        std::vector<PassRecord> detail;
        Observer obs;
        obs.pass_ns = pool ? &pooled_pass[i]
                      : wrap ? &traced_pass[i] : &plain_pass[i];
        obs.stretch_ns = pool ? &pooled_stretch[i]
                         : wrap ? &traced_stretch[i] : &plain_stretch[i];
        if (wrap && def.wraps_scheduler) obs.passes = &detail;
        const double yardstick_s = yardstick.measure();
        obs.pass_ns->start();
        obs.stretch_ns->start();
        const int span =
            trace ? spans.open(pool ? "federation.pooled" : "sim.simulate",
                               run_span)
                  : -1;
        Sample s;
        s.yardstick_s = yardstick_s;
        s.outcome = (pool ? def.run_pooled : def.run)(instances[i], obs);
        if (trace) spans.close(span);
        if (!obs.pass_ns->finish() || !obs.stretch_ns->finish())
          s.outcome.errors.push_back("simulations made different passes");
        for (const auto& p : detail) s.ctx += p.ctx;
        if (wrap) {
          add_pass_spans(spans, span, detail);
          if (s.outcome.gen_s > 0)
            spans.add("workload.gen", span, spans.spans()[span].start_ns,
                      static_cast<std::int64_t>(s.outcome.gen_s * 1e9));
          if (obs.passes && s.ctx.placements != s.outcome.placements)
            s.outcome.errors.push_back(
                "context wrapper saw a different number of placements");
        }
        attempted += s.outcome.jobs;
        const bool ok = s.outcome.errors.empty();
        failed += ok ? s.outcome.jobs - s.outcome.finished_jobs
                     : s.outcome.jobs;
        for (const auto& e : s.outcome.errors)
          errors.push_back(std::string(def.name) + " input " +
                           std::to_string(i) + ": " + e);
        (pool ? pooled : wrap ? traced : plain)[i].push_back(std::move(s));
      }
    }
    // Peak memory through set-up and one simulation of every input: later
    // repetitions only add allocator churn that varies with their count.
    if (cycles == 0) rss_mb = peak_rss_mb();
    ++cycles;
    const double elapsed =
        static_cast<double>(wall_ns() - process_start) * 1e-9;
    const double cycle = static_cast<double>(wall_ns() - cycle_start) * 1e-9;
    if (cycles < planned && elapsed + cycle > args.seconds) {
      capped = true;
      std::cerr << "perfbench: stopped after " << cycles << " of " << planned
                << " cycles to stay within " << args.seconds << " s\n";
      break;
    }
  }
  spans.close(run_span);

  // Every simulation of an input, traced or not, must produce the same
  // schedule.
  std::vector<std::string> digests;
  for (int i = 0; i < k; ++i) {
    const RunOutcome& first =
        (plain[i].empty() ? traced[i] : plain[i]).front().outcome;
    for (const auto* runs : {&plain[i], &traced[i], &pooled[i]}) {
      for (const auto& s : *runs) {
        if (s.outcome.digest != first.digest ||
            s.outcome.makespan != first.makespan ||
            s.outcome.jct_sum != first.jct_sum) {
          errors.push_back("input " + std::to_string(i) +
                           ": schedules differ between simulations");
          failed += s.outcome.jobs;
        }
      }
    }
    char hex[20];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(first.digest));
    digests.push_back(hex);
  }

  // Each input's wall clock with every stretch at its fastest.
  auto best_wall = [](const std::vector<MinSeries>& stretches) {
    double total = 0;
    for (const auto& s : stretches) total += static_cast<double>(s.sum());
    return total * 1e-9;
  };
  const double plain_wall = best_wall(plain_stretch);
  // Every host time below is reported in nominal seconds (yardstick.h).
  const double h = yardstick.scale();

  Metrics m;
  if (!trace) {
    double makespan = 0, jct_sum = 0;
    long finished = 0;
    std::vector<std::int64_t> pass_ns;
    std::int64_t pass_total_ns = 0;
    for (int i = 0; i < k; ++i) {
      pass_total_ns += plain_pass[i].sum();
      const RunOutcome& o = plain[i].front().outcome;
      makespan += o.makespan / k;
      jct_sum += o.jct_sum;
      finished += o.finished_jobs;
      pass_ns.insert(pass_ns.end(), plain_pass[i].values().begin(),
                     plain_pass[i].values().end());
    }
    std::sort(pass_ns.begin(), pass_ns.end());
    m.add("setup_s", median(setup_s) * h, "s");
    // Per-element best-of-N where passes and stretches are timed; the
    // federation is timed only as whole simulations.
    const double cycle_s = def.wraps_scheduler ? plain_wall * h
                                               : local_nominal_seconds(plain);
    m.add("tasks_per_s", ratio(static_cast<double>(tasks_per_cycle), cycle_s),
          "1/s");
    m.add("pass_mean_ms",
          ratio(static_cast<double>(pass_total_ns) * 1e-6 * h,
                static_cast<double>(pass_ns.size())),
          "ms");
    m.add("pass_p99_ms", quantile(pass_ns, 0.99) * 1e-6 * h, "ms");
    m.add("peak_rss_mb", rss_mb, "MB");
    m.add("makespan_sim_s", makespan, "s");
    m.add("avg_jct_sim_s", ratio(jct_sum, static_cast<double>(finished)), "s");
    m.add("finished_jobs_frac",
          ratio(static_cast<double>(attempted - failed),
                static_cast<double>(attempted)),
          "frac");
  } else {
    // Per input, the fastest traced simulation; its layers add up to its
    // own wall clock exactly.
    Layers l;
    for (int i = 0; i < k; ++i) {
      const Sample* fastest = &traced[i].front();
      for (const auto& s : traced[i]) {
        if (s.outcome.wall_s < fastest->outcome.wall_s) fastest = &s;
      }
      l.add(*fastest);
    }
    const double traced_wall = best_wall(traced_stretch);
    const double pooled_wall = best_wall(pooled_stretch);
    const auto& p = l.perf;
    const double d = static_cast<double>(tasks_per_cycle);
    l.scale_times(h);
    m.add("bench.run_s", l.run_s, "s");
    m.add("bench.trace_overhead_frac",
          def.wraps_scheduler && traced_wall > 0
              ? 1.0 - plain_wall / traced_wall
              : 0,
          "frac");
    m.add("bench.cycles", cycles, "count");
    m.add("bench.yardstick_s", yardstick.best_seconds(), "s");
    m.add("sched.pass_s", l.pass_s, "s");
    m.add("sched.passes", static_cast<double>(l.passes), "count");
    m.add("sched.placements", static_cast<double>(l.placements), "count");
    m.add("sched.self_s", l.sched_self_s, "s");
    m.add("core.score_evals", static_cast<double>(p.score_evals), "count");
    m.add("core.simd_blocks", static_cast<double>(p.simd_blocks), "count");
    m.add("core.probes_issued", static_cast<double>(p.probes_issued), "count");
    m.add("core.probe_reuses", static_cast<double>(p.probe_reuses), "count");
    m.add("core.sticky_rejects", static_cast<double>(p.sticky_rejects), "count");
    m.add("core.row_skips", static_cast<double>(p.row_skips), "count");
    m.add("core.fit_index_skips", static_cast<double>(p.fit_index_skips),
          "count");
    m.add("sim.probe_s", l.probe_s, "s");
    m.add("sim.probe_calls", static_cast<double>(l.probe_calls), "count");
    m.add("sim.place_s", l.place_s, "s");
    m.add("sim.place_calls", static_cast<double>(l.place_calls), "count");
    m.add("sim.view_s", l.view_s, "s");
    m.add("sim.view_calls", static_cast<double>(l.view_calls), "count");
    m.add("sim.probe_cache_hit_ratio",
          ratio(static_cast<double>(p.probe_cache_hits),
                static_cast<double>(p.probe_cache_hits + p.probe_cache_misses)),
          "ratio");
    m.add("sim.estimate_cache_hit_ratio",
          ratio(static_cast<double>(p.estimate_cache_hits),
                static_cast<double>(p.estimate_cache_hits +
                                    p.estimate_cache_misses)),
          "ratio");
    m.add("sim.self_s", l.sim_self_s, "s");
    m.add("sim.host_us_per_task", ratio(l.sim_self_s * 1e6, d), "us");
    m.add("sim.jobs_admitted", static_cast<double>(p.jobs_admitted), "count");
    m.add("sim.jobs_retired", static_cast<double>(p.jobs_retired), "count");
    m.add("sim.peak_resident_tasks", static_cast<double>(p.peak_resident_tasks),
          "count");
    m.add("sim.stream_deferrals", static_cast<double>(p.stream_deferrals),
          "count");
    m.add("workload.gen_s", l.gen_s, "s");
    m.add("workload.setup_gen_s", median(gen_s) * h, "s");
    m.add("workload.jobs", static_cast<double>(jobs_per_cycle), "count");
    m.add("workload.tasks", d, "count");
    m.add("tracker.avail_recomputes", static_cast<double>(p.avail_recomputes),
          "count");
    m.add("tracker.avail_cache_hit_ratio",
          ratio(static_cast<double>(p.avail_cache_hits),
                static_cast<double>(p.avail_cache_hits + p.avail_recomputes)),
          "ratio");
    m.add("federation.cell_advance_s", l.cell_advance_s, "s");
    m.add("federation.driver_self_s",
          def.wraps_scheduler ? 0.0 : l.run_s - l.cell_advance_s, "s");
    m.add("federation.sched_s", def.wraps_scheduler ? 0.0 : l.pass_s, "s");
    m.add("federation.pool_run_s", pooled_wall * h, "s");
    // The traced federated simulations are serial and unwrapped.
    m.add("federation.pool_speedup", ratio(traced_wall, pooled_wall), "ratio");
    m.add("federation.idle_cell_skips", static_cast<double>(p.idle_cell_skips),
          "count");
    if (!args.spans.empty() && !spans.write_csv(args.spans))
      errors.push_back("could not write spans to " + args.spans);
  }

  std::string stamp = std::string("{\"build_type\": ") +
                      json_string(PERFBENCH_BUILD_TYPE) +
                      ", \"cxx_flags\": " + json_string(PERFBENCH_CXX_FLAGS) +
                      ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
                      ", \"simd_isa\": " +
                      json_string(std::string(tetris::core::simd::isa_name())) +
                      ", \"nproc\": " +
                      std::to_string(std::thread::hardware_concurrency()) + "}";
  std::string digest_list, error_list;
  for (std::size_t i = 0; i < digests.size(); ++i)
    digest_list += (i ? ", " : "") + json_string(digests[i]);
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i)
    error_list += (i ? ", " : "") + json_string(errors[i]);
  const bool correct = errors.empty();
  std::cout << "{\"workload\": " << json_string(args.workload)
            << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
            << ", \"instances\": " << k << ", \"cycles\": " << cycles
            << ", \"capped\": " << (capped ? "true" : "false")
            << ", \"yardstick_s\": " << json_number(yardstick.best_seconds())
            << ", \"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"digests\": [" << digest_list << "], \"errors\": ["
            << error_list << "], \"stamp\": " << stamp
            << ", \"metrics\": " << m.json() << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n" << kUsage;
    return 2;
  }
  if (const char* why = unfit_build()) {
    std::cerr << "perfbench: refusing to time a " << why << " ("
              << PERFBENCH_BUILD_TYPE << ")\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 3;
  }
}
