// Outside-in timing of the simulator's layers. Each wrapper forwards every
// call to the object it wraps and only reads the clock around it, so a
// wrapped run makes exactly the decisions an unwrapped one makes (the
// wrapper tests pin schedules and SIMD block counts). Nothing here reaches
// inside src/: the layers are timed at their public interfaces.
//
//   TimedScheduler   around Scheduler::schedule()    -> every pass and the
//                    stretches of event processing between passes
//   TimedContext     around the scheduler's calls back into the simulator,
//                    aggregated per pass as count + total time per kind
//   TimedJobSource   around on-demand job generation (JobSource peek/next)
//
// The context wrapper is single-threaded: wrap only serial scans
// (TetrisConfig::num_threads == 0), whose context calls all come from the
// thread running schedule().
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

#include "perfbench/src/best_times.h"
#include "sim/job_source.h"
#include "sim/scheduler.h"

namespace perfbench {

// The benchmark's clock: CPU time of the calling thread. Unlike a wall
// clock it stops while the thread is preempted or its vCPU is descheduled
// by the hypervisor (steal time), which on a shared host happens in
// spells that slow a whole run. A read costs about 0.3 us.
inline std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Wall clock, for run caps and for the context calls, which are too many
// and too short for a 0.3 us clock read.
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Calls of one kind made during a pass, and the time spent inside them.
struct CallTotals {
  long calls = 0;
  std::int64_t ns = 0;

  CallTotals& operator+=(const CallTotals& o) {
    calls += o.calls;
    ns += o.ns;
    return *this;
  }
};

// Context calls of one pass, split by kind. `probe` is probe() and
// probe_into(); `place` is place() and preempt(); `view` is the snapshot
// calls runnable_groups(), active_jobs(), imminent_groups(),
// running_tasks() and take_reports(). The cheap accessors (available(),
// capacity(), machine_up(), constraints_admit(), the SoA planes, ...) are
// forwarded untimed: two clock reads would cost more than the call, so
// their time stays in the scheduler's self time.
struct ContextTotals {
  CallTotals probe;
  CallTotals place;
  CallTotals view;
  long placements = 0;  // place() calls that started a task

  std::int64_t timed_ns() const { return probe.ns + place.ns + view.ns; }

  ContextTotals& operator+=(const ContextTotals& o) {
    probe += o.probe;
    place += o.place;
    view += o.view;
    placements += o.placements;
    return *this;
  }
};

class TimedContext final : public tetris::sim::SchedulerContext {
 public:
  explicit TimedContext(tetris::sim::SchedulerContext& inner)
      : inner_(inner) {}

  const ContextTotals& totals() const { return totals_; }

  tetris::SimTime now() const override {
    return inner_.now();
  }
  int num_machines() const override {
    return inner_.num_machines();
  }
  const tetris::Resources& capacity(tetris::sim::MachineId m) const override {
    return inner_.capacity(m);
  }
  const tetris::Resources& cluster_capacity() const override {
    return inner_.cluster_capacity();
  }
  tetris::Resources available(tetris::sim::MachineId m) const override {
    return inner_.available(m);
  }
  int running_tasks_on(tetris::sim::MachineId m) const override {
    return inner_.running_tasks_on(m);
  }
  // The SIMD scan reads these planes directly. Without them it falls
  // back to a per-machine gather through available()/capacity(): the
  // schedule is unchanged but the scan is slower, so forwarding them is
  // what keeps the traced pass the same pass.
  const tetris::util::ResourcePlanes* availability_planes() const override {
    return inner_.availability_planes();
  }
  const tetris::util::ResourcePlanes* capacity_planes() const override {
    return inner_.capacity_planes();
  }
  bool machine_up(tetris::sim::MachineId m) const override {
    return inner_.machine_up(m);
  }
  bool constraints_admit(const tetris::sim::GroupRef& group,
                         tetris::sim::MachineId m) const override {
    return inner_.constraints_admit(group, m);
  }
  tetris::sim::JobId retired_before() const override {
    return inner_.retired_before();
  }

  std::vector<tetris::sim::GroupView> runnable_groups() const override {
    const Timer t(totals_.view);
    return inner_.runnable_groups();
  }
  std::vector<tetris::sim::JobView> active_jobs() const override {
    const Timer t(totals_.view);
    return inner_.active_jobs();
  }
  std::vector<tetris::sim::GroupView> imminent_groups() const override {
    const Timer t(totals_.view);
    return inner_.imminent_groups();
  }
  std::vector<tetris::sim::RunningTaskView> running_tasks() const override {
    const Timer t(totals_.view);
    return inner_.running_tasks();
  }
  std::vector<tetris::sim::TaskReport> take_reports() override {
    const Timer t(totals_.view);
    return inner_.take_reports();
  }

  tetris::sim::Probe probe(const tetris::sim::GroupRef& group,
                           tetris::sim::MachineId machine) const override {
    const Timer t(totals_.probe);
    return inner_.probe(group, machine);
  }
  void probe_into(const tetris::sim::GroupRef& group,
                  tetris::sim::MachineId machine,
                  tetris::sim::Probe* out) const override {
    const Timer t(totals_.probe);
    inner_.probe_into(group, machine, out);
  }
  bool place(const tetris::sim::Probe& probe) override {
    const Timer t(totals_.place);
    const bool placed = inner_.place(probe);
    if (placed) ++totals_.placements;
    return placed;
  }
  bool preempt(int task_uid) override {
    const Timer t(totals_.place);
    return inner_.preempt(task_uid);
  }

  tetris::util::PerfCounters* perf_counters() override {
    return inner_.perf_counters();
  }
  tetris::trace::Recorder* tracer() override { return inner_.tracer(); }

 private:
  // Adds the lifetime of the enclosing call to one CallTotals.
  class Timer {
   public:
    explicit Timer(CallTotals& into) : into_(into), start_(wall_ns()) {}
    ~Timer() {
      into_.ns += wall_ns() - start_;
      ++into_.calls;
    }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

   private:
    CallTotals& into_;
    std::int64_t start_;
  };

  tetris::sim::SchedulerContext& inner_;
  mutable ContextTotals totals_;
};

// One scheduling pass as seen from outside schedule().
struct PassRecord {
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  ContextTotals ctx;
};

// Where a simulation reports its passes. Both series must be set; each
// gets one element per pass (stretches one more), in order.
struct Observer {
  MinSeries* pass_ns = nullptr;  // host latency of every pass
  // Host time from the simulation's start to its first pass, between
  // consecutive pass starts, and from the last pass start to the end:
  // together, the simulation's whole wall clock.
  MinSeries* stretch_ns = nullptr;
  // Non-null: the scheduler's context is wrapped and every pass is kept
  // here in full.
  std::vector<PassRecord>* passes = nullptr;
};

class TimedScheduler final : public tetris::sim::Scheduler {
 public:
  // `inner` and the observer's series must outlive this wrapper;
  // `start_ns` is when the simulation starts. Without `observer.passes`
  // the simulator's own context is handed straight through.
  TimedScheduler(tetris::sim::Scheduler& inner, const Observer& observer,
                 std::int64_t start_ns)
      : inner_(inner), observer_(observer), mark_ns_(start_ns) {}

  std::string name() const override { return inner_.name(); }

  void schedule(tetris::sim::SchedulerContext& ctx) override {
    PassRecord rec;
    rec.start_ns = now_ns();
    if (observer_.passes == nullptr) {
      inner_.schedule(ctx);
      rec.dur_ns = now_ns() - rec.start_ns;
    } else {
      TimedContext timed(ctx);
      inner_.schedule(timed);
      rec.dur_ns = now_ns() - rec.start_ns;
      rec.ctx = timed.totals();
      observer_.passes->push_back(rec);
    }
    observer_.stretch_ns->add(rec.start_ns - mark_ns_);
    observer_.pass_ns->add(rec.dur_ns);
    mark_ns_ = rec.start_ns;
    pass_ns_ += rec.dur_ns;
  }

  // Call once the simulation has returned.
  void finish(std::int64_t end_ns) {
    observer_.stretch_ns->add(end_ns - mark_ns_);
  }

  std::int64_t pass_ns() const { return pass_ns_; }

 private:
  tetris::sim::Scheduler& inner_;
  Observer observer_;
  std::int64_t mark_ns_;
  std::int64_t pass_ns_ = 0;
};

// Times the simulator's pulls from a job source: generation on demand.
class TimedJobSource final : public tetris::sim::JobSource {
 public:
  explicit TimedJobSource(tetris::sim::JobSource& inner) : inner_(inner) {}

  long total_jobs() const override { return inner_.total_jobs(); }
  bool peek(tetris::sim::JobPeek& out) override {
    const std::int64_t t0 = now_ns();
    const bool ok = inner_.peek(out);
    totals_.ns += now_ns() - t0;
    ++totals_.calls;
    return ok;
  }
  bool next(tetris::sim::JobSpec& out) override {
    const std::int64_t t0 = now_ns();
    const bool ok = inner_.next(out);
    totals_.ns += now_ns() - t0;
    ++totals_.calls;
    return ok;
  }

  const CallTotals& totals() const { return totals_; }

 private:
  tetris::sim::JobSource& inner_;
  CallTotals totals_;
};

}  // namespace perfbench
