// Runtime state of jobs, stages and tasks inside a simulation. These are
// owned and mutated by the Simulator; schedulers see them only through the
// read-only views in scheduler.h.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sim/locality_window.h"
#include "sim/placement.h"
#include "sim/scheduler.h"
#include "sim/spec.h"
#include "util/resources.h"
#include "util/units.h"

namespace tetris::sim {

enum class TaskStatus {
  kBlocked,   // upstream stage not finished
  kRunnable,  // ready, waiting for placement
  kRunning,
  kFinished,
};

// Multipliers an estimation mode applies to a stage's true demands and
// duration (the identity under kOracle). Probes and group estimates are
// pure functions of them, so the simulator's memos key on their value.
struct EstFactors {
  Resources demand = Resources::uniform(1.0);
  double duration = 1.0;
  bool operator==(const EstFactors&) const = default;
};

struct TaskState {
  // The task's spec with shuffle splits materialized (rewritten to concrete
  // sources once the upstream stage finished).
  TaskSpec spec;
  TaskStatus status = TaskStatus::kBlocked;
  int uid = -1;            // globally unique across the simulation
  int index_in_stage = -1;
  // Position in the owning stage's runnable_indices while runnable.
  int runnable_pos = -1;
  // When the task last became runnable; feeds starvation detection.
  SimTime runnable_since = -1;
  MachineId host = -1;
  SimTime start_time = -1;
  SimTime finish_time = -1;
  // Demands registered on machines while running.
  PlacementDemand placement;
  // Progress in [0,1] of the task's natural duration; advances at `speed`
  // (the min grant ratio over all machines the task touches).
  double progress = 0;
  SimTime progress_updated_at = 0;
  double speed = 0;
  // Bumped whenever speed changes; finish events carry the generation they
  // were computed under and are dropped if stale (lazy deletion).
  long generation = 0;
  // Last rate-refresh walk that reached this task (Simulator::
  // refresh_dirty dedups tasks reached through several dirty machines).
  std::uint64_t refresh_stamp = 0;
  int attempts = 0;  // > 1 after failure-injected re-execution
  bool will_fail = false;
  double fail_at_progress = 1.0;
  // The *estimated* demands booked for the running attempt at placement
  // time (what the scheduler was charged); completion subtracts the same
  // values. True demands live in `placement`.
  Resources est_local;
  std::vector<RemoteLeg> est_remote;
};

struct StageState {
  std::vector<TaskState> tasks;
  std::vector<int> deps;
  // Placement constraint shared by every task of the stage (DESIGN.md
  // §13), copied from the spec at admission.
  PlacementConstraint constraint;
  // Static admissibility per real machine: label clauses folded in at
  // admission, the same-rack-as-input clause folded in when the stage's
  // inputs materialize. Empty = every machine admissible (the common,
  // constraint-free case costs nothing). The dynamic anti-affinity clause
  // is checked against JobState::hosted_per_machine instead.
  std::vector<unsigned char> admit_mask;
  int unfinished_deps = 0;
  bool materialized = false;  // shuffle splits rewritten
  int runnable = 0;
  int running = 0;
  int finished = 0;
  // Indices (into `tasks`) of the currently runnable tasks, so probes scan
  // runnable candidates directly instead of walking finished ones.
  std::vector<int> runnable_indices;
  // Bumped on every runnable-set mutation (task arrival, start, requeue).
  // Version stamp for the simulator's group-estimate memo (DESIGN.md §8),
  // whose representative task depends on the runnable set.
  std::uint64_t runnable_version = 0;
  // Locality window (DESIGN.md §12.5): local_fraction(task, m) of the
  // tasks in the first kMaxLocalityScan slots of runnable_indices against
  // every real machine, with each machine's best-locality slot. Kept in
  // step with runnable_indices by the simulator's add_runnable /
  // remove_runnable, so a placement rewrites at most one row; viability
  // is refreshed lazily by the first probe after the churn epoch moves.
  // Empty under the naive view.
  LocalityWindow window;
  // Cross-pass probe memo, one slot per real machine (DESIGN.md §8). A
  // probe is a pure function of (chosen task, machine, churn epoch,
  // estimation factors), so a slot replays while the window still picks
  // the same task, however the rest of the runnable set moved. Every fill
  // stamps its probe afresh (Probe::stamp), so a caller whose probe
  // already carries the slot's stamp holds the same bytes.
  // Sized when the stage becomes runnable, freed when it is done.
  struct ProbeMemo {
    int task_index = -1;  // -1: never filled
    std::uint64_t churn_version = 0;
    EstFactors factors;
    Probe probe;
  };
  std::vector<ProbeMemo> probe_memo;
  // (task index, runnable_since) in push order. Entries are appended with
  // non-decreasing timestamps and never erased eagerly; a query pops
  // stale fronts (task no longer runnable, or requeued since) and the
  // surviving front is the stage's longest-waiting runnable task — an
  // O(1)-amortized replacement for scanning every runnable task per pass.
  std::deque<std::pair<int, SimTime>> wait_fifo;
  // Where this stage's outputs landed, aggregated per machine; feeds the
  // materialization of downstream shuffle splits.
  std::vector<std::pair<MachineId, double>> output_locations;

  int total() const { return static_cast<int>(tasks.size()); }
  bool done() const { return finished == total(); }
};

struct JobState {
  JobId id = -1;
  std::string name;
  int template_id = -1;
  int queue = 0;
  SimTime arrival = 0;
  SimTime finish = -1;  // -1 while incomplete
  bool arrived = false;
  // In streaming mode (DESIGN.md §11): the job's record has been folded
  // into SimResult and its stages freed; only this shell remains until the
  // retired prefix is popped off the resident window. complete() stays
  // true for a shell, so iteration skips it exactly like a finished job.
  bool retired = false;
  std::vector<StageState> stages;
  // First task uid of this job; uids are contiguous per job in id order.
  int uid_base = 0;
  int total_tasks = 0;
  int finished_tasks = 0;
  int running_tasks = 0;
  // Sum of local demand vectors of the job's running tasks (true values);
  // the basis for fairness shares.
  Resources current_alloc;
  // Running tasks of this job per real machine, maintained by
  // start_task/complete_task; sized only when some stage of the job
  // carries an anti-affinity constraint (empty otherwise). Within one
  // scheduling pass counts only grow — completions land between passes —
  // so an anti-affinity rejection is sticky-safe like any other.
  std::vector<int> hosted_per_machine;
  // The job can never finish: some stage's placement constraints admit no
  // machine in this cluster (reported in SimResult::infeasible).
  bool doomed = false;
  // Relative integral unfairness accumulator (paper §5.3.2): integrates
  // (a(t) - f(t)) / f(t) over the job's active lifetime.
  double unfairness_integral = 0;

  bool complete() const { return finished_tasks == total_tasks; }
};

}  // namespace tetris::sim
